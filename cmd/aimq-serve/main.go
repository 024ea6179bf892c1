// Command aimq-serve is the AIMQ answering daemon: it loads (or learns and
// persists) the mined model once, then serves imprecise queries over HTTP
// with an LRU answer cache, single-flight deduplication, per-request
// deadlines, Prometheus metrics, end-to-end query tracing and graceful
// shutdown.
//
// Over a local CSV:
//
//	aimq-serve -data cardb.csv -model cardb.model.json -addr :8090
//
// Over a remote autonomous source (an aimqd instance), probing it to learn:
//
//	aimq-serve -source http://127.0.0.1:8080 -model cardb.model.json
//
// Then:
//
//	curl 'http://127.0.0.1:8090/answer?q=Model+like+Camry,+Price+like+10000&k=5'
//	curl 'http://127.0.0.1:8090/answer?q=Model+like+Camry&explain=true'
//	curl 'http://127.0.0.1:8090/debug/traces'
//	curl 'http://127.0.0.1:8090/metrics'
//	curl 'http://127.0.0.1:8090/healthz'
//
// With -debug-addr a second, private listener serves the full diagnostics
// surface (pprof, expvar, traces, the learning profile):
//
//	aimq-serve -data cardb.csv -debug-addr 127.0.0.1:8091
//	curl 'http://127.0.0.1:8091/debug/'
//
// The source is wrapped in retry + circuit-breaker middleware by default
// (tune with -retry-attempts, -retry-base, -breaker-failures, -breaker-open;
// disable with -resilient=false). With -cache-ttl set, expired cache entries
// are served marked "stale" while the breaker is open — see
// docs/ROBUSTNESS.md.
//
// Logs are structured (log/slog); every request carries a generated ID that
// is echoed back as X-Request-ID and stamped on its trace.
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aimq/internal/audit"
	"aimq/internal/core"
	"aimq/internal/drift"
	"aimq/internal/lifecycle"
	"aimq/internal/model"
	"aimq/internal/relation"
	"aimq/internal/service"
	"aimq/internal/version"
	"aimq/internal/webdb"
)

// options is everything aimq-serve's flags set. Each flag writes straight
// into the field of the package config it feeds; only the process-level
// settings (paths, addresses, switches) live outside those configs.
type options struct {
	data, source, model string
	addr, debugAddr     string
	cacheSnapshot       string
	drain               time.Duration
	resilient           bool
	refreshOnBreach     bool
	logJSON             bool
	showVersion         bool
	modelInfo           bool

	learn     service.LearnConfig
	svc       service.Config
	res       webdb.ResilientConfig
	audit     audit.Config
	drift     drift.MonitorConfig
	lifecycle lifecycle.Config
}

// parseFlags parses args into options. The engine config is built once:
// the lifecycle's shadow replays reuse the service's, and the audit header
// records it.
func parseFlags(name string, args []string, onError flag.ErrorHandling) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet(name, onError)
	fs.StringVar(&o.data, "data", "", "CSV file to serve answers over")
	fs.StringVar(&o.source, "source", "", "base URL of a remote aimqd source (alternative to -data)")
	fs.StringVar(&o.model, "model", "", "model snapshot path: loaded when present, else learned and saved here")
	fs.StringVar(&o.addr, "addr", ":8090", "listen address")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "private listen address for pprof/expvar/traces ('' = disabled)")
	eng := &o.svc.Engine
	fs.IntVar(&eng.K, "k", 10, "default answers per query")
	fs.IntVar(&o.svc.MaxK, "max-k", 100, "cap on client-requested k")
	fs.Float64Var(&eng.Tsim, "tsim", 0.5, "default similarity threshold")
	fs.IntVar(&o.svc.CacheSize, "cache", 1024, "LRU answer cache entries")
	fs.DurationVar(&o.svc.CacheTTL, "cache-ttl", 0, "answer freshness window; expired entries are served marked stale while the source is degraded (0 = never expire)")
	fs.DurationVar(&o.svc.RequestTimeout, "timeout", 30*time.Second, "per-request answer deadline")
	fs.BoolVar(&o.resilient, "resilient", true, "wrap the source in retry + circuit-breaker middleware")
	fs.IntVar(&o.res.Retry.MaxAttempts, "retry-attempts", 3, "attempts per source query, including the first (with -resilient)")
	fs.DurationVar(&o.res.Retry.BaseDelay, "retry-base", 50*time.Millisecond, "base backoff between retries, doubled per attempt with full jitter (with -resilient)")
	fs.IntVar(&o.res.Breaker.FailureThreshold, "breaker-failures", 5, "consecutive source failures that open the circuit breaker (with -resilient)")
	fs.DurationVar(&o.res.Breaker.OpenTimeout, "breaker-open", 10*time.Second, "how long an open breaker sheds load before half-open probing (with -resilient)")
	failDegrade := fs.Bool("fail-degrade", true, "return partial ranked results when relaxation queries fail (false = abort the request)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful shutdown drain budget")
	fs.IntVar(&eng.MaxQueriesPerBase, "max-queries-per-base", 0, "cap relaxation queries per base tuple (0 = unlimited)")
	fs.IntVar(&o.learn.SampleSize, "sample", 0, "cap the learning sample (0 = all)")
	fs.Float64Var(&o.learn.Terr, "terr", 0.15, "TANE error threshold for learning")
	fs.Int64Var(&o.learn.Seed, "seed", 1, "probing/sampling seed")
	fs.IntVar(&o.learn.Workers, "probe-workers", 1, "concurrent spanning probes, TANE level shards and supertuple-build goroutines while learning")
	prune := fs.Bool("prune", true, "skip relaxation queries whose Sim upper bound is already below tsim")
	fs.Float64Var(&eng.KeyPruneMaxError, "key-prune-max-error", 0, "also skip relaxation queries that keep the mined best key bound, when the key's g3 error is at or below this (0 = exact keys only)")
	fs.StringVar(&o.cacheSnapshot, "cache-snapshot", "", "path for the hot-query cache snapshot: warmed from at startup, rewritten at shutdown ('' = disabled)")
	fs.IntVar(&o.svc.TraceRing, "trace-ring", 64, "traces kept by /debug/traces (recent and slowest each; negative disables)")
	fs.IntVar(&o.svc.TraceSample, "trace-sample", 0, "head-sample 1 in N computed answers into the trace ring (<2 = every one)")
	fs.DurationVar(&o.svc.FlightThreshold, "flight-threshold", 0, "tail-latency flight recorder: retain any computed answer slower than this, regardless of sampling (0 = off)")
	fs.IntVar(&o.svc.FlightRing, "flight-ring", 32, "traces kept by the flight recorder (recent and slowest each)")
	fs.DurationVar(&o.svc.SlowQuery, "slow-query", 500*time.Millisecond, "log answers slower than this at WARN (negative disables)")
	fs.StringVar(&o.audit.Path, "audit-log", "", "durable query audit log path (JSONL wide events; '' = disabled)")
	fs.IntVar(&o.audit.SampleRate, "audit-sample", 0, "audit 1 in N computed answers (<2 = every one)")
	fs.Int64Var(&o.audit.MaxBytes, "audit-max-bytes", 64<<20, "rotate the audit log when it reaches this size")
	fs.DurationVar(&o.audit.MaxAge, "audit-max-age", 0, "rotate the audit log after this age (0 = size-only rotation)")
	fs.DurationVar(&o.drift.Interval, "drift-interval", 0, "re-probe the source and compare against the model's drift baseline at this interval (0 = disabled)")
	fs.IntVar(&o.drift.SampleLimit, "drift-sample", 2000, "fresh-sample cap per drift re-probe")
	fs.Float64Var(&o.drift.PSIWarn, "drift-psi-warn", 0.25, "per-attribute PSI at or above which a drift tick is a breach")
	lc := &o.lifecycle
	fs.DurationVar(&lc.Interval, "refresh-interval", 0, "re-learn the model at this interval and hot-swap it in after validation (0 = drift-triggered only)")
	fs.BoolVar(&o.refreshOnBreach, "refresh-on-breach", true, "re-learn and hot-swap when the drift monitor breaches (needs -drift-interval)")
	fs.DurationVar(&lc.Retry.BaseDelay, "refresh-backoff", 30*time.Second, "base backoff after a failed or rejected re-learn, doubled per consecutive failure with full jitter")
	fs.DurationVar(&lc.Retry.MaxDelay, "refresh-backoff-max", 15*time.Minute, "backoff cap between re-learn attempts")
	fs.IntVar(&lc.ShadowSample, "refresh-shadow-sample", 64, "recent audited queries replayed against a candidate model before promotion (needs -audit-log; negative disables validation)")
	fs.Float64Var(&lc.MaxZeroRise, "refresh-max-zero-rise", 0.25, "reject a candidate whose shadow-replay zero-answer rate rises more than this")
	fs.Float64Var(&lc.MaxSimDrop, "refresh-max-sim-drop", 0.10, "reject a candidate whose shadow-replay mean similarity drops more than this")
	fs.IntVar(&lc.Keep, "model-keep", 2, "previous model generations kept beside -model on promote (rollback restores the newest)")
	fs.IntVar(&lc.ProbationWindow, "refresh-probation", 200, "computed answers watched after a promote; a zero-answer collapse inside the window rolls the model back (0 = no auto-rollback)")
	fs.Float64Var(&lc.ProbationZeroRate, "refresh-rollback-zero-rate", 0.6, "post-promote zero-answer rate at or above which the promote is rolled back")
	fs.BoolVar(&o.logJSON, "log-json", false, "emit logs as JSON instead of text")
	fs.BoolVar(&o.showVersion, "version", false, "print version and exit")
	fs.BoolVar(&o.modelInfo, "model-info", false, "print the model's fingerprint, learn timestamp and age, then exit (loads or learns the model first)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if *failDegrade {
		eng.OnFailure = core.FailDegrade
	}
	eng.DisablePruning = !*prune
	o.drift.Seed = o.learn.Seed
	o.drift.ProbeWorkers = o.learn.Workers
	o.audit.Header.Service = version.Version
	o.audit.Header.Engine = audit.EngineConfigOf(*eng)
	lc.Engine = *eng
	lc.AuditPath = o.audit.Path
	lc.ModelPath = o.model
	return o, nil
}

func main() {
	o, _ := parseFlags(os.Args[0], os.Args[1:], flag.ExitOnError) // a bad flag exits inside Parse
	if o.showVersion {
		fmt.Printf("aimq-serve %s (%s)\n", version.Version, version.GoVersion())
		return
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if o.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	// The first SIGINT/SIGTERM starts the drain (or, during the learn, stops
	// the server right after it); a second one kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, o, logger); err != nil {
		fmt.Fprintln(os.Stderr, "aimq-serve:", err)
		os.Exit(1)
	}
}

// run loads or learns the model, then serves until ctx is cancelled and the
// drain completes.
func run(ctx context.Context, o *options, logger *slog.Logger) error {
	logger.Info("aimq-serve starting", "version", version.Version, "go", version.GoVersion())

	// -model-info over a saved snapshot needs no source at all; only fall
	// through to the full learn path when asked to build one.
	if o.modelInfo && o.data == "" && o.source == "" {
		if o.model == "" {
			return fmt.Errorf("-model-info needs -model (or -data/-source to learn one)")
		}
		snap, err := model.Load(o.model)
		if err != nil {
			return err
		}
		printModelInfo(service.ModelInfo{
			Fingerprint:   snap.Fingerprint(),
			LearnedAtUnix: snap.LearnedAtUnix,
			SampleSize:    snap.SampleSize,
			Pivot:         snap.Pivot,
		})
		return nil
	}

	var src webdb.Source
	switch {
	case o.data != "":
		rel, err := relation.LoadCSV(o.data)
		if err != nil {
			return err
		}
		logger.Info("serving local relation",
			"tuples", rel.Size(), "schema", rel.Schema().String(), "file", o.data)
		src = webdb.NewLocal(rel)
	case o.source != "":
		client, err := webdb.NewClient(o.source, nil)
		if err != nil {
			return err
		}
		logger.Info("answering over remote source",
			"url", o.source, "schema", client.Schema().String())
		src = client
	default:
		return fmt.Errorf("need -data or -source")
	}

	if o.resilient {
		src = webdb.NewResilient(src, o.res)
		logger.Info("resilience middleware on",
			"retry_attempts", o.res.Retry.MaxAttempts, "retry_base", o.res.Retry.BaseDelay,
			"breaker_failures", o.res.Breaker.FailureThreshold, "breaker_open", o.res.Breaker.OpenTimeout)
	}

	// One learn config for the startup build and every lifecycle re-learn,
	// so the two can never drift apart.
	start := time.Now()
	m, err := service.LoadOrBuildModel(o.model, src, o.learn)
	if err != nil {
		return err
	}
	info := m.Info()
	if o.modelInfo {
		printModelInfo(info)
		return nil
	}
	learnStats := m.Stats
	if m.Built {
		logger.Info("learned model", "elapsed", time.Since(start).Round(time.Millisecond),
			"probed_tuples", learnStats.ProbedTuples, "sample", learnStats.SampleSize,
			"afds", learnStats.AFDs, "akeys", learnStats.AKeys,
			"fingerprint", info.Fingerprint)
		if o.model != "" {
			logger.Info("model saved", "path", o.model)
		}
	} else {
		logger.Info("model loaded", "path", o.model,
			"elapsed", time.Since(start).Round(time.Millisecond),
			"fingerprint", info.Fingerprint)
	}

	svcCfg := o.svc
	svcCfg.Logger = logger
	if o.audit.Path != "" {
		ac := o.audit
		ac.Header.ModelFingerprint = info.Fingerprint
		ac.Header.ModelLearnedAtUnix = info.LearnedAtUnix
		auditW, err := audit.NewWriter(ac)
		if err != nil {
			return fmt.Errorf("audit log: %w", err)
		}
		defer func() {
			if cerr := auditW.Close(); cerr != nil {
				logger.Warn("audit log close failed", "error", cerr)
			}
			st := auditW.Stats()
			logger.Info("audit log closed", "path", ac.Path,
				"written", st.Written, "dropped", st.Dropped, "rotations", st.Rotations)
		}()
		logger.Info("audit log on", "path", ac.Path,
			"sample", ac.SampleRate, "max_bytes", ac.MaxBytes, "max_age", ac.MaxAge)
		svcCfg.Audit = auditW
	}

	svc := service.New(src, m.Est, &core.Guided{Ord: m.Ord}, svcCfg)
	svc.SetLearnStats(learnStats)
	svc.SetModelInfo(info)

	var mon *drift.Monitor
	if o.drift.Interval > 0 {
		if m.Snap == nil || m.Snap.Drift == nil {
			logger.Warn("drift monitoring requested but the model has no drift baseline (snapshot predates drift profiles); re-learn to enable")
		} else {
			mon = drift.NewMonitor(src, m.Snap.Drift, o.drift)
			svc.AttachDriftMonitor(mon)
			logger.Info("drift monitor on", "interval", o.drift.Interval,
				"sample", o.drift.SampleLimit, "psi_warn", o.drift.PSIWarn)
		}
	}

	// The self-healing loop: breaches (and/or a timer) re-learn the model in
	// the background, shadow-validate it, persist it with generation keeping
	// and hot-swap it in — never disturbing in-flight answers.
	if o.lifecycle.Interval > 0 || (mon != nil && o.refreshOnBreach) {
		lcCfg := o.lifecycle
		lcCfg.Logger = logger
		ctl := lifecycle.New(svc, src,
			func() (*service.Model, error) { return service.BuildModel(src, o.learn) },
			lcCfg)
		ctl.SetServing(m)
		if mon != nil && o.refreshOnBreach {
			ctl.AttachMonitor(mon)
		}
		svc.AttachLifecycle(ctl)
		go ctl.Run(ctx)
		logger.Info("model refresh controller on",
			"interval", lcCfg.Interval, "on_breach", mon != nil && o.refreshOnBreach,
			"shadow_sample", lcCfg.ShadowSample, "model_keep", lcCfg.Keep,
			"probation", lcCfg.ProbationWindow)
	}
	if mon != nil {
		go mon.Run(ctx)
	}

	if o.cacheSnapshot != "" {
		if snap, err := service.LoadCacheSnapshot(o.cacheSnapshot); err == nil {
			warmStart := time.Now()
			warmed, werr := svc.WarmCache(ctx, snap)
			logger.Info("cache warmed from snapshot", "path", o.cacheSnapshot,
				"entries", len(snap.Entries), "warmed", warmed,
				"elapsed", time.Since(warmStart).Round(time.Millisecond))
			if werr != nil && !errors.Is(werr, context.Canceled) {
				logger.Warn("cache warming stopped early", "error", werr)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			logger.Warn("cache snapshot unreadable, starting cold", "path", o.cacheSnapshot, "error", err)
		}
	}

	if o.debugAddr != "" {
		dbg := &http.Server{Addr: o.debugAddr, Handler: svc.DebugHandler()}
		go func() {
			logger.Info("debug surface listening", "addr", o.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = dbg.Shutdown(shutCtx)
		}()
	}

	logger.Info("answering", "addr", o.addr, "cache_entries", o.svc.CacheSize,
		"timeout", o.svc.RequestTimeout, "trace_ring", o.svc.TraceRing, "trace_sample", o.svc.TraceSample,
		"flight_threshold", o.svc.FlightThreshold, "slow_query", o.svc.SlowQuery)
	err = svc.Run(ctx, o.addr, o.drain)
	if err == nil {
		logger.Info("drained and stopped")
	}
	if o.cacheSnapshot != "" {
		snap := svc.SnapshotCache(0)
		if serr := service.SaveCacheSnapshot(o.cacheSnapshot, snap); serr != nil {
			logger.Warn("cache snapshot not saved", "path", o.cacheSnapshot, "error", serr)
		} else {
			logger.Info("cache snapshot saved", "path", o.cacheSnapshot, "entries", len(snap.Entries))
		}
	}
	return err
}

// printModelInfo renders the -model-info identity card.
func printModelInfo(info service.ModelInfo) {
	fmt.Printf("fingerprint  %s\n", info.Fingerprint)
	if !info.LearnedAt().IsZero() {
		fmt.Printf("learned_at   %s\n", info.LearnedAt().UTC().Format(time.RFC3339))
		fmt.Printf("age          %s\n", time.Since(info.LearnedAt()).Round(time.Second))
	}
	if info.SampleSize != 0 {
		fmt.Printf("sample_size  %d\n", info.SampleSize)
	}
	if info.Pivot != "" {
		fmt.Printf("pivot        %s\n", info.Pivot)
	}
	fmt.Printf("built        %t\n", info.Built)
}
