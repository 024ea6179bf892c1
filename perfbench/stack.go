package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aimq/internal/audit"
	"aimq/internal/core"
	"aimq/internal/lifecycle"
	"aimq/internal/obs"
	"aimq/internal/relation"
	"aimq/internal/service"
	"aimq/internal/version"
	"aimq/internal/webdb"
)

// engineConfig is aimq-serve's shipped engine configuration with one
// exception: a relaxation budget of 60 queries per base tuple (the one the
// in-process serve-* scenarios use). Unbudgeted, a cold request costs about
// 210 ms on 2 CPUs and a run long enough for a tail percentile would take
// minutes.
func engineConfig() core.Config {
	return core.Config{
		K:                 10,
		Tsim:              0.5,
		MaxQueriesPerBase: 60,
		OnFailure:         core.FailDegrade,
	}
}

// learnConfig is aimq-serve's shipped learn configuration.
func learnConfig() service.LearnConfig {
	return service.LearnConfig{Seed: 1, Terr: 0.15, Workers: 1}
}

// stack is the whole serving path in one process, joined by real loopback
// TCP listeners:
//
//	generator → service.Service → webdb.Resilient → webdb.Client →
//	webdb.Server → webdb.ProbeCounter → (webdb.Swap →) webdb.Local
type stack struct {
	probes *webdb.ProbeCounter
	local  *webdb.Local
	swap   *webdb.Swap // relearn-drift only
	res    *webdb.Resilient
	svc    *service.Service
	model  *service.Model
	lc     *lifecycle.Controller
	audit  *audit.Writer
	base   string // service URL
	setup  time.Duration

	tr       *tracer
	lcSource *tracedSource // source the lifecycle learns through (trace runs)

	learnedMu sync.Mutex
	learned   []*service.Model // models the lifecycle re-learned

	servers []*http.Server
	wg      sync.WaitGroup
	tmp     string
}

type stackOpts struct {
	rel     *relation.Relation
	tr      *tracer // nil: no wrappers at all
	relearn bool    // swap seam, audit log, refresh controller
	tmpRoot string
}

// serve starts an HTTP server for h on a fresh loopback port, with the
// given server settings, and returns its base URL.
func (s *stack) serve(srv *http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.servers = append(s.servers, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// startStack brings up aimqd's half and then aimq-serve's half with their
// shipped settings. setup is timed from the source listener coming up to
// the service listener answering /healthz: schema fetch, the full learn
// over HTTP, and service assembly.
func startStack(o stackOpts) (*stack, error) {
	s := &stack{tr: o.tr}
	var err error
	if s.tmp, err = os.MkdirTemp(o.tmpRoot, "stack-"); err != nil {
		return nil, err
	}
	if err := s.start(o); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) start(o stackOpts) error {
	discard := slog.New(slog.NewTextHandler(io.Discard, nil)) // INFO, as shipped

	// aimqd: a ProbeCounter over the columnar engine, tracing ring on (its
	// -trace-ring default is 64), aimqd's server timeouts.
	s.local = webdb.NewLocal(o.rel)
	var inner webdb.Source = s.local
	if o.relearn {
		s.swap = webdb.NewSwap(s.local)
		inner = s.swap
	}
	s.probes = &webdb.ProbeCounter{Src: inner}
	var srcForServer webdb.Source = s.probes
	if s.tr != nil {
		srcForServer = &tracedSource{src: s.probes, t: s.tr, layer: layerEngine}
	}
	ws := webdb.NewServer(srcForServer)
	ws.EnableTracing(obs.NewRing(64))
	var wsh http.Handler = ws
	if s.tr != nil {
		wsh = s.tr.wrapHandler(layerServer, ws)
	}
	srcURL, err := s.serve(&http.Server{
		Handler:           wsh,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	})
	if err != nil {
		return err
	}
	start := time.Now()

	// aimq-serve -source: the default HTTP client, resilience middleware
	// with the shipped retry and breaker settings.
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if s.tr != nil {
		rt = &tracedRT{next: rt, t: s.tr}
	}
	client, err := webdb.NewClient(srcURL, &http.Client{Transport: rt})
	if err != nil {
		return err
	}
	s.res = webdb.NewResilient(client, webdb.ResilientConfig{
		Retry:   webdb.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond},
		Breaker: webdb.BreakerConfig{FailureThreshold: 5, OpenTimeout: 10 * time.Second},
	})
	var svcSrc webdb.Source = s.res
	if s.tr != nil {
		svcSrc = &tracedSource{src: s.res, t: s.tr, layer: layerClient}
		learnSrc := &tracedSource{src: s.res, t: s.tr, layer: layerClient}
		s.tr.timeSpan(layerLearn, 0, func(id uint64) {
			learnSrc.root.Store(id)
			s.model, err = service.BuildModel(learnSrc, learnConfig())
		})
	} else {
		s.model, err = service.BuildModel(s.res, learnConfig())
	}
	if err != nil {
		return fmt.Errorf("learn over HTTP: %w", err)
	}
	info := s.model.Info()

	cfg := service.Config{Engine: engineConfig(), Logger: discard}
	if o.relearn {
		s.audit, err = audit.NewWriter(audit.Config{
			Path:     filepath.Join(s.tmp, "audit.jsonl"),
			MaxBytes: 64 << 20,
			Header: audit.Header{
				Service:            version.Version,
				ModelFingerprint:   info.Fingerprint,
				ModelLearnedAtUnix: info.LearnedAtUnix,
				Engine: audit.EngineConfig{
					K: 10, Tsim: 0.5, MaxQueriesPerBase: 60, FailDegrade: true,
				},
			},
		})
		if err != nil {
			return fmt.Errorf("audit log: %w", err)
		}
		cfg.Audit = s.audit
	}
	s.svc = service.New(svcSrc, s.model.Est, &core.Guided{Ord: s.model.Ord}, cfg)
	s.svc.SetLearnStats(s.model.Stats)
	s.svc.SetModelInfo(info)
	if o.relearn {
		s.attachLifecycle(svcSrc, discard)
	}

	var h http.Handler = s.svc
	if s.tr != nil {
		h = s.tr.wrapHandler(layerService, s.svc)
	}
	// service.Listen's production timeouts.
	if s.base, err = s.serve(&http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      45 * time.Second,
		IdleTimeout:       120 * time.Second,
	}); err != nil {
		return err
	}
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("service /healthz: HTTP %d", resp.StatusCode)
	}
	s.setup = time.Since(start)
	return nil
}

// attachLifecycle wires the refresh controller the way aimq-serve does with
// -audit-log and -refresh-*: shadow validation against the audit log,
// persistence with generation keeping, probation. The benchmark drives
// RefreshOnce itself instead of running the controller's loop.
func (s *stack) attachLifecycle(src webdb.Source, logger *slog.Logger) {
	learnSrc := src
	if s.tr != nil {
		s.lcSource = &tracedSource{src: s.res, t: s.tr, layer: layerClient}
		learnSrc, src = s.lcSource, s.lcSource
	}
	learn := func() (*service.Model, error) {
		m, err := service.BuildModel(learnSrc, learnConfig())
		if err == nil {
			s.learnedMu.Lock()
			s.learned = append(s.learned, m)
			s.learnedMu.Unlock()
		}
		return m, err
	}
	if s.tr != nil {
		inner := learn
		learn = func() (m *service.Model, err error) {
			refresh := s.lcSource.root.Load()
			s.tr.timeSpan(layerLearn, refresh, func(id uint64) {
				s.lcSource.root.Store(id)
				m, err = inner()
				s.lcSource.root.Store(refresh)
			})
			return m, err
		}
	}
	s.lc = lifecycle.New(s.svc, src, learn, lifecycle.Config{
		Retry:             webdb.RetryPolicy{BaseDelay: 30 * time.Second, MaxDelay: 15 * time.Minute},
		ShadowSample:      64,
		MaxZeroRise:       0.25,
		MaxSimDrop:        0.10,
		AuditPath:         filepath.Join(s.tmp, "audit.jsonl"),
		Engine:            engineConfig(),
		ModelPath:         filepath.Join(s.tmp, "model.json"),
		Keep:              2,
		ProbationWindow:   200,
		ProbationZeroRate: 0.6,
		Logger:            logger,
	})
	s.lc.SetServing(s.model)
	s.svc.AttachLifecycle(s.lc)
}

func (s *stack) learnedModels() []*service.Model {
	s.learnedMu.Lock()
	defer s.learnedMu.Unlock()
	return append([]*service.Model(nil), s.learned...)
}

// refresh runs one RefreshOnce, inside a lifecycle.refresh span on trace
// runs.
func (s *stack) refresh(ctx context.Context) (err error) {
	if s.tr == nil {
		return s.lc.RefreshOnce(ctx, "data swap")
	}
	s.tr.timeSpan(layerRefresh, 0, func(id uint64) {
		s.lcSource.root.Store(id)
		err = s.lc.RefreshOnce(ctx, "data swap")
		s.lcSource.root.Store(0)
	})
	return err
}

// close stops every listener, waits for the serving goroutines, and
// removes the stack's temporary files.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := len(s.servers) - 1; i >= 0; i-- {
		if err := s.servers[i].Shutdown(ctx); err != nil {
			s.servers[i].Close()
		}
	}
	s.wg.Wait()
	if s.audit != nil {
		_ = s.audit.Close()
	}
	os.RemoveAll(s.tmp)
}
