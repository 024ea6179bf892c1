package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"aimq/internal/audit"
	"aimq/internal/datagen"
	"aimq/internal/engine"
	"aimq/internal/relation"
	"aimq/internal/service"
	"aimq/internal/webdb"
)

// connsPerCPU sizes the generator's connection pool. With one connection
// per CPU the pool itself became the bottleneck: at the workloads' rates a
// hit often waited behind two in-flight misses, and the tail percentiles
// measured that queue (their spread across seeds was 0.3–0.4 of the median)
// rather than the service.
const connsPerCPU = 4

// sloLimit is the latency a request must meet, with correct answers, to
// count toward slo_attain.
const sloLimit = 250 * time.Millisecond

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured. The last stdout line carries only
// four keys (correct, attempted, failed, metrics); the full result goes to
// the results directory.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Mismatch  int               `json:"mismatched"`
	Samples   int               `json:"latency_samples"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

type runOpts struct {
	w       workloadSpec
	seed    int64
	seconds int
	trace   bool
	host    host
}

// perturbation is the drifted copy of the data relearn-drift swaps in:
// prices 10% up and a fifth of the listings without a color. Price scaling
// alone leaves the learned model unchanged; the missing colors change it,
// while every query keeps answers.
var perturbation = datagen.Perturbation{
	ScaleNumeric: map[string]float64{"Price": 1.1},
	NullRate:     map[string]float64{"Color": 0.2},
}

// counters are the program's public counters, read before and after the
// measured window.
type counters struct {
	engine  engine.Snapshot
	probes  int64
	misses  int64
	retries int64
	audit   audit.Stats
	refresh service.RefreshStats
	mallocs uint64
	gcs     uint32
	gcPause uint64
}

func readCounters(st *stack, locals []*webdb.Local) counters {
	var c counters
	for _, l := range locals {
		s := l.Engine().Stats().Snapshot()
		c.engine.Queries += s.Queries
		c.engine.TuplesReturned += s.TuplesReturned
		c.engine.TuplesScanned += s.TuplesScanned
		c.engine.BusyNanos += s.BusyNanos
		c.engine.ChunksVisited += s.ChunksVisited
	}
	c.probes = st.probes.Queries()
	_, c.misses, _ = st.svc.Metrics()
	c.retries = st.res.Stats().Retries
	c.audit = st.svc.AuditStats()
	if st.lc != nil {
		c.refresh = st.lc.RefreshStats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcs, c.gcPause = ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	return c
}

// heapPeak samples the live heap — the bytes the last GC found reachable,
// which unlike the allocated heap does not depend on where a GC cycle
// happens to be — until stop is closed, and returns the largest value seen.
func heapPeak(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peak := 0.0
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, float64(s[0].Value.Uint64()))
			select {
			case <-stop:
				out <- peak
				return
			case <-t.C:
			}
		}
	}()
	return out
}

// swapLog records relearn-drift's data swaps and refresh cycles.
type swapLog struct {
	refreshS []float64
	errs     []string
}

// swapLoop swaps the source's data at every/2 and then every period, and
// drives one model refresh after each swap. Swaps stop settle before the end
// of the window, so every refresh and the cache refill after it fall inside
// the window and each run sees the same number of cycles. A swap holds gate
// exclusively: it happens between requests, and no answer mixes two
// datasets.
func swapLoop(ctx context.Context, st *stack, gate *sync.RWMutex, data [2]webdb.Source, every, window time.Duration, log *swapLog) {
	const settle = 6 * time.Second
	start := time.Now()
	for k := 1; ; k++ {
		at := time.Duration(k)*every - every/2
		if at > window-settle {
			return
		}
		t := time.NewTimer(time.Until(start.Add(at)))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		gate.Lock()
		st.swap.Set(data[k%2])
		gate.Unlock()
		t0 := time.Now()
		if err := st.refresh(ctx); err != nil && ctx.Err() == nil {
			log.errs = append(log.errs, err.Error())
		}
		log.refreshS = append(log.refreshS, time.Since(t0).Seconds())
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runWorkload performs one benchmark run: set up the stack several times,
// warm it, drive the measured open-loop window, then check every answer.
func runWorkload(o runOpts) (*result, error) {
	t0 := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "%s: %s done at %.1fs\n", o.w.name, name, time.Since(t0).Seconds())
	}
	r := &result{Workload: o.w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: o.host, Correct: true}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	car := datagen.GenerateCarDB(dataTuples, dataSeed).Rel
	relearn := o.w.swapEvery > 0
	var perturbed *relation.Relation
	if relearn {
		perturbed = datagen.Perturb(car, perturbation)
	}
	in := makeInputs(o.w, car, o.seed, time.Duration(o.seconds)*time.Second)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var (
		st     *stack
		setupS []float64
		learn  = map[string][]float64{}
	)
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC() // every set-up starts from the same heap state
		if tr != nil {
			tr.reset()
		}
		if st, err = startStack(stackOpts{rel: car, tr: tr, relearn: relearn, tmpRoot: outDir}); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, st.setup.Seconds())
		if fp := st.model.Info().Fingerprint; fp != g.Fingerprints["cardb"] {
			r.fail("model fingerprint %s, golden %s", fp, g.Fingerprints["cardb"])
		}
		if tr != nil {
			learnMetrics(tr.snapshot(), st.model.Stats, learn)
		}
	}
	defer st.close()
	phase("setup")

	// Reference answers come from core over a local engine of its own, so
	// the checks add nothing to the served engine's counters.
	ref := newReferee()
	pairs := []pair{{model: st.model, src: webdb.NewLocal(car)}}
	bad, err := checkGolden(g, o.w, ref, pairs, car)
	if err != nil {
		return nil, err
	}
	goldenBad := map[string]bool{}
	for _, q := range bad {
		goldenBad[q] = true
	}
	if len(bad) > 0 {
		r.fail("%d of %d golden answers differ from golden.json (first: %q)", len(bad), goldenCount, bad[0])
	}

	locals := []*webdb.Local{st.local}
	var data [2]webdb.Source
	if relearn {
		other := webdb.NewLocal(perturbed)
		other.Engine().Store() // aimqd holds both datasets built, as a swap would
		locals = append(locals, other)
		data = [2]webdb.Source{st.local, other}
	}

	gen := newGenerator(st.base, connsPerCPU*runtime.NumCPU())
	defer gen.close()
	gen.phase = o.w.name
	ctx := context.Background()
	for _, w := range gen.runClosed(ctx, in.warm) {
		if w.err != nil {
			return nil, fmt.Errorf("warm-up %q: %w", w.q, w.err)
		}
	}

	phase("warm-up")
	if tr != nil {
		tr.reset()
		gen.traceSeed = uint64(o.seed) | 1<<32
	}
	before := readCounters(st, locals)
	stopHeap := make(chan struct{})
	peak := heapPeak(stopHeap)
	var (
		swaps   swapLog
		swapWG  sync.WaitGroup
		swapCtx context.Context
		cancel  = func() {}
	)
	if relearn {
		gen.gate = &sync.RWMutex{}
		swapCtx, cancel = context.WithCancel(ctx)
		swapWG.Add(1)
		go func() {
			defer swapWG.Done()
			swapLoop(swapCtx, st, gen.gate, data, o.w.swapEvery, time.Duration(o.seconds)*time.Second, &swaps)
		}()
	}
	cpu0 := cpuTime()
	outs := gen.runOpen(ctx, in.schedule)
	cpu := cpuTime() - cpu0
	after := readCounters(st, locals)
	close(stopHeap)
	heap := <-peak
	cancel()
	swapWG.Wait()
	phase("measured window")

	if relearn {
		models := []*service.Model{st.model}
		for _, m := range st.learnedModels() {
			fp := m.Info().Fingerprint
			if fp != g.Fingerprints["cardb"] && fp != g.Fingerprints["perturbed"] {
				r.fail("re-learned model fingerprint %s matches no golden fingerprint", fp)
			}
			if fp != g.Fingerprints["cardb"] && len(models) == 1 {
				models = append(models, m)
			}
		}
		refA, refB := webdb.NewLocal(car), webdb.NewLocal(perturbed)
		pairs = []pair{{models[0], refA}}
		if len(models) > 1 {
			pairs = append(pairs, pair{models[1], refB}, pair{models[1], refA})
		}
		pairs = append(pairs, pair{models[0], refB})
		for _, e := range swaps.errs {
			r.Notes = append(r.Notes, "refresh: "+e)
		}
	}
	mismatch := make([]bool, len(outs))
	if err := ref.verify(pairs, outs, mismatch); err != nil {
		return nil, err
	}
	for i := range outs {
		if outs[i].answered && goldenBad[outs[i].q] {
			mismatch[i] = true
		}
	}

	phase("answer check")
	if err := writeRequests(filepath.Join(outDir, "requests-"+o.w.name+".csv"), outs, mismatch); err != nil {
		return nil, err
	}
	e2e := endToEnd(r, outs, mismatch)
	e2e["setup_s"] = metric{median(setupS), "s"}
	ok := float64(r.Attempted - r.Failed)
	e2e["cpu_ms_per_req"] = metric{ratio(ms(cpu), ok), "ms"}
	e2e["source_q_per_req"] = metric{ratio(float64(after.probes-before.probes), float64(r.Attempted)), "count"}
	e2e["heap_peak_mb"] = metric{heap / (1 << 20), "MB"}
	r.EndToEnd = e2e
	if r.Mismatch > 0 {
		r.fail("%d answers differ from the reference", r.Mismatch)
	}

	if tr != nil {
		spans := tr.snapshot()
		if err := writeSpans(filepath.Join(outDir, "spans-"+o.w.name+".csv"), spans); err != nil {
			return nil, err
		}
		pl := layerMetrics(spans, outs, mismatch)
		for k, v := range learn {
			pl[k] = median(v)
		}
		counterMetrics(pl, before, after, r)
		if relearn {
			pl["lifecycle.refresh_s"] = mean(swaps.refreshS)
			promos := float64(after.refresh.Promoted - before.refresh.Promoted)
			pl["lifecycle.promotions"] = promos
			pl["lifecycle.rejections"] = float64(after.refresh.Rejected - before.refresh.Rejected)
			pl["service.misses_per_swap"] = ratio(float64(after.misses-before.misses), promos)
			pl["audit.written"] = float64(after.audit.Written - before.audit.Written)
			pl["audit.dropped"] = float64(after.audit.Dropped - before.audit.Dropped)
		}
		r.PerLayer = withUnits(pl)
	}
	return r, nil
}

// endToEnd computes the latency and answer metrics over the measured
// window. A request succeeds when it came back 200 with the reference
// answers; latency percentiles are over successes, slo_attain over every
// request sent.
func endToEnd(r *result, outs []outcome, mismatch []bool) map[string]metric {
	var (
		lat                  []float64
		slo                  int
		extracted, qualified float64
	)
	r.Attempted = len(outs)
	for i := range outs {
		o := &outs[i]
		if mismatch[i] {
			r.Mismatch++
		}
		if !o.answered || mismatch[i] {
			r.Failed++
			continue
		}
		lat = append(lat, ms(o.latency()))
		if o.latency() <= sloLimit {
			slo++
		}
		if !o.body.Cached && !o.body.Shared {
			extracted += float64(o.body.Work.TuplesExtracted)
			qualified += float64(o.body.Work.TuplesQualified)
		}
	}
	r.Samples = len(lat)
	m := map[string]metric{
		"slo_attain":        {ratio(float64(slo), float64(r.Attempted)), "ratio"},
		"work_per_relevant": {ratio(extracted, qualified), "ratio"},
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p95_ms", 0.95}, {"p99_ms", 0.99}} {
		if v, ok := percentile(lat, p.q); ok {
			m[p.name] = metric{v, "ms"}
		}
	}
	return m
}

// writeRequests dumps one line per measured request, so a percentile can be
// traced back to the requests (and, by request ID, the spans) behind it.
func writeRequests(path string, outs []outcome, mismatch []bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "request_id,due_ms,lag_ms,latency_ms,status,cached,shared,mismatch,queries_issued,query")
	for i, o := range outs {
		fmt.Fprintf(w, "%s,%.3f,%.3f,%.3f,%d,%t,%t,%t,%d,%q\n", o.reqID, ms(o.due), ms(o.lag()), ms(o.latency()),
			o.status, o.body.Cached, o.body.Shared, mismatch[i], o.body.Work.QueriesIssued, o.q)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
