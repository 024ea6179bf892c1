package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"aimq/internal/datagen"
)

// A stalled handler must raise the latency of every request queued behind
// it: the open-loop generator times each request from when it was due, not
// from when a connection freed up.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond)
		}
		w.Write([]byte(`{"answers":[]}`))
	}))
	defer srv.Close()
	g := newGenerator(srv.URL, 1)
	defer g.close()
	var sched []arrival
	for i := 0; i < 5; i++ {
		sched = append(sched, arrival{due: time.Duration(i) * 50 * time.Millisecond, q: "Make like Ford"})
	}
	outs := g.runOpen(context.Background(), sched)
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		// Every request waits for the stalled first one to finish at ~300ms.
		if want := 300*time.Millisecond - o.due; o.latency() < want-20*time.Millisecond {
			t.Errorf("request %d due at %v: latency %v, want at least ~%v", i, o.due, o.latency(), want)
		}
		if o.lag() > 50*time.Millisecond {
			t.Errorf("request %d dispatched %v late; the dispatcher must not wait for responses", i, o.lag())
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, ok := percentile(xs(999), 0.99); ok {
		t.Error("p99 reported from 999 samples")
	}
	if v, ok := percentile(xs(1000), 0.99); !ok || v < 990 || v > 991 {
		t.Errorf("p99 of 1..1000 = %v, %v; want ~990.01", v, ok)
	}
	if _, ok := percentile(xs(199), 0.95); ok {
		t.Error("p95 reported from 199 samples")
	}
	if v, ok := percentile(xs(21), 0.5); !ok || v != 11 {
		t.Errorf("median of 1..21 = %v, %v", v, ok)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 30},
		{id: 3, parent: 1, start: 20, end: 50},  // overlaps 2: the union counts once
		{id: 4, parent: 1, start: 90, end: 120}, // runs past its parent: clipped
		{id: 5, parent: 3, start: 25, end: 35},
	}
	got := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	rel := datagen.GenerateCarDB(dataTuples, dataSeed).Rel
	for _, w := range workloads {
		a := makeInputs(w, rel, 7, 5*time.Second)
		b := makeInputs(w, rel, 7, 5*time.Second)
		c := makeInputs(w, rel, 8, 5*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different inputs", w.name)
		}
		if reflect.DeepEqual(a.schedule, c.schedule) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", w.name)
		}
	}
}

func TestPoissonRateAndZipfSkew(t *testing.T) {
	times := poissonTimes(rand.New(rand.NewSource(1)), 100, 100*time.Second)
	if n := len(times); n < 9500 || n > 10500 {
		t.Errorf("100 rps over 100s gave %d arrivals", n)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("arrivals out of order")
		}
	}
	pool := make([]string, 5000)
	for i := range pool {
		pool[i] = strconv.Itoa(i)
	}
	counts := map[int]int{}
	pick := zipfPicker(rand.New(rand.NewSource(1)), pool)
	for i := 0; i < 20000; i++ {
		n, _ := strconv.Atoi(pick())
		counts[n]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Errorf("Zipf popularity not decreasing: %d, %d, %d", counts[0], counts[1], counts[10])
	}
}

func TestDigestIgnoresOrderAndSimNoise(t *testing.T) {
	a := []answerRow{{Values: []string{"Ford", "Focus"}, Sim: 0.75}, {Values: []string{"Honda", "Civic"}, Sim: 0.5}}
	b := []answerRow{{Values: []string{"Honda", "Civic"}, Sim: 0.5 + 1e-12}, {Values: []string{"Ford", "Focus"}, Sim: 0.75}}
	if digestRows(a) != digestRows(b) {
		t.Error("digest depends on row order or sub-1e-9 Sim noise")
	}
	b[0].Sim = 0.51
	if digestRows(a) == digestRows(b) {
		t.Error("digest ignores a Sim change")
	}
}

// One traced request through a real stack leaves a span at every layer
// boundary, all carrying the generator's request ID.
func TestTracedRequestSpansEveryLayer(t *testing.T) {
	rel := datagen.GenerateCarDB(2000, dataSeed).Rel
	tr := newTracer()
	st, err := startStack(stackOpts{rel: rel, tr: tr, tmpRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	tr.reset()
	g := newGenerator(st.base, 1)
	defer g.close()
	g.phase = "test"
	for g.traceSeed = 1; ; g.traceSeed++ {
		if _, traced := g.requestID(0); traced {
			break
		}
	}
	outs := g.runOpen(context.Background(), []arrival{{q: newQueryGen(rel, 1, mixed).next()}})
	if outs[0].err != nil {
		t.Fatal(outs[0].err)
	}
	seen := map[layer]int{}
	for _, s := range tr.snapshot() {
		if s.req != outs[0].reqID {
			t.Errorf("%s span carries request ID %q, want %q", s.layer, s.req, outs[0].reqID)
		}
		seen[s.layer]++
	}
	for _, l := range []layer{layerService, layerClient, layerRT, layerServer, layerEngine} {
		if seen[l] == 0 {
			t.Errorf("no %s span", l)
		}
	}
	if seen[layerService] != 1 || seen[layerRT] != seen[layerServer] || seen[layerServer] != seen[layerEngine] {
		t.Errorf("span counts %v: want one service span, and one server and engine span per round trip", seen)
	}
}
