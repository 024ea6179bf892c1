package main

import (
	"fmt"
	"math/rand"
	"time"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// The benchmark's database: a 20k-tuple CarDB from a fixed data seed. The
// workload seed drives the traffic (which queries, when, how popular), not
// the data, so every seed runs against the same source and the same model.
const (
	dataTuples = 20_000
	dataSeed   = 1
)

// workloadSpec fixes one traffic mix. The why of each choice is in
// README.md; the numbers are the benchmark's definition and change only
// with a new benchmark version.
type workloadSpec struct {
	name string
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// pool is the number of distinct queries traffic draws from, with Zipf
	// popularity; 0 means every request is a fresh query.
	pool int
	// warmup is how many untimed requests precede the measured window.
	warmup int
	// swapEvery, when set, swaps the source's data and drives a model
	// refresh at this period.
	swapEvery time.Duration
	// shapes are the query shapes the workload's queries take, in turn.
	shapes []shape
}

// shape renders a tuple as an imprecise query.
type shape func(*relation.Schema, relation.Tuple) string

// mixed alternates the paper's two shapes; fullyBound is the §6.3 shape
// alone, whose every query costs the same relaxation budget.
var (
	mixed      = []shape{modelPriceQuery, tupleQuery}
	fullyBound = []shape{tupleQuery}
)

const zipfS = 1.1

var workloads = []workloadSpec{
	{name: "cold-distinct", rate: 20, warmup: 20, shapes: mixed},
	{name: "zipf-mixed", rate: 100, pool: 5000, warmup: 400, shapes: mixed},
	// One shape: its cache refills and shadow replays cost the same every
	// cycle, so the tail measures the refresh beside serving, not which
	// expensive queries a cycle happened to miss.
	{name: "relearn-drift", rate: 40, pool: 64, swapEvery: 4 * time.Second, shapes: fullyBound},
}

// universe returns the first n queries of the workload's query set: the
// stream cold-distinct sends from, or the Zipf pool in popularity order.
// Like the data, it is fixed by the benchmark; the run seed drives the
// traffic over it (arrival times, send order, popularity draws). Seeds then
// differ in timing and order but not in what the queries cost, which keeps
// run-to-run spread down to the system's own noise.
func (w workloadSpec) universe(rel *relation.Relation, n int) []string {
	seed := int64(1000)
	for i, x := range workloads {
		if x.name == w.name {
			seed += int64(i)
		}
	}
	return newQueryGen(rel, seed, w.shapes).take(n)
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// queryGen draws distinct imprecise queries from the data, taking its
// shapes in turn: the §1 "Model like X, Price like Y" query and the §6.3
// fully-bound tuple query (every attribute a like constraint).
type queryGen struct {
	rel    *relation.Relation
	rng    *rand.Rand
	shapes []shape
	seen   map[string]bool
	n      int
}

func newQueryGen(rel *relation.Relation, seed int64, shapes []shape) *queryGen {
	return &queryGen{rel: rel, rng: rand.New(rand.NewSource(seed)), shapes: shapes, seen: map[string]bool{}}
}

// next returns a query text not returned before.
func (g *queryGen) next() string {
	for {
		t := g.rel.Tuple(g.rng.Intn(g.rel.Size()))
		q := g.shapes[g.n%len(g.shapes)](g.rel.Schema(), t)
		if g.seen[q] {
			continue
		}
		g.seen[q] = true
		g.n++
		return q
	}
}

func (g *queryGen) take(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func modelPriceQuery(sc *relation.Schema, t relation.Tuple) string {
	model, price := sc.MustIndex("Model"), sc.MustIndex("Price")
	return fmt.Sprintf("Model like %s, Price like %s",
		t[model].Render(sc.Type(model)), t[price].Render(sc.Type(price)))
}

func tupleQuery(sc *relation.Schema, t relation.Tuple) string {
	q := query.FromTuple(sc, t)
	for i := range q.Preds {
		q.Preds[i].Op = query.OpLike
	}
	return q.Text()
}

// arrival is one scheduled request: when it is due, relative to the start
// of the measured window, and which query it sends.
type arrival struct {
	due time.Duration
	q   string
}

// poissonTimes lays out an open-loop Poisson arrival process at rate per
// second over d.
func poissonTimes(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// zipfPicker draws from pool with Zipf(s) popularity: pool[0] is the most
// popular query.
func zipfPicker(rng *rand.Rand, pool []string) func() string {
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
	return func() string { return pool[z.Uint64()] }
}

// inputs is everything a run sends, made from the workload seed alone.
type inputs struct {
	warm     []string  // untimed warm-up queries, sent closed-loop
	schedule []arrival // the measured open-loop window
}

// makeInputs builds a run's traffic over the workload's query universe.
func makeInputs(w workloadSpec, rel *relation.Relation, seed int64, d time.Duration) inputs {
	rng := rand.New(rand.NewSource(seed))
	times := poissonTimes(rng, w.rate, d)
	var in inputs
	var pick func() string
	if w.pool == 0 {
		// Every query new: the warm-up and then the window's queries, the
		// latter in a seeded order. Shuffling whole pairs keeps the two
		// shapes alternating.
		qs := w.universe(rel, w.warmup+len(times))
		in.warm = qs[:w.warmup]
		body := qs[w.warmup:]
		rng.Shuffle(len(body)/2, func(i, j int) {
			body[2*i], body[2*j] = body[2*j], body[2*i]
			body[2*i+1], body[2*j+1] = body[2*j+1], body[2*i+1]
		})
		pick = func() string { q := body[0]; body = body[1:]; return q }
	} else {
		pool := w.universe(rel, w.pool)
		pick = zipfPicker(rng, pool)
		if w.warmup > 0 {
			// Untimed cache fill: the most popular queries, least popular
			// first, so the hottest end up most recently used.
			for i := min(w.warmup, len(pool)) - 1; i >= 0; i-- {
				in.warm = append(in.warm, pool[i])
			}
		} else {
			// A pool that fits the cache is filled whole.
			in.warm = append(in.warm, pool...)
		}
	}
	for _, t := range times {
		in.schedule = append(in.schedule, arrival{due: t, q: pick()})
	}
	return in
}
