// Package learn is AIMQ's offline phase, run as one staged pipeline: probe
// the autonomous source through spanning queries, cap the sample, mine
// AFDs and approximate keys with TANE, derive the Algorithm 2 relaxation
// order and importance weights, build the supertuple index and estimate
// categorical value similarity from it. Every caller — the public aimq.DB
// session, the answering service and the paper reproductions — learns its
// model here, so the same config always yields the same model.
package learn

import (
	"fmt"
	"math/rand"
	"time"

	"aimq/internal/afd"
	"aimq/internal/obs"
	"aimq/internal/probe"
	"aimq/internal/relation"
	"aimq/internal/similarity"
	"aimq/internal/supertuple"
	"aimq/internal/tane"
	"aimq/internal/webdb"
)

// Config tunes the offline phase. Zero values select the defaults.
type Config struct {
	Seed       int64              // probing/sampling seed (default 1)
	Pivot      string             // probing pivot attribute ("" = probe.PickPivot)
	Sample     *relation.Relation // pre-collected sample; skips the probe stage
	SampleSize int                // cap on the mined sample (0 = keep all)
	Terr       float64            // TANE g3 threshold (default 0.15)
	MaxLHS     int                // AFD antecedent bound (default min(arity-1, 3))
	Buckets    int                // numeric discretization buckets (default 10)
	MinSim     float64            // drop value similarities below this (default 0)
	// Workers sets the concurrent spanning probes, TANE level shards and
	// supertuple-build goroutines (default 1), and the similarity pair
	// sweep's goroutines (0 = GOMAXPROCS). The model is bit-identical at
	// any setting.
	Workers int
}

// withDefaults fills the zero-valued fields that have a non-zero default.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Terr == 0 {
		c.Terr = 0.15
	}
	if c.Buckets == 0 {
		c.Buckets = 10
	}
	return c
}

// Result holds every stage's output.
type Result struct {
	Sample *relation.Relation // the mined sample, after the cap
	Mined  *tane.Result
	Ord    *afd.Ordering
	Index  *supertuple.Index
	Est    *similarity.Estimator
	// Stats profiles the run; Stages holds probe (when it ran), sample,
	// mine, order, supertuple and simest.
	Stats *obs.LearnStats
}

// Stage returns how long the named stage took (0 when it did not run).
func (r *Result) Stage(name string) time.Duration {
	for _, s := range r.Stats.Stages {
		if s.Name == name {
			return time.Duration(s.DurMs * 1e6)
		}
	}
	return 0
}

// Run learns a model from src, which only the probe stage reads (it may be
// nil when cfg.Sample is set). The collector and the sample cap draw from
// one rand.Rand seeded with cfg.Seed, collector first, so a given config
// always yields the same model.
func Run(src webdb.Source, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	stats := &obs.LearnStats{MineWorkers: max(cfg.Workers, 1)}
	stage := func(name string, begin time.Time) {
		stats.Stages = append(stats.Stages, obs.Span{
			Name:    name,
			StartMs: float64(begin.Sub(start).Nanoseconds()) / 1e6,
			DurMs:   float64(time.Since(begin).Nanoseconds()) / 1e6,
		})
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sample := cfg.Sample
	if sample == nil {
		begin := time.Now()
		pivot := cfg.Pivot
		if pivot == "" {
			p, err := probe.PickPivot(src)
			if err != nil {
				return nil, err
			}
			pivot = p
		}
		collector := probe.New(src, rng)
		collector.Parallelism = cfg.Workers
		probed, err := collector.Collect(pivot)
		if err != nil {
			return nil, fmt.Errorf("learn: probing failed: %w", err)
		}
		stage("probe", begin)
		stats.Pivot = collector.Stats.Pivot
		stats.SeedTuples = collector.Stats.SeedTuples
		stats.SpanningQueries = collector.Stats.SpanningQueries
		stats.ProbeFailures = collector.Stats.Failures
		stats.ProbedTuples = collector.Stats.ProbedTuples
		sample = probed
	}

	begin := time.Now()
	if cfg.SampleSize > 0 && sample.Size() > cfg.SampleSize {
		sample = sample.Sample(cfg.SampleSize, rng)
	}
	stage("sample", begin)
	stats.SampleSize = sample.Size()

	begin = time.Now()
	mined := tane.Miner{Terr: cfg.Terr, MaxLHS: cfg.MaxLHS, Workers: cfg.Workers}.Mine(sample)
	stage("mine", begin)
	stats.AFDs = len(mined.AFDs)
	stats.AKeys = len(mined.AKeys)
	stats.LatticeLevels = mined.LevelsVisited
	stats.SetsExamined = mined.SetsExamined
	stats.ProductsComputed = mined.ProductsComputed
	stats.PartitionCacheHits = mined.PartitionCacheHits
	stats.PeakPartitionBytes = mined.PeakPartitionBytes

	begin = time.Now()
	ord, err := afd.Order(mined)
	if err != nil {
		return nil, fmt.Errorf("learn: %w (raise Terr or enlarge the sample)", err)
	}
	stage("order", begin)

	begin = time.Now()
	idx := supertuple.Builder{Buckets: cfg.Buckets, Workers: cfg.Workers}.Build(sample)
	stage("supertuple", begin)

	begin = time.Now()
	est := similarity.New(idx, ord, similarity.Config{MinSim: cfg.MinSim, SweepWorkers: cfg.Workers})
	stage("simest", begin)
	stats.TotalMs = float64(time.Since(start).Nanoseconds()) / 1e6

	return &Result{Sample: sample, Mined: mined, Ord: ord, Index: idx, Est: est, Stats: stats}, nil
}
