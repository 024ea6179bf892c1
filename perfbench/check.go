package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"aimq/internal/core"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/service"
	"aimq/internal/webdb"
)

// digestRows fingerprints an answer set: rows sorted by their rendered
// values, each with its Sim rounded to 1e-9, hashed with FNV-64a. Ranking
// order and float noise below 1e-9 do not change the digest.
func digestRows(rows []answerRow) uint64 {
	sorted := slices.Clone(rows)
	sort.Slice(sorted, func(i, j int) bool {
		if c := slices.Compare(sorted[i].Values, sorted[j].Values); c != 0 {
			return c < 0
		}
		return sorted[i].Sim < sorted[j].Sim
	})
	h := fnv.New64a()
	for _, r := range sorted {
		for _, v := range r.Values {
			h.Write([]byte(v))
			h.Write([]byte{0x1f})
		}
		h.Write([]byte(strconv.FormatFloat(math.Round(r.Sim*1e9)/1e9, 'f', 9, 64)))
		h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

func hexDigest(d uint64) string { return fmt.Sprintf("%016x", d) }

// pair is one (model, data) combination that served answers during a run.
type pair struct {
	model *service.Model
	src   webdb.Source
}

// referee computes reference answers in process — core over a local engine,
// no HTTP, no cache — and memoizes their digests per (query, pair).
type referee struct {
	mu   sync.Mutex
	memo map[refKey]uint64
}

type refKey struct {
	q    string
	pair int
}

func newReferee() *referee { return &referee{memo: map[refKey]uint64{}} }

// reference answers q under p, as the service would with its shipped
// engine configuration.
func reference(p pair, q string) (uint64, error) {
	sc := p.src.Schema()
	pq, err := query.Parse(sc, q)
	if err != nil {
		return 0, err
	}
	res, err := core.New(p.src, p.model.Est, &core.Guided{Ord: p.model.Ord}, engineConfig()).Answer(pq)
	if err != nil {
		return 0, fmt.Errorf("reference answer for %q: %w", q, err)
	}
	return digestRows(renderAnswers(sc, res.Answers)), nil
}

func renderAnswers(sc *relation.Schema, answers []core.Answer) []answerRow {
	rows := make([]answerRow, len(answers))
	for i, a := range answers {
		rows[i] = answerRow{Sim: a.Sim, Values: make([]string, len(a.Tuple))}
		for j, v := range a.Tuple {
			rows[i].Values[j] = v.Render(sc.Type(j))
		}
	}
	return rows
}

// digests returns the reference digest of every query under pairs[pi],
// computing the missing ones on all CPUs.
func (r *referee) digests(pairs []pair, pi int, qs []string) (map[string]uint64, error) {
	out := make(map[string]uint64, len(qs))
	var todo []string
	r.mu.Lock()
	for _, q := range qs {
		if d, ok := r.memo[refKey{q, pi}]; ok {
			out[q] = d
		} else if _, dup := out[q]; !dup {
			out[q] = 0
			todo = append(todo, q)
		}
	}
	r.mu.Unlock()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
		next    = make(chan string)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				d, err := reference(pairs[pi], q)
				mu.Lock()
				if err != nil && firstEr == nil {
					firstEr = err
				}
				out[q] = d
				mu.Unlock()
			}
		}()
	}
	for _, q := range todo {
		next <- q
	}
	close(next)
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	r.mu.Lock()
	for _, q := range todo {
		r.memo[refKey{q, pi}] = out[q]
	}
	r.mu.Unlock()
	return out, nil
}

// verify marks every answered outcome whose digest matches the reference of
// no live pair as a mismatch, trying pairs in order and computing a pair's
// references only for the answers earlier pairs did not explain.
func (r *referee) verify(pairs []pair, outs []outcome, mismatch []bool) error {
	matched := make([]bool, len(outs))
	for pi := range pairs {
		var qs []string
		for i := range outs {
			if outs[i].answered && !matched[i] {
				qs = append(qs, outs[i].q)
			}
		}
		if len(qs) == 0 {
			break
		}
		ref, err := r.digests(pairs, pi, qs)
		if err != nil {
			return err
		}
		for i := range outs {
			if outs[i].answered && !matched[i] && ref[outs[i].q] == outs[i].digest {
				matched[i] = true
			}
		}
	}
	for i := range outs {
		if outs[i].answered && !matched[i] {
			mismatch[i] = true
		}
	}
	return nil
}

// golden holds answer digests and model fingerprints recorded from an
// earlier commit; a run checks its reference answers against them.
type golden struct {
	// Fingerprints of the model learned over HTTP from each dataset.
	Fingerprints map[string]string `json:"fingerprints"`
	// Answers holds, per workload, the digests of the first goldenCount
	// queries of its universe (the most popular ones for Zipf workloads).
	// The universe does not depend on the run seed, so they hold for every
	// seed.
	Answers map[string][]string `json:"answers"`
}

const (
	goldenCount = 32
	goldenPath  = "perfbench/golden.json"
)

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// checkGolden compares the reference digests of the workload's golden
// queries with golden.json and returns the queries that differ.
func checkGolden(g *golden, w workloadSpec, ref *referee, pairs []pair, rel *relation.Relation) ([]string, error) {
	qs := w.universe(rel, goldenCount)
	d, err := ref.digests(pairs, 0, qs)
	if err != nil {
		return nil, err
	}
	want := g.Answers[w.name]
	var bad []string
	for i, q := range qs {
		if i >= len(want) || hexDigest(d[q]) != want[i] {
			bad = append(bad, q)
		}
	}
	return bad, nil
}

// writeGolden records the fingerprints of the models learned over HTTP from
// both datasets and the golden answers of every workload.
func writeGolden(rel, perturbed *relation.Relation, tmpRoot string) error {
	g := golden{Fingerprints: map[string]string{}, Answers: map[string][]string{}}
	var models []*service.Model
	for _, d := range []struct {
		name string
		rel  *relation.Relation
	}{{"cardb", rel}, {"perturbed", perturbed}} {
		st, err := startStack(stackOpts{rel: d.rel, tmpRoot: tmpRoot})
		if err != nil {
			return err
		}
		g.Fingerprints[d.name] = st.model.Info().Fingerprint
		models = append(models, st.model)
		st.close()
	}
	pairs := []pair{{model: models[0], src: webdb.NewLocal(rel)}}
	ref := newReferee()
	for _, w := range workloads {
		qs := w.universe(rel, goldenCount)
		d, err := ref.digests(pairs, 0, qs)
		if err != nil {
			return err
		}
		for _, q := range qs {
			g.Answers[w.name] = append(g.Answers[w.name], hexDigest(d[q]))
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
