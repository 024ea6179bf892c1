package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"aimq/internal/core"
	"aimq/internal/metrics"
	"aimq/internal/relation"
	"aimq/internal/rock"
	"aimq/internal/webdb"
)

// Fig9Result reproduces Figure 9 (classification accuracy over CensusDB):
// held-out census tuples are posed as fully-bound imprecise queries; AIMQ
// (GuidedRelax) and ROCK each return their top answers with similarity
// above CensusTsim from the pre-classified training sample; accuracy@k is
// the fraction of answers sharing the query tuple's income class. Expected
// shape: AIMQ beats ROCK at every k, and accuracy rises as k falls.
type Fig9Result struct {
	Queries int
	Ks      []int
	// Accuracy maps system name → accuracy per k (aligned with Ks).
	Accuracy map[string][]float64
}

// RunFig9 runs the census classification experiment.
func RunFig9(l *Lab) (*Fig9Result, error) {
	census := l.Census()
	pipe, err := l.CensusPipeline()
	if err != nil {
		return nil, err
	}

	// Class lookup by tuple identity: samples share tuple storage with the
	// generated relation, so the first value's address identifies a tuple.
	classOf := make(map[*relation.Value]string, census.Rel.Size())
	for i, t := range census.Rel.Tuples() {
		classOf[&t[0]] = census.Class[i]
	}
	inTrain := make(map[*relation.Value]bool, pipe.Sample.Size())
	for _, t := range pipe.Sample.Tuples() {
		inTrain[&t[0]] = true
	}

	// Queries are held out of the *learning* sample (the paper: "1000
	// tuples not appearing in the 15k sample") but, as in the paper, both
	// systems answer from the full pre-classified database.
	rng := rand.New(rand.NewSource(l.P.Seed + 91))
	var queries []relation.Tuple
	for _, i := range rng.Perm(census.Rel.Size()) {
		t := census.Rel.Tuple(i)
		if inTrain[&t[0]] {
			continue
		}
		queries = append(queries, t)
		if len(queries) == l.P.CensusQueries {
			break
		}
	}

	maxK := 0
	for _, k := range l.P.CensusKs {
		if k > maxK {
			maxK = k
		}
	}

	src := webdb.NewLocal(census.Rel)
	// K leaves headroom beyond maxK so the engine's top-k truncation does
	// not discard early-discovered answers: the paper takes "the first 10
	// tuples that had similarity above 0.4" — extraction order, which under
	// GuidedRelax is most-conservative-first.
	aimq := core.New(src, pipe.Est, &core.Guided{Ord: pipe.Ord}, core.Config{
		Tsim:              l.P.CensusTsim,
		K:                 maxK + 16,
		BaseLimit:         5,
		TargetRelevant:    maxK,
		MaxQueriesPerBase: l.P.MaxQueriesPerBase,
	})

	clustering, err := rock.Cluster(census.Rel, rock.Config{
		Theta: l.P.Theta, SampleSize: l.P.RockCensusSample, Seed: l.P.Seed + 92,
	})
	if err != nil {
		return nil, fmt.Errorf("fig9 rock: %w", err)
	}
	rockAns := &rock.Answerer{C: clustering, K: maxK, Tsim: l.P.CensusTsim}

	out := &Fig9Result{Queries: len(queries), Ks: l.P.CensusKs, Accuracy: map[string][]float64{}}
	sc := census.Rel.Schema()

	accum := map[string][][]float64{} // system → [kIdx] → accuracies
	record := func(name string, queryClass string, answers []core.Answer) {
		classes := make([]string, 0, len(answers))
		for _, a := range answers {
			classes = append(classes, classOf[&a.Tuple[0]])
		}
		for ki, k := range l.P.CensusKs {
			if accum[name] == nil {
				accum[name] = make([][]float64, len(l.P.CensusKs))
			}
			accum[name][ki] = append(accum[name][ki], metrics.AccuracyAtK(queryClass, classes, k))
		}
	}

	for _, t := range queries {
		qc := classOf[&t[0]]
		q := likeQuery(sc, t)
		res, err := aimq.Answer(q)
		if err != nil {
			return nil, fmt.Errorf("fig9 aimq: %w", err)
		}
		// First-k in extraction order (paper §6.5), capped at maxK.
		answers := append([]core.Answer(nil), res.Answers...)
		sort.Slice(answers, func(i, j int) bool { return answers[i].Seq < answers[j].Seq })
		if len(answers) > maxK {
			answers = answers[:maxK]
		}
		record("AIMQ", qc, answers)

		rres, err := rockAns.Answer(q)
		if err != nil {
			return nil, fmt.Errorf("fig9 rock answer: %w", err)
		}
		record("ROCK", qc, rres.Answers)
	}
	for name, perK := range accum {
		accs := make([]float64, len(l.P.CensusKs))
		for ki := range l.P.CensusKs {
			accs[ki] = metrics.Mean(perK[ki])
		}
		out.Accuracy[name] = accs
	}
	return out, nil
}

// Render prints accuracy per k for both systems.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: Classification Accuracy over CensusDB (%d queries)\n", r.Queries)
	fmt.Fprintf(&b, "%-8s", "System")
	for _, k := range r.Ks {
		fmt.Fprintf(&b, " top-%-4d", k)
	}
	b.WriteString("\n")
	for _, name := range []string{"AIMQ", "ROCK"} {
		fmt.Fprintf(&b, "%-8s", name)
		for _, a := range r.Accuracy[name] {
			fmt.Fprintf(&b, " %8.3f", a)
		}
		b.WriteString("\n")
	}
	return b.String()
}
