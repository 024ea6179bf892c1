package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"aimq/internal/core"
	"aimq/internal/learn"
	"aimq/internal/metrics"
	"aimq/internal/query"
	"aimq/internal/relation"
	"aimq/internal/webdb"
)

// EfficiencyResult reproduces Figures 6 and 7: the Work/RelevantTuple cost
// of extracting EffNeeded relevant tuples for a set of random tuple
// queries, swept over similarity thresholds, for one relaxation strategy.
// The paper's claim: GuidedRelax stays around ~4 tuples per relevant tuple
// at every threshold, while RandomRelax blows up into the hundreds at high
// thresholds.
type EfficiencyResult struct {
	Strategy   string
	Thresholds []float64
	// Work[qi][ti] = Work/RelevantTuple for query qi at threshold ti.
	Work [][]float64
	// Avg[ti] is the mean over queries at threshold ti.
	Avg []float64
}

// RunFig6 measures GuidedRelax efficiency.
func RunFig6(l *Lab) (*EfficiencyResult, error) {
	pipe, err := l.CarPipeline(l.P.StudySample)
	if err != nil {
		return nil, err
	}
	relaxer := &core.Guided{Ord: pipe.Ord}
	return runEfficiency(l, pipe, relaxer)
}

// RunFig7 measures RandomRelax efficiency.
func RunFig7(l *Lab) (*EfficiencyResult, error) {
	pipe, err := l.CarPipeline(l.P.StudySample)
	if err != nil {
		return nil, err
	}
	relaxer := &core.Random{Rng: rand.New(rand.NewSource(l.P.Seed + 61))}
	return runEfficiency(l, pipe, relaxer)
}

func runEfficiency(l *Lab, pipe *learn.Result, relaxer core.Relaxer) (*EfficiencyResult, error) {
	car := l.Car()
	src := webdb.NewLocal(car.Rel)
	out := &EfficiencyResult{Strategy: relaxer.Name(), Thresholds: l.P.EffThresholds}

	rng := rand.New(rand.NewSource(l.P.Seed + 62))
	queryTuples := car.Rel.Sample(l.P.EffQueries, rng).Tuples()

	for _, t := range queryTuples {
		row := make([]float64, 0, len(out.Thresholds))
		for _, tsim := range out.Thresholds {
			eng := core.New(src, pipe.Est, relaxer, core.Config{
				Tsim:           tsim,
				K:              l.P.EffNeeded,
				BaseLimit:      1,
				PerQueryLimit:  1000, // generous page size: Work counts what the user would wade through
				TargetRelevant: l.P.EffNeeded,
			})
			q := likeQuery(car.Rel.Schema(), t)
			res, err := eng.Answer(q)
			if err != nil {
				return nil, fmt.Errorf("efficiency (%s, Tsim=%.1f): %w", relaxer.Name(), tsim, err)
			}
			row = append(row, metrics.WorkPerRelevant(res.Work.TuplesExtracted, res.Work.TuplesQualified))
		}
		out.Work = append(out.Work, row)
	}
	for ti := range out.Thresholds {
		col := make([]float64, 0, len(out.Work))
		for qi := range out.Work {
			col = append(col, out.Work[qi][ti])
		}
		out.Avg = append(out.Avg, metrics.Mean(col))
	}
	return out, nil
}

// likeQuery converts a tuple into a fully-bound imprecise query: every
// non-null binding becomes a like constraint, matching the paper's "set of
// 10 randomly picked tuples" used as queries in §6.3.
func likeQuery(sc *relation.Schema, t relation.Tuple) *query.Query {
	q := query.FromTuple(sc, t)
	for i := range q.Preds {
		q.Preds[i].Op = query.OpLike
	}
	return q
}

// Render prints the per-query work matrix and the averages.
func (r *EfficiencyResult) Render() string {
	var b strings.Builder
	figure := "Figure 6"
	if strings.Contains(r.Strategy, "Random") {
		figure = "Figure 7"
	}
	fmt.Fprintf(&b, "%s: Efficiency of %s (Work/RelevantTuple)\n", figure, r.Strategy)
	fmt.Fprintf(&b, "%-10s", "Query")
	for _, th := range r.Thresholds {
		fmt.Fprintf(&b, " Tsim=%.1f", th)
	}
	b.WriteString("\n")
	for qi, row := range r.Work {
		fmt.Fprintf(&b, "q%-9d", qi+1)
		for _, w := range row {
			fmt.Fprintf(&b, " %8.1f", w)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-10s", "average")
	for _, w := range r.Avg {
		fmt.Fprintf(&b, " %8.1f", w)
	}
	b.WriteString("\n")
	return b.String()
}
