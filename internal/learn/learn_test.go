package learn

import (
	"slices"
	"testing"

	"aimq/internal/datagen"
	"aimq/internal/webdb"
)

func stageNames(r *Result) []string {
	var out []string
	for _, s := range r.Stats.Stages {
		out = append(out, s.Name)
	}
	return out
}

// TestRunStages checks the stage record: a probed run times every stage in
// order, a run over a supplied sample skips the probe and mines that very
// sample, and the cap bounds what is mined. The probed run takes the
// Workers path (concurrent probes, sharded mine and supertuple build),
// which `make race` checks; service's TestBuildModelParallelBitIdentical
// pins that it learns the serial model.
func TestRunStages(t *testing.T) {
	rel := datagen.GenerateCarDB(1500, 3).Rel

	probed, err := Run(webdb.NewLocal(rel), Config{SampleSize: 800, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"probe", "sample", "mine", "order", "supertuple", "simest"}
	if got := stageNames(probed); !slices.Equal(got, want) {
		t.Errorf("probed stages = %v, want %v", got, want)
	}
	st := probed.Stats
	if st.Pivot == "" || st.ProbedTuples == 0 || st.SampleSize != 800 || probed.Sample.Size() != 800 || st.MineWorkers != 2 {
		t.Errorf("probed stats = %+v (sample %d), want a pivot, an 800-tuple sample and 2 mine workers", st, probed.Sample.Size())
	}
	if st.TotalMs <= 0 || probed.Stage("mine") <= 0 || probed.Stage("nope") != 0 {
		t.Errorf("stage timings not recorded: %+v", st.Stages)
	}

	supplied, err := Run(nil, Config{Sample: rel})
	if err != nil {
		t.Fatal(err)
	}
	if got := stageNames(supplied); !slices.Equal(got, want[1:]) {
		t.Errorf("supplied-sample stages = %v, want %v", got, want[1:])
	}
	if supplied.Sample != rel || supplied.Stats.Pivot != "" {
		t.Errorf("supplied sample not mined as given (pivot %q)", supplied.Stats.Pivot)
	}
}
