package service

import (
	"bytes"
	"testing"

	"aimq/internal/model"
	"aimq/internal/webdb"
)

// TestBuildModelParallelBitIdentical is the acceptance test for the parallel
// learn pipeline: with the same seed, the model learned with concurrent
// probing, multi-worker TANE lattice sharding and a multi-worker supertuple
// build must serialize to exactly the bytes the sequential build produces —
// and carry the same model fingerprint. Anything less means parallelism
// crept into float accumulation order or merge order somewhere.
func TestBuildModelParallelBitIdentical(t *testing.T) {
	rel := testDB(3000, 5)
	build := func(workers int) (*Model, []byte) {
		t.Helper()
		m, err := BuildModel(webdb.NewLocal(rel), LearnConfig{Pivot: "Make", Workers: workers})
		if err != nil {
			t.Fatalf("BuildModel(Workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := model.Capture(m.Ord, m.Est).Write(&buf); err != nil {
			t.Fatalf("snapshot write (Workers=%d): %v", workers, err)
		}
		return m, buf.Bytes()
	}
	baseModel, base := build(1)
	baseFP := baseModel.Snap.Fingerprint()
	// Pinned before the offline phase moved into internal/learn: the
	// refactor must not move the model any caller serves.
	const wantFP = "2aed50be0465aa34"
	if baseFP != wantFP {
		t.Fatalf("sequential build fingerprint = %s, want %s", baseFP, wantFP)
	}
	for _, workers := range []int{4, 8} {
		m, got := build(workers)
		if !bytes.Equal(base, got) {
			t.Errorf("Workers=%d model snapshot differs from sequential build (%d vs %d bytes)",
				workers, len(got), len(base))
		}
		if fp := m.Snap.Fingerprint(); fp != baseFP {
			t.Errorf("Workers=%d fingerprint = %s, want %s", workers, fp, baseFP)
		}
		// The mining-core counters are part of the determinism contract too:
		// sharding a level must not change how many products were computed
		// or pruned.
		bs, ws := baseModel.Stats, m.Stats
		if ws.ProductsComputed != bs.ProductsComputed ||
			ws.PartitionCacheHits != bs.PartitionCacheHits ||
			ws.PeakPartitionBytes != bs.PeakPartitionBytes {
			t.Errorf("Workers=%d mine counters %d/%d/%d, want %d/%d/%d", workers,
				ws.ProductsComputed, ws.PartitionCacheHits, ws.PeakPartitionBytes,
				bs.ProductsComputed, bs.PartitionCacheHits, bs.PeakPartitionBytes)
		}
	}
	if baseModel.Stats.ProductsComputed <= 0 || baseModel.Stats.PartitionCacheHits < 0 {
		t.Errorf("learn stats missing mine counters: %+v", baseModel.Stats)
	}
}
