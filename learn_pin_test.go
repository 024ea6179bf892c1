package aimq

import (
	"testing"

	"aimq/internal/datagen"
	"aimq/internal/model"
)

// TestLearnFingerprintPinned pins the model Learn produces, probed and from
// a supplied sample, to fingerprints recorded before the offline phase moved
// into internal/learn. Probe parallelism must not move it either.
func TestLearnFingerprintPinned(t *testing.T) {
	gen := datagen.GenerateCarDB(3000, 7)
	for _, tc := range []struct {
		name string
		opts []Option
		want string
	}{
		{"probed", []Option{WithSeed(3), WithSampleSize(1500)}, "d845877ec080c965"},
		{"probed-parallel", []Option{WithSeed(3), WithSampleSize(1500), WithProbeParallelism(4)}, "d845877ec080c965"},
		{"sample", []Option{WithSample(gen.Rel), WithSeed(11)}, "4e16ca737c3714f0"},
	} {
		db := Open(gen.Rel, tc.opts...)
		if err := db.Learn(); err != nil {
			t.Fatalf("%s: Learn: %v", tc.name, err)
		}
		if got := model.Capture(db.ord, db.est).Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}
