package bench

import (
	"testing"

	"aimq/internal/model"
)

// TestFixtureFingerprintsPinned pins the models the quick car and census
// fixtures serve to fingerprints recorded before the offline phase moved
// into internal/learn.
func TestFixtureFingerprintsPinned(t *testing.T) {
	env := NewEnv(Options{Quick: true})
	car, _, err := env.carPipeline()
	if err != nil {
		t.Fatal(err)
	}
	census, err := censusPipeline(env.o, env.censusDB())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"car", model.Capture(car.Ord, car.Est).Fingerprint(), "1e20c61445ae891b"},
		{"census", model.Capture(census.Ord, census.Est).Fingerprint(), "8942f0a6fdaa380b"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
