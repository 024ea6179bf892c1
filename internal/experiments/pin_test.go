package experiments

import (
	"testing"

	"aimq/internal/model"
)

// TestPipelineFingerprintsPinned pins the Quick CarDB and census models to
// fingerprints recorded before the offline phase moved into internal/learn.
func TestPipelineFingerprintsPinned(t *testing.T) {
	l := lab(t)
	car, err := l.CarPipeline(l.P.StudySample)
	if err != nil {
		t.Fatal(err)
	}
	census, err := l.CensusPipeline()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"car", model.Capture(car.Ord, car.Est).Fingerprint(), "1ed9c736617a8cbf"},
		{"census", model.Capture(census.Ord, census.Est).Fingerprint(), "55b2fba51d4b7578"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
