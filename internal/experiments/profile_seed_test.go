package experiments

import "testing"

// TestE23SeedSweep runs E23 across the acceptance seed range: every seed must
// telescope exactly, localize its injected burn to ingest/store and fire the
// hot-region rule within three ticks. Each burn tick spins 80 ms of real CPU,
// so the sweep is skipped in -short.
func TestE23SeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("20-seed sweep skipped in -short")
	}
	for seed := int64(42); seed <= 61; seed++ {
		if _, err := Run("E23", seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
