package experiments

import "testing"

// TestE26SeedSweep runs E26 across the acceptance seed range: every seed
// must localize its targeted blackout within the 3-tick budget with zero
// collateral, and keep every per-camera family within K+1 registry series
// with exact accounting. One 220-camera stack boots per seed, so the sweep is
// skipped in -short.
func TestE26SeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("20-seed sweep skipped in -short")
	}
	for seed := int64(42); seed <= 61; seed++ {
		if _, err := Run("E26", seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
