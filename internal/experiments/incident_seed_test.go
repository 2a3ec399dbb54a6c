package experiments

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestE25SeedSweep runs E25 across the acceptance seed range: every seed
// must open its incidents within three ticks of fault onset, resolve them
// after the fault clears, and top-rank the injected backend. Four full
// stacks boot per seed, so the sweep is skipped in -short.
func TestE25SeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("20-seed sweep skipped in -short")
	}
	for seed := int64(42); seed <= 61; seed++ {
		if _, err := Run("E25", seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestE25CanonicalReplay runs E25's first scenario twice at the seed E25
// draws from 42: the canonical incident record (timelines, suspects, scores,
// rule sets — everything except wall-clock diagnostics) must be
// byte-identical.
func TestE25CanonicalReplay(t *testing.T) {
	seed := rand.New(rand.NewSource(42)).Int63()
	var records [2][]byte
	for i := range records {
		inf, _, err := e25RunScenario(seed, e25Scenarios[0])
		if err != nil {
			t.Fatal(err)
		}
		if records[i], err = inf.Incidents.Canonical(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(records[0], records[1]) {
		t.Fatalf("canonical incident record not byte-identical across replays (%d vs %d bytes)",
			len(records[0]), len(records[1]))
	}
}
