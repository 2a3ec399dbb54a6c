package detect_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/vision"

	// The test lives outside the package to break the detect↔vision test
	// import cycle; the dot import keeps the test bodies readable.
	. "repro/internal/detect"
)

func TestIoUKnownValues(t *testing.T) {
	tests := []struct {
		name string
		a, b Box
		want float64
	}{
		{"identical", Box{0.5, 0.5, 0.2, 0.2}, Box{0.5, 0.5, 0.2, 0.2}, 1},
		{"disjoint", Box{0.2, 0.2, 0.1, 0.1}, Box{0.8, 0.8, 0.1, 0.1}, 0},
		{"half-overlap-x", Box{0.5, 0.5, 0.2, 0.2}, Box{0.6, 0.5, 0.2, 0.2}, 1.0 / 3.0},
		{"contained", Box{0.5, 0.5, 0.4, 0.4}, Box{0.5, 0.5, 0.2, 0.2}, 0.25},
		{"touching-edges", Box{0.4, 0.5, 0.2, 0.2}, Box{0.6, 0.5, 0.2, 0.2}, 0},
		{"zero-area", Box{0.5, 0.5, 0, 0}, Box{0.5, 0.5, 0.2, 0.2}, 0},
		{"both-zero-area", Box{0.5, 0.5, 0, 0}, Box{0.5, 0.5, 0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IoU(tt.a, tt.b); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("IoU = %g, want %g", got, tt.want)
			}
			if got := IoU(tt.b, tt.a); math.Abs(got-tt.want) > 1e-9 {
				t.Fatal("IoU must be symmetric")
			}
		})
	}
}

func TestNMSSuppressesOverlaps(t *testing.T) {
	dets := []Detection{
		{Box: Box{0.5, 0.5, 0.2, 0.2}, Class: 0, Score: 0.9},
		{Box: Box{0.51, 0.5, 0.2, 0.2}, Class: 0, Score: 0.8}, // overlaps first
		{Box: Box{0.51, 0.5, 0.2, 0.2}, Class: 1, Score: 0.7}, // other class: kept
		{Box: Box{0.1, 0.1, 0.1, 0.1}, Class: 0, Score: 0.6},  // far away: kept
	}
	kept := NMS(dets, 0.5)
	if len(kept) != 3 {
		t.Fatalf("kept %d detections: %+v", len(kept), kept)
	}
	if kept[0].Score != 0.9 {
		t.Fatalf("NMS must keep highest score first, got %g", kept[0].Score)
	}
	for _, k := range kept {
		if k.Score == 0.8 {
			t.Fatal("overlapping same-class detection survived")
		}
	}
	if got := NMS(nil, 0.5); len(got) != 0 {
		t.Fatal("empty NMS")
	}
}

// TestNMSProperties checks greedy NMS on random detections against its
// definition: survivors come out by descending score, no two survivors of a
// class overlap above the threshold, every dropped detection overlaps a
// higher-scoring survivor of its class, and the input is left as it was.
func TestNMSProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		dets := make([]Detection, 30)
		for i := range dets {
			dets[i] = Detection{
				Box:   Box{CX: rng.Float64(), CY: rng.Float64(), W: 0.05 + rng.Float64()*0.3, H: 0.05 + rng.Float64()*0.3},
				Class: rng.Intn(3),
				Score: rng.Float64(),
			}
		}
		before := append([]Detection(nil), dets...)
		const thr = 0.4
		kept := NMS(dets, thr)
		for i := range dets {
			if dets[i] != before[i] {
				t.Fatal("NMS reordered or changed its input")
			}
		}
		survived := make(map[Detection]bool)
		for i, k := range kept {
			survived[k] = true
			if i > 0 && k.Score > kept[i-1].Score {
				t.Fatalf("trial %d: survivors not in descending score order", trial)
			}
			for _, o := range kept[:i] {
				if o.Class == k.Class && IoU(o.Box, k.Box) > thr {
					t.Fatalf("trial %d: two class-%d survivors overlap at IoU %g", trial, k.Class, IoU(o.Box, k.Box))
				}
			}
		}
		for _, d := range dets {
			if survived[d] {
				continue
			}
			covered := false
			for _, k := range kept {
				if k.Class == d.Class && k.Score >= d.Score && IoU(k.Box, d.Box) > thr {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("trial %d: %+v dropped with no overlapping survivor", trial, d)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(Config{}, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty config err = %v", err)
	}
	if _, err := New(Config{InC: 3, Size: 13, Grid: 3, Classes: 2, StemChannels: 4}, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("indivisible err = %v", err)
	}
}

func testConfig() Config {
	return Config{InC: 3, Size: 12, Grid: 3, Classes: 4, StemChannels: 8}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	det, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	catalog, _ := vision.Catalog(cfg.Classes, rng)
	set, err := vision.GenerateDetection(catalog, 32, cfg.Size, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(0.005)
	var first, last float64
	for e := 0; e < 30; e++ {
		lt, lf, err := det.TrainEpoch(set.Images, set.Truths, len(set.Truths), opt, rng)
		if err != nil {
			t.Fatal(err)
		}
		if e == 0 {
			first = lt + lf
		}
		last = lt + lf
	}
	if last >= first {
		t.Fatalf("detector loss did not decrease: %g → %g", first, last)
	}
}

func TestFullHeadHasMoreCapacityThanTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	det, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if det.FullParams() <= det.TinyParams() {
		t.Fatalf("full %d params <= tiny %d", det.FullParams(), det.TinyParams())
	}
}

// TestEarlyExitFlow walks the Fig. 5 split on an untrained detector at its
// two extremes: a policy at -Inf answers every frame locally and ships
// nothing, one at +Inf ships every frame's feature map, smaller than the raw
// frame, to the server tail. Whether the score gate sends the right frames
// upstream in between is the oracle test's check (gate_oracle_test.go).
func TestEarlyExitFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := testConfig()
	det, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	catalog, _ := vision.Catalog(cfg.Classes, rng)
	const n = 4
	set, err := vision.GenerateDetection(catalog, n, cfg.Size, rng)
	if err != nil {
		t.Fatal(err)
	}
	local, err := det.Detect(set.Images, nn.ExitPolicy{Threshold: math.Inf(-1)})
	if err != nil {
		t.Fatal(err)
	}
	server, err := det.Detect(set.Images, nn.ExitPolicy{Threshold: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(local) != n || len(server) != n {
		t.Fatalf("results = %d and %d, want %d", len(local), len(server), n)
	}
	raw := cfg.InC * cfg.Size * cfg.Size * 8
	for i := range local {
		if !local[i].ExitedLocal || local[i].FeatureBytes != 0 {
			t.Fatalf("frame %d at -Inf: %+v, want a local exit shipping 0 bytes", i, local[i])
		}
		if server[i].ExitedLocal {
			t.Fatalf("frame %d exited locally at +Inf", i)
		}
		if b := server[i].FeatureBytes; b <= 0 || b >= raw {
			t.Fatalf("feature bytes = %d, want 0 < bytes < %d (the raw frame)", b, raw)
		}
	}
}

func TestLossInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	det, err := New(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	imgs := tensor.New(2, 3, 12, 12)
	if _, _, err := det.TrainEpoch(imgs, make([][]GroundTruth, 1), 2, nn.NewAdam(0.01), rng); !errors.Is(err, ErrBadInput) {
		t.Fatalf("truth count err = %v", err)
	}
	if _, err := det.Evaluate(imgs, make([][]GroundTruth, 1), nn.ExitPolicy{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("evaluate truth count err = %v", err)
	}
	if res, err := det.Detect(tensor.New(0, 3, 12, 12), nn.ExitPolicy{}); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %d results, err = %v", len(res), err)
	}
}
