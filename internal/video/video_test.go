package video

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestGenerateShapesAndBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := Config{Clips: 24, Frames: 6, Size: 16}
	set, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := set.Clips.Shape()
	if s[0] != 24 || s[1] != 6 || s[2] != 1 || s[3] != 16 || s[4] != 16 {
		t.Fatalf("clip shape %v", s)
	}
	counts := make(map[int]int)
	for _, l := range set.Labels {
		counts[l]++
	}
	if len(counts) != int(NumActions) {
		t.Fatalf("classes = %d", len(counts))
	}
	for cls, n := range counts {
		if n != 4 {
			t.Fatalf("class %d has %d clips", cls, n)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(Config{Clips: 0, Frames: 5, Size: 16}, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Generate(Config{Clips: 5, Frames: 1, Size: 16}, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

// actorCentroid finds the brightness-weighted centroid of a frame.
func actorCentroid(set *ClipSet, clip, frame int) (float64, float64) {
	size := set.Cfg.Size
	var sx, sy, sw float64
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			v := set.Clips.At(clip, frame, 0, y, x)
			if v > 0.5 {
				sx += float64(x) * v
				sy += float64(y) * v
				sw += v
			}
		}
	}
	if sw == 0 {
		return -1, -1
	}
	return sx / sw, sy / sw
}

func TestMotionSpeedsDifferByAction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := Config{Clips: 60, Frames: 8, Size: 24}
	set, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	meanDisp := make(map[Action]float64)
	counts := make(map[Action]int)
	for i := 0; i < cfg.Clips; i++ {
		a := Action(set.Labels[i])
		if a != Loiter && a != Walk && a != Run {
			continue
		}
		total := 0.0
		valid := 0
		for f := 1; f < cfg.Frames; f++ {
			x0, y0 := actorCentroid(set, i, f-1)
			x1, y1 := actorCentroid(set, i, f)
			if x0 < 0 || x1 < 0 {
				continue
			}
			total += math.Hypot(x1-x0, y1-y0)
			valid++
		}
		if valid > 0 {
			meanDisp[a] += total / float64(valid)
			counts[a]++
		}
	}
	for a := range meanDisp {
		meanDisp[a] /= float64(counts[a])
	}
	if !(meanDisp[Loiter] < meanDisp[Walk] && meanDisp[Walk] < meanDisp[Run]) {
		t.Fatalf("displacement ordering violated: loiter=%g walk=%g run=%g",
			meanDisp[Loiter], meanDisp[Walk], meanDisp[Run])
	}
}

func TestDualActorActionsHaveMoreMass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{Clips: 36, Frames: 4, Size: 20}
	set, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	brightMass := func(clip int) float64 {
		total := 0.0
		for f := 0; f < cfg.Frames; f++ {
			for y := 0; y < cfg.Size; y++ {
				for x := 0; x < cfg.Size; x++ {
					if v := set.Clips.At(clip, f, 0, y, x); v > 0.5 {
						total += v
					}
				}
			}
		}
		return total
	}
	var single, dual, ns, nd float64
	for i := 0; i < cfg.Clips; i++ {
		switch Action(set.Labels[i]) {
		case Chase, Fight:
			dual += brightMass(i)
			nd++
		case Loiter, Walk:
			single += brightMass(i)
			ns++
		}
	}
	if dual/nd <= single/ns*1.3 {
		t.Fatalf("dual-actor mass %g not clearly above single %g", dual/nd, single/ns)
	}
}

func TestFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := Config{Clips: 6, Frames: 5, Size: 12}
	set, err := Generate(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := set.Clips.Clone()
	frozen := set.Frozen()
	if got, want := frozen.Clips.Shape(), set.Clips.Shape(); !slices.Equal(got, want) {
		t.Fatalf("frozen shape %v, want %v", got, want)
	}
	if frozen.Cfg != set.Cfg || !slices.Equal(frozen.Labels, set.Labels) {
		t.Fatal("Frozen must keep the labels and config")
	}
	moving := false
	for i := 0; i < cfg.Clips; i++ {
		for f := 0; f < cfg.Frames; f++ {
			for y := 0; y < cfg.Size; y++ {
				for x := 0; x < cfg.Size; x++ {
					if frozen.Clips.At(i, f, 0, y, x) != set.Clips.At(i, cfg.Frames-1, 0, y, x) {
						t.Fatalf("clip %d frame %d (%d,%d) is not the clip's last frame", i, f, y, x)
					}
					if set.Clips.At(i, f, 0, y, x) != set.Clips.At(i, cfg.Frames-1, 0, y, x) {
						moving = true
					}
				}
			}
		}
	}
	if !moving {
		t.Fatal("source clips have no motion; the test cannot tell a copy from the source")
	}
	if !slices.Equal(set.Clips.Data(), before.Data()) {
		t.Fatal("Frozen modified the source clips")
	}
	frozen.Clips.Data()[0] = 99
	frozen.Labels[0] = 99
	if set.Clips.Data()[0] == 99 || set.Labels[0] == 99 {
		t.Fatal("Frozen aliases the source set")
	}
}

func TestActionMetadata(t *testing.T) {
	if Loiter.Suspicious() || Walk.Suspicious() {
		t.Fatal("benign actions flagged")
	}
	if !Fight.Suspicious() || !Chase.Suspicious() || !Run.Suspicious() || !Fall.Suspicious() {
		t.Fatal("suspicious actions not flagged")
	}
	if Fight.String() != "fight" || Action(99).String() != "unknown" {
		t.Fatal("action names")
	}
}
