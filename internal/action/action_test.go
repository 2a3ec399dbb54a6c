package action

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/video"
)

func smallConfig() Config {
	return Config{
		FrameSize: 12, Frames: 6, Classes: int(video.NumActions),
		Channels: 4, Hidden: 10, Shortcut: nn.ShortcutConv,
	}
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(Config{}, rng); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestFeatureBytesSaving(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rec, err := New(smallConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	feat, raw := rec.FeatureBytesPerClip()
	if feat >= raw {
		t.Fatalf("feature %d >= raw %d: shipping features must save bandwidth", feat, raw)
	}
	if ratio := float64(raw) / float64(feat); ratio < 2 {
		t.Fatalf("compression ratio = %g, want >= 2", ratio)
	}
}

// TestOneSeedPairOneRecognizer pins what makes E7's ablation a one-variable
// comparison: two recognizers built from one init seed and trained on the
// same clips in one batch order predict identically.
func TestOneSeedPairOneRecognizer(t *testing.T) {
	set, err := video.Generate(video.Config{Clips: 12, Frames: 6, Size: 12}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	predict := func() []int {
		rec, err := New(smallConfig(), rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rec.TrainEpoch(set, 4, nn.NewAdam(0.01), rand.New(rand.NewSource(22))); err != nil {
			t.Fatal(err)
		}
		preds, err := rec.Predict(set.Clips)
		if err != nil {
			t.Fatal(err)
		}
		return preds
	}
	if a, b := predict(), predict(); !slices.Equal(a, b) {
		t.Fatalf("same seeds, same clips: predictions %v and %v differ", a, b)
	}
}

// TestTrainEpochLabelCount feeds a clip set with fewer labels than clips:
// TrainEpoch must refuse it rather than index past the labels.
func TestTrainEpochLabelCount(t *testing.T) {
	set, err := video.Generate(video.Config{Clips: 4, Frames: 6, Size: 12}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	set.Labels = set.Labels[:3]
	rec, err := New(smallConfig(), rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.TrainEpoch(set, 4, nn.NewAdam(0.01), rand.New(rand.NewSource(22))); !errors.Is(err, nn.ErrBadInput) {
		t.Fatalf("label count err = %v", err)
	}
}
