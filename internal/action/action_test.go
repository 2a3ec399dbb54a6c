package action

import (
	"errors"
	"math/rand"
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
