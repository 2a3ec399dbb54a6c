// Package video generates synthetic surveillance clips for the suspicious-
// behavior / crime-action recognition application (paper §IV.A.2). Each
// clip is a short grayscale frame sequence in which one or two "actors"
// (bright blobs) follow an action-specific motion script. The action
// classes are deliberately designed so that several pairs are
// indistinguishable from a single frame (walk vs. run differ only in speed;
// loiter vs. walk only in displacement), giving the CNN+LSTM architecture a
// genuine temporal signal to exploit — and making the moving-vs-frozen
// ablation (experiment E7) meaningful.
package video

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// ErrBadConfig reports invalid generator parameters.
var ErrBadConfig = errors.New("video: invalid configuration")

// Action enumerates clip classes.
type Action int

// Action classes; the first four are single-actor, the last two dual-actor.
const (
	// Loiter: an actor jitters in place (suspicious lingering).
	Loiter Action = iota
	// Walk: slow constant-velocity motion.
	Walk
	// Run: fast constant-velocity motion (fleeing).
	Run
	// Fall: rapid downward motion then stillness (person down).
	Fall
	// Chase: one actor pursues another with a lag.
	Chase
	// Fight: two actors oscillate violently around a shared center.
	Fight
	// NumActions is the class count.
	NumActions
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Loiter:
		return "loiter"
	case Walk:
		return "walk"
	case Run:
		return "run"
	case Fall:
		return "fall"
	case Chase:
		return "chase"
	case Fight:
		return "fight"
	default:
		return "unknown"
	}
}

// Suspicious reports whether the action should raise an operator alert in
// the application layer.
func (a Action) Suspicious() bool {
	switch a {
	case Run, Fall, Chase, Fight:
		return true
	default:
		return false
	}
}

// Config sizes a clip dataset.
type Config struct {
	Clips  int
	Frames int // timesteps per clip
	Size   int // square frame side
}

// Validate checks generator parameters.
func (c Config) Validate() error {
	if c.Clips <= 0 || c.Frames < 2 || c.Size < 8 {
		return fmt.Errorf("%w: %+v", ErrBadConfig, c)
	}
	return nil
}

// ClipSet is a labeled action-clip dataset.
type ClipSet struct {
	// Clips has shape [N, T, 1, Size, Size].
	Clips  *tensor.Tensor
	Labels []int
	Cfg    Config
}

type actorState struct {
	x, y   float64 // normalized position
	vx, vy float64 // normalized velocity per frame
}

// drawActor stamps a 3×3 bright blob at the actor position.
func drawActor(frame *tensor.Tensor, a actorState) {
	size := frame.Dim(1)
	cx := int(a.x * float64(size))
	cy := int(a.y * float64(size))
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			x, y := cx+dx, cy+dy
			if x >= 0 && x < size && y >= 0 && y < size {
				v := 1.0
				if dx != 0 || dy != 0 {
					v = 0.7
				}
				frame.Set(v, 0, y, x)
			}
		}
	}
}

func clampPos(a *actorState) {
	if a.x < 0.05 {
		a.x, a.vx = 0.05, -a.vx
	}
	if a.x > 0.95 {
		a.x, a.vx = 0.95, -a.vx
	}
	if a.y < 0.05 {
		a.y, a.vy = 0.05, -a.vy
	}
	if a.y > 0.95 {
		a.y, a.vy = 0.95, -a.vy
	}
}

// Generate renders a balanced labeled clip set.
func Generate(cfg Config, rng *rand.Rand) (*ClipSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clips := tensor.New(cfg.Clips, cfg.Frames, 1, cfg.Size, cfg.Size)
	labels := make([]int, cfg.Clips)
	frameLen := cfg.Size * cfg.Size
	for i := 0; i < cfg.Clips; i++ {
		action := Action(i % int(NumActions))
		labels[i] = int(action)
		// Actor initialization.
		a := actorState{x: 0.2 + 0.6*rng.Float64(), y: 0.2 + 0.6*rng.Float64()}
		b := actorState{x: 0.2 + 0.6*rng.Float64(), y: 0.2 + 0.6*rng.Float64()}
		angle := rng.Float64() * 2 * math.Pi
		switch action {
		case Walk:
			a.vx, a.vy = 0.05*math.Cos(angle), 0.05*math.Sin(angle)
		case Run:
			a.vx, a.vy = 0.15*math.Cos(angle), 0.15*math.Sin(angle)
		case Fall:
			a.y = 0.15 + 0.2*rng.Float64()
			a.vy = 0.14
		case Chase:
			a.vx, a.vy = 0.10*math.Cos(angle), 0.10*math.Sin(angle)
		}
		fightPhase := rng.Float64() * 2 * math.Pi
		for t := 0; t < cfg.Frames; t++ {
			base := (i*cfg.Frames + t) * frameLen
			frame, err := tensor.FromSlice(clips.Data()[base:base+frameLen], 1, cfg.Size, cfg.Size)
			if err != nil {
				return nil, err
			}
			// Background sensor noise.
			fd := frame.Data()
			for j := range fd {
				fd[j] = 0.05 + 0.02*rng.NormFloat64()
			}
			switch action {
			case Loiter:
				a.x += 0.01 * rng.NormFloat64()
				a.y += 0.01 * rng.NormFloat64()
			case Walk, Run:
				a.x += a.vx
				a.y += a.vy
			case Fall:
				if a.y < 0.85 {
					a.y += a.vy
				}
			case Chase:
				a.x += a.vx
				a.y += a.vy
				// Pursuer closes 30% of the gap each frame.
				b.x += 0.3 * (a.x - b.x)
				b.y += 0.3 * (a.y - b.y)
			case Fight:
				center := actorState{x: 0.5, y: 0.5}
				phase := fightPhase + float64(t)*1.9
				a.x = center.x + 0.08*math.Cos(phase)
				a.y = center.y + 0.08*math.Sin(phase)
				b.x = center.x - 0.08*math.Cos(phase)
				b.y = center.y - 0.08*math.Sin(phase)
			}
			clampPos(&a)
			clampPos(&b)
			drawActor(frame, a)
			if action == Chase || action == Fight {
				drawActor(frame, b)
			}
		}
	}
	return &ClipSet{Clips: clips, Labels: labels, Cfg: cfg}, nil
}

// Frozen returns a copy of the set in which every frame of a clip is that
// clip's last frame: same [N, T, 1, Size, Size] shape, labels and config,
// but no motion — the input of E7's temporal ablation.
func (s *ClipSet) Frozen() *ClipSet {
	n, t := s.Cfg.Clips, s.Cfg.Frames
	frameLen := s.Cfg.Size * s.Cfg.Size
	out := tensor.New(s.Clips.Shape()...)
	src, dst := s.Clips.Data(), out.Data()
	for i := 0; i < n; i++ {
		last := src[(i*t+t-1)*frameLen : (i*t+t)*frameLen]
		for f := 0; f < t; f++ {
			copy(dst[(i*t+f)*frameLen:], last)
		}
	}
	return &ClipSet{Clips: out, Labels: append([]int(nil), s.Labels...), Cfg: s.Cfg}
}
