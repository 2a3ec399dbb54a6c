// Package rl implements the paper's deep reinforcement learning module
// (§III.D): a DQN agent (experience replay, target network, ε-greedy
// exploration) and the smart-camera control environment the paper motivates
// — "smart camera controls to automatically rotate and zoom in for traffic
// and crime incidents".
package rl

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Sentinel errors.
var (
	ErrBadConfig = errors.New("rl: invalid configuration")
	ErrNoData    = errors.New("rl: replay buffer has too few transitions")
)

// State is an environment observation.
type State []float64

// Environment is an episodic RL task.
type Environment interface {
	// Reset starts a new episode and returns the initial state.
	Reset(rng *rand.Rand) State
	// Step applies an action, returning the next state, the reward, and
	// whether the episode ended.
	Step(action int, rng *rand.Rand) (State, float64, bool)
}

// Transition is one replay-buffer entry.
type Transition struct {
	State  State
	Action int
	Reward float64
	Next   State
	Done   bool
}

// DQNConfig tunes the agent.
type DQNConfig struct {
	Hidden     int
	BufferSize int
	Gamma      float64
	LR         float64
}

// DefaultDQNConfig returns laptop-scale defaults.
func DefaultDQNConfig() DQNConfig {
	return DQNConfig{Hidden: 32, BufferSize: 4096, Gamma: 0.95, LR: 0.003}
}

// DQN is a deep Q-network agent.
type DQN struct {
	cfg      DQNConfig
	stateDim int
	actions  int
	online   *nn.Sequential
	target   *nn.Sequential
	opt      *nn.Adam

	buffer []Transition
	pos    int
}

// NewDQN creates an agent for the given state/action dimensions.
func NewDQN(stateDim, actions int, cfg DQNConfig, rng *rand.Rand) (*DQN, error) {
	if stateDim <= 0 || actions <= 1 {
		return nil, fmt.Errorf("%w: state %d actions %d", ErrBadConfig, stateDim, actions)
	}
	if cfg.Hidden <= 0 {
		cfg = DefaultDQNConfig()
	}
	build := func(seed int64) *nn.Sequential {
		r := rand.New(rand.NewSource(seed))
		return nn.NewSequential(
			nn.NewDense(stateDim, cfg.Hidden, nn.WithRand(r)),
			nn.NewTanh(),
			nn.NewDense(cfg.Hidden, cfg.Hidden, nn.WithRand(r)),
			nn.NewTanh(),
			nn.NewDense(cfg.Hidden, actions, nn.WithRand(r)),
		)
	}
	seed := rng.Int63()
	d := &DQN{
		cfg:      cfg,
		stateDim: stateDim,
		actions:  actions,
		online:   build(seed),
		target:   build(seed),
		opt:      nn.NewAdam(cfg.LR),
		buffer:   make([]Transition, 0, cfg.BufferSize),
	}
	return d, nil
}

// QValues evaluates the online network for one state.
func (d *DQN) QValues(s State) ([]float64, error) {
	x, err := tensor.FromSlice(append([]float64(nil), s...), 1, d.stateDim)
	if err != nil {
		return nil, err
	}
	q, err := d.online.Forward(x, false)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), q.Data()...), nil
}

// Act selects an ε-greedy action.
func (d *DQN) Act(s State, epsilon float64, rng *rand.Rand) (int, error) {
	if rng.Float64() < epsilon {
		return rng.Intn(d.actions), nil
	}
	q, err := d.QValues(s)
	if err != nil {
		return 0, err
	}
	best := 0
	for i, v := range q {
		if v > q[best] {
			best = i
		}
	}
	return best, nil
}

// Observe appends a transition to the ring-buffer replay memory.
func (d *DQN) Observe(t Transition) {
	if len(d.buffer) < d.cfg.BufferSize {
		d.buffer = append(d.buffer, t)
		return
	}
	d.buffer[d.pos] = t
	d.pos = (d.pos + 1) % d.cfg.BufferSize
}

// BufferLen returns the number of stored transitions.
func (d *DQN) BufferLen() int { return len(d.buffer) }

// TrainBatch samples a minibatch from replay and performs one Q-learning
// update against the target network, returning the TD loss.
func (d *DQN) TrainBatch(batch int, rng *rand.Rand) (float64, error) {
	if batch <= 0 || len(d.buffer) < batch {
		return 0, fmt.Errorf("%w: have %d, need %d", ErrNoData, len(d.buffer), batch)
	}
	states := tensor.New(batch, d.stateDim)
	nexts := tensor.New(batch, d.stateDim)
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = rng.Intn(len(d.buffer))
		tr := d.buffer[idx[i]]
		copy(states.Data()[i*d.stateDim:(i+1)*d.stateDim], tr.State)
		copy(nexts.Data()[i*d.stateDim:(i+1)*d.stateDim], tr.Next)
	}
	qNext, err := d.target.Forward(nexts, false)
	if err != nil {
		return 0, err
	}
	qNow, err := d.online.Forward(states, true)
	if err != nil {
		return 0, err
	}
	grad := tensor.New(batch, d.actions)
	loss := 0.0
	for i := 0; i < batch; i++ {
		tr := d.buffer[idx[i]]
		targetQ := tr.Reward
		if !tr.Done {
			best := qNext.At(i, 0)
			for a := 1; a < d.actions; a++ {
				if v := qNext.At(i, a); v > best {
					best = v
				}
			}
			targetQ += d.cfg.Gamma * best
		}
		diff := qNow.At(i, tr.Action) - targetQ
		loss += 0.5 * diff * diff
		grad.Set(diff/float64(batch), i, tr.Action)
	}
	if _, err := d.online.Backward(grad); err != nil {
		return 0, err
	}
	nn.ClipGradNorm(d.online.Params(), 5)
	d.opt.Step(d.online.Params())
	return loss / float64(batch), nil
}

// SyncTarget copies online weights into the target network.
func (d *DQN) SyncTarget() error {
	return nn.CopyParams(d.target.Params(), d.online.Params())
}

// TrainConfig tunes the training loop.
type TrainConfig struct {
	Episodes     int
	StepsPerEp   int
	Batch        int
	EpsilonStart float64
	EpsilonEnd   float64
	SyncEvery    int // environment steps between target syncs
	WarmupSteps  int // steps before learning begins
}

// DefaultTrainConfig returns defaults for the camera task.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Episodes: 120, StepsPerEp: 40, Batch: 32,
		EpsilonStart: 1.0, EpsilonEnd: 0.05, SyncEvery: 200, WarmupSteps: 200,
	}
}

// Train runs the ε-greedy training loop and returns per-episode total
// rewards.
func Train(agent *DQN, env Environment, cfg TrainConfig, rng *rand.Rand) ([]float64, error) {
	if cfg.Episodes <= 0 || cfg.StepsPerEp <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadConfig, cfg)
	}
	rewards := make([]float64, 0, cfg.Episodes)
	stepCount := 0
	for ep := 0; ep < cfg.Episodes; ep++ {
		eps := cfg.EpsilonStart + (cfg.EpsilonEnd-cfg.EpsilonStart)*float64(ep)/float64(cfg.Episodes-1)
		if cfg.Episodes == 1 {
			eps = cfg.EpsilonEnd
		}
		s := env.Reset(rng)
		total := 0.0
		for step := 0; step < cfg.StepsPerEp; step++ {
			a, err := agent.Act(s, eps, rng)
			if err != nil {
				return nil, err
			}
			next, r, done := env.Step(a, rng)
			agent.Observe(Transition{State: s, Action: a, Reward: r, Next: next, Done: done})
			total += r
			s = next
			stepCount++
			if stepCount > cfg.WarmupSteps && agent.BufferLen() >= cfg.Batch {
				if _, err := agent.TrainBatch(cfg.Batch, rng); err != nil {
					return nil, err
				}
			}
			if stepCount%cfg.SyncEvery == 0 {
				if err := agent.SyncTarget(); err != nil {
					return nil, err
				}
			}
			if done {
				break
			}
		}
		rewards = append(rewards, total)
	}
	return rewards, nil
}

// EvaluatePolicy runs a greedy (or provided) policy for episodes and returns
// the mean total reward. A nil agent with a non-nil fallback policy function
// evaluates baselines.
func EvaluatePolicy(env Environment, episodes, steps int, policy func(State, *rand.Rand) int, rng *rand.Rand) float64 {
	total := 0.0
	for ep := 0; ep < episodes; ep++ {
		s := env.Reset(rng)
		for i := 0; i < steps; i++ {
			a := policy(s, rng)
			next, r, done := env.Step(a, rng)
			total += r
			s = next
			if done {
				break
			}
		}
	}
	return total / float64(episodes)
}

// GreedyPolicy wraps a trained agent for EvaluatePolicy.
func GreedyPolicy(agent *DQN) func(State, *rand.Rand) int {
	return func(s State, rng *rand.Rand) int {
		a, err := agent.Act(s, 0, rng)
		if err != nil {
			return 0
		}
		return a
	}
}

// RandomPolicy acts uniformly at random.
func RandomPolicy(actions int) func(State, *rand.Rand) int {
	return func(_ State, rng *rand.Rand) int { return rng.Intn(actions) }
}

// StaticPolicy always holds still (the fixed-camera baseline).
func StaticPolicy(stayAction int) func(State, *rand.Rand) int {
	return func(State, *rand.Rand) int { return stayAction }
}
