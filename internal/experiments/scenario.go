package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/citydata"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/tsdb"
)

// scenario is one tick-driven experiment as data: the stack it boots,
// whether the adaptive controller runs, and the phases it walks. Every tick
// calls load, then MonitorTick, then observe, which may end the phase.
type scenario struct {
	cfg        core.Config
	controller bool
	phases     []phase
	load       func(t tick) error
	observe    func(t tick) (end bool, err error)
}

// phase is a run of monitor ticks under one fault config. ticks is a
// maximum when the observer may end the phase early; faults nil means chaos
// is off.
type phase struct {
	name   string
	ticks  int
	faults *faults.Config
}

// tick is where a run stands when load and observe see it.
type tick struct {
	inf   *core.Infrastructure
	phase *phase
	i     int // 1-based within the phase
	n     int // 1-based within the run
}

// last reports whether t is its phase's final tick.
func (t tick) last() bool { return t.i == t.phase.ticks }

// run boots sc.cfg from seed and walks sc.phases. Entering a phase with a
// fault config installs a fresh injector; entering one without turns chaos
// off if an earlier phase left it on. The stack is returned for the
// experiment's final checks.
func run(sc scenario, seed int64) (*core.Infrastructure, error) {
	inf, err := core.New(sc.cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	if !sc.controller {
		inf.Control.Disable()
	}
	n := 0
	for p := range sc.phases {
		ph := &sc.phases[p]
		if ph.faults != nil {
			inf.EnableChaos(faults.NewInjector(*ph.faults))
		} else if inf.Injector != nil {
			inf.DisableChaos()
		}
		for i := 1; i <= ph.ticks; i++ {
			n++
			t := tick{inf: inf, phase: ph, i: i, n: n}
			if err := sc.load(t); err != nil {
				return nil, fmt.Errorf("%s tick %d: %w", ph.name, i, err)
			}
			inf.MonitorTick()
			end, err := sc.observe(t)
			if err != nil {
				return nil, err
			}
			if end {
				break
			}
		}
	}
	return inf, nil
}

// partition is a hard partition: every call to an op under one of the
// prefixes fails.
func partition(seed int64, ops ...string) *faults.Config {
	return &faults.Config{Seed: seed, BlackoutEvery: 1, BlackoutLen: 1, TargetOps: ops}
}

// regValue reads one scalar metric out of the live registry, independently of
// the TSDB (used to cross-check query results against ground truth).
func regValue(inf *core.Infrastructure, name string) float64 {
	for _, p := range inf.Telemetry.Snapshot() {
		if p.Name == name {
			return p.Value
		}
	}
	return math.NaN()
}

// ruleState returns the live status of one named alert rule.
func ruleState(inf *core.Infrastructure, name string) tsdb.RuleStatus {
	for _, st := range inf.Alerts.States() {
		if st.Rule.Name == name {
			return st
		}
	}
	return tsdb.RuleStatus{}
}

// tweetSource is the crimes → tweets feed of the chaos-stack experiments.
// One rng, seeded seed+1, draws the crimes on the first batch and then each
// batch's tweets. Tweet ids restart at tw-000000 with every batch.
type tweetSource struct {
	rng    *rand.Rand
	crimes []citydata.Incident
}

func newTweetSource(seed int64) *tweetSource {
	return &tweetSource{rng: rand.New(rand.NewSource(seed + 1))}
}

// batch draws count tweets about the source's crimes by members of inf's
// gang network.
func (s *tweetSource) batch(inf *core.Infrastructure, count int) ([]citydata.Tweet, error) {
	epoch := chaosConfig().Epoch
	if s.crimes == nil {
		crimes, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(epoch), inf.Gang.Nodes(), s.rng)
		if err != nil {
			return nil, err
		}
		s.crimes = crimes
	}
	tcfg := citydata.DefaultTweetConfig(epoch)
	tcfg.Count = count
	return citydata.GenerateTweets(tcfg, s.crimes, inf.Gang, s.rng)
}
