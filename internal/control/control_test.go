package control

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fog"
)

// fakeSignals is a mutable signal source tests drive tick by tick.
type fakeSignals struct {
	firing  []string
	burn    float64
	breaker bool
	evals   map[string]float64
}

func (f *fakeSignals) signals() Signals {
	return Signals{
		Firing:      func() []string { return f.firing },
		BurnRate:    func() float64 { return f.burn },
		BreakerOpen: func() bool { return f.breaker },
		Eval: func(expr string) (float64, bool) {
			v, ok := f.evals[expr]
			return v, ok
		},
	}
}

func testWatchRules() []string {
	return []string{
		"ingest-delivery-rate", "breaker-open", "hdfs-lost-blocks",
		"ingest-p99-anomaly", "broker-under-replicated",
	}
}

// The controller samples these cumulative counters with instant queries and
// compares levels tick over tick; tests emulate live counters by bumping the
// values between ticks.
const (
	undeliveredExpr = "cityinfra_pipeline_undelivered_total"
	produceErrExpr  = "cityinfra_broker_produce_errors_total"
)

func TestKnobsClampAndDefaults(t *testing.T) {
	k := NewKnobs(0.5)
	if got := k.OffloadThreshold(); got != 0.5 {
		t.Fatalf("threshold = %v, want 0.5", got)
	}
	if k.InferenceTier() != TierServer {
		t.Fatalf("default tier = %v, want server", k.InferenceTier())
	}
	if k.ShedLevel() != 0 {
		t.Fatalf("default shed = %d, want 0", k.ShedLevel())
	}
	k.SetOffloadThreshold(-0.3)
	if got := k.OffloadThreshold(); got != 0 {
		t.Fatalf("threshold clamped low = %v, want 0", got)
	}
	k.SetOffloadThreshold(1.7)
	if got := k.OffloadThreshold(); got != 1 {
		t.Fatalf("threshold clamped high = %v, want 1", got)
	}
	k.SetShedLevel(-2)
	if k.ShedLevel() != 0 {
		t.Fatalf("shed clamped = %d, want 0", k.ShedLevel())
	}
	k.SetInferenceTier(TierFog)
	if k.InferenceTier() != TierFog || k.InferenceTier().String() != "fog" {
		t.Fatalf("tier = %v", k.InferenceTier())
	}
}

// A degraded system with a stressed uplink migrates first, then sheds on
// the cooldown staircase — never touching the threshold while on the fog
// tier.
func TestControllerUplinkDegradationMigratesThenSheds(t *testing.T) {
	sig := &fakeSignals{evals: map[string]float64{
		undeliveredExpr: 0,
		produceErrExpr:  0,
	}}
	k := NewKnobs(0.5)
	c := NewController(k, testWatchRules(), sig.signals(), nil)
	// Counters keep climbing every tick while the incident lasts.
	step := func() {
		sig.evals[undeliveredExpr] += 3
		sig.evals[produceErrExpr] += 2
		c.Tick()
	}

	step() // tick 1: degraded streak 1 >= 1 → act
	if k.InferenceTier() != TierFog {
		t.Fatalf("tick 1: tier = %v, want fog", k.InferenceTier())
	}
	if got := c.ActionCount(ActionMigrateFog); got != 1 {
		t.Fatalf("migrate-fog count = %d, want 1", got)
	}
	step() // tick 2: migrate cooling down, tier already fog → shed
	if k.ShedLevel() != 1 {
		t.Fatalf("tick 2: shed = %d, want 1", k.ShedLevel())
	}
	step() // tick 3: shed on cooldown
	step() // tick 4: still cooling (cooldown 2 ticks)
	if k.ShedLevel() != 1 {
		t.Fatalf("tick 4: shed = %d, want 1 (cooldown)", k.ShedLevel())
	}
	step() // tick 5: shed again → max
	if k.ShedLevel() != 2 {
		t.Fatalf("tick 5: shed = %d, want 2", k.ShedLevel())
	}
	for i := 0; i < 6; i++ {
		step()
	}
	if k.ShedLevel() != 2 {
		t.Fatalf("shed exceeded max: %d", k.ShedLevel())
	}
	if got := k.OffloadThreshold(); got != 0.5 {
		t.Fatalf("threshold moved on fog tier: %v", got)
	}
	if !c.Degraded() {
		t.Fatal("controller should report degraded")
	}
}

// Degradation that is NOT uplink-specific (storage faults: undelivered
// records but no produce errors) walks the threshold down instead of
// migrating, and respects the floor.
func TestControllerStorageDegradationWalksThreshold(t *testing.T) {
	sig := &fakeSignals{evals: map[string]float64{undeliveredExpr: 0}}
	k := NewKnobs(0.5)
	c := NewController(k, testWatchRules(), sig.signals(), nil)

	thresholds := []float64{}
	for i := 0; i < 12; i++ {
		sig.evals[undeliveredExpr]++
		c.Tick()
		thresholds = append(thresholds, k.OffloadThreshold())
	}
	if k.InferenceTier() != TierServer {
		t.Fatalf("migrated on storage degradation (tier %v)", k.InferenceTier())
	}
	if got := k.OffloadThreshold(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("threshold = %v, want floor 0.2 (walk: %v)", got, thresholds)
	}
	if got := c.ActionCount(ActionThresholdLower); got != 3 {
		t.Fatalf("threshold-lower count = %d, want 3 (walk: %v)", got, thresholds)
	}
	// Once the gate is floored, the only remaining mitigation is shedding.
	if k.ShedLevel() == 0 {
		t.Fatal("expected shedding after the threshold floor")
	}
}

// Recovery unwinds in inverse escalation order — restore shed streams,
// migrate back, raise the gate — only after the healthy streak and only
// one step per cooldown.
func TestControllerRecoveryUnwindsInOrder(t *testing.T) {
	sig := &fakeSignals{evals: map[string]float64{
		undeliveredExpr: 0,
		produceErrExpr:  0,
	}}
	k := NewKnobs(0.5)
	c := NewController(k, testWatchRules(), sig.signals(), nil)
	// Degrade far enough to migrate and shed to max.
	for i := 0; i < 6; i++ {
		sig.evals[undeliveredExpr]++
		sig.evals[produceErrExpr]++
		c.Tick()
	}
	if k.InferenceTier() != TierFog || k.ShedLevel() != 2 {
		t.Fatalf("setup: tier %v shed %d", k.InferenceTier(), k.ShedLevel())
	}

	// Go healthy; burn stays flat so nothing re-triggers.
	sig.evals = map[string]float64{}
	var kinds []ActionKind
	before := c.TotalActions()
	for i := 0; i < 20; i++ {
		c.Tick()
		if n := c.TotalActions(); n > before {
			acts := c.Actions(1)
			kinds = append(kinds, acts[0].Kind)
			before = n
		}
	}
	wantKinds := []ActionKind{
		ActionRestore, ActionRestore, ActionMigrateServer, ActionThresholdRaise,
	}
	// Threshold never moved down, so a raise is a no-op candidate — expect
	// exactly restore×2 then migrate-server.
	wantKinds = wantKinds[:3]
	if len(kinds) != len(wantKinds) {
		t.Fatalf("recovery actions = %v, want %v", kinds, wantKinds)
	}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("recovery step %d = %v, want %v (all: %v)", i, kinds[i], wantKinds[i], kinds)
		}
	}
	if k.ShedLevel() != 0 || k.InferenceTier() != TierServer {
		t.Fatalf("not fully recovered: shed %d tier %v", k.ShedLevel(), k.InferenceTier())
	}
}

// A disabled controller (the baseline arm) observes nothing and acts never.
func TestControllerDisabledTakesNoActions(t *testing.T) {
	sig := &fakeSignals{evals: map[string]float64{undeliveredExpr: 5}}
	k := NewKnobs(0.5)
	c := NewController(k, testWatchRules(), sig.signals(), nil)
	c.Disable()
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if c.TotalActions() != 0 {
		t.Fatalf("disabled controller took %d actions", c.TotalActions())
	}
	if k.OffloadThreshold() != 0.5 || k.ShedLevel() != 0 || k.InferenceTier() != TierServer {
		t.Fatal("disabled controller moved a knob")
	}
	st := c.Status()
	if st.Enabled || st.Tick != 10 {
		t.Fatalf("status = %+v", st)
	}
}

// The controller's own control-* rules never count as degraded — watching
// them would hold mitigations in place forever.
func TestControllerIgnoresUnwatchedRules(t *testing.T) {
	sig := &fakeSignals{
		firing: []string{"control-load-shedding", "control-inference-migrated"},
		evals:  map[string]float64{},
	}
	k := NewKnobs(0.5)
	c := NewController(k, testWatchRules(), sig.signals(), nil)
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	if c.Degraded() || c.TotalActions() != 0 {
		t.Fatalf("controller reacted to its own rules: degraded=%v actions=%d",
			c.Degraded(), c.TotalActions())
	}
}

// Plateaued burn (the hour-long SLO window outliving an incident) must not
// pin the controller degraded; only rising burn counts.
func TestControllerBurnPlateauRecovers(t *testing.T) {
	sig := &fakeSignals{burn: 0, evals: map[string]float64{}}
	k := NewKnobs(0.5)
	c := NewController(k, testWatchRules(), sig.signals(), nil)

	sig.burn = 5 // rising from 0
	c.Tick()
	if !c.Degraded() {
		t.Fatal("rising burn should degrade")
	}
	// Burn stays at 5 (windowed history, incident over).
	for i := 0; i < 4; i++ {
		c.Tick()
	}
	if c.Degraded() {
		t.Fatal("plateaued burn should read healthy")
	}
}

// The action ring keeps the newest historyCap actions, oldest first, while
// the per-kind counters keep counting everything.
func TestControllerKeepsNewestActions(t *testing.T) {
	sig := &fakeSignals{evals: map[string]float64{undeliveredExpr: 0}}
	c := NewController(NewKnobs(0.5), testWatchRules(), sig.signals(), nil)
	var all []Action
	// Each cycle walks the gate down on six degraded ticks and back up on
	// twelve healthy ones: four actions a cycle.
	for cycle := 0; cycle < 100 && len(all) <= 2*historyCap; cycle++ {
		for i := 0; i < 18; i++ {
			if i < 6 {
				sig.evals[undeliveredExpr]++
			}
			before := c.TotalActions()
			c.Tick()
			if c.TotalActions() > before {
				all = append(all, c.Actions(1)[0])
			}
		}
	}
	if len(all) <= historyCap {
		t.Fatalf("only %d actions fired, want more than %d", len(all), historyCap)
	}
	if got := c.TotalActions(); got != int64(len(all)) {
		t.Fatalf("total actions = %d, want %d", got, len(all))
	}
	kept := c.Actions(0)
	if !reflect.DeepEqual(kept, all[len(all)-historyCap:]) {
		t.Fatalf("ring kept %d actions %v..., want the newest %d", len(kept), kept[:2], historyCap)
	}
	if st := c.Status(); len(st.Actions) != historyCap {
		t.Fatalf("status lists %d actions, want %d", len(st.Actions), historyCap)
	}
}

func TestOffloadEnvDeterministicAndBounded(t *testing.T) {
	d, err := fog.BuildDeployment(fog.DefaultDeploymentConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) []float64 {
		env, err := NewOffloadEnv(d, OffloadEnvConfig{Items: 32, MaxSteps: 6})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		s := env.Reset(rng)
		if len(s) != env.StateDim() {
			t.Fatalf("state dim %d, want %d", len(s), env.StateDim())
		}
		var rewards []float64
		for i := 0; ; i++ {
			next, r, done := env.Step(i%env.NumActions(), rng)
			rewards = append(rewards, r)
			if next[0] < 0 || next[0] > 1 {
				t.Fatalf("threshold escaped [0,1]: %v", next[0])
			}
			if done {
				break
			}
		}
		if len(rewards) != 6 {
			t.Fatalf("episode ran %d steps, want 6", len(rewards))
		}
		return rewards
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}
