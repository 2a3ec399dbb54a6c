package control

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// ActionKind names one typed controller action.
type ActionKind string

// The controller's action vocabulary. Degradation walks down the list
// (migrate before gate-tightening before shedding only when its trigger
// condition holds); recovery walks the inverse (restore shed streams first,
// migrate back, then relax the gate).
const (
	// ActionThresholdLower tightens the early-exit gate so fewer frames
	// offload feature maps upstream.
	ActionThresholdLower ActionKind = "threshold-lower"
	// ActionThresholdRaise relaxes the gate back toward its target.
	ActionThresholdRaise ActionKind = "threshold-raise"
	// ActionMigrateFog moves inference to the fog tier, off the broker
	// uplink and analysis servers.
	ActionMigrateFog ActionKind = "migrate-fog"
	// ActionMigrateServer moves inference back to the analysis tier.
	ActionMigrateServer ActionKind = "migrate-server"
	// ActionShed raises the priority admission floor one level.
	ActionShed ActionKind = "shed"
	// ActionRestore lowers the admission floor one level.
	ActionRestore ActionKind = "restore"
)

// ActionKinds lists every action kind in a fixed order (for metric
// registration and reports).
func ActionKinds() []ActionKind {
	return []ActionKind{
		ActionThresholdLower, ActionThresholdRaise,
		ActionMigrateFog, ActionMigrateServer,
		ActionShed, ActionRestore,
	}
}

// Action is one knob change the controller took.
type Action struct {
	Tick   int        `json:"tick"`
	Kind   ActionKind `json:"kind"`
	Reason string     `json:"reason"`
	// Value is the knob's new value (threshold, tier as 0/1, shed level).
	Value float64 `json:"value"`
}

// Signals are the read-only observability inputs the controller consumes.
// The core package wires them from the live TSDB, alert engine and SLO
// monitor (the breaker reaches the controller as the breaker-open rule);
// tests substitute synthetic closures. Any nil signal reads as healthy.
type Signals struct {
	// Firing returns the names of currently-firing alert rules.
	Firing func() []string
	// BurnRate returns the current burn rate of the SLO the controller
	// guards (1.0 = budget draining exactly on schedule).
	BurnRate func() float64
	// Eval evaluates an instant query at the current simulated time,
	// returning ok=false when the series is missing or the query fails.
	Eval func(expr string) (value float64, ok bool)
}

// The controller's setpoints and hysteresis: act after one degraded tick,
// recover after three healthy ones, one action per kind per two ticks.
const (
	// thresholdMin bounds how far degradation can tighten the offload gate;
	// thresholdStep is the per-action increment.
	thresholdMin  = 0.2
	thresholdStep = 0.1
	// degradeTicks is how many consecutive degraded ticks arm an action;
	// recoverTicks how many consecutive healthy ticks arm a recovery step.
	degradeTicks = 1
	recoverTicks = 3
	// cooldownTicks is the per-action-kind refractory period, so one
	// sustained incident produces a staircase of actions, not a cliff.
	cooldownTicks = 2
	// maxShedLevel caps the admission floor.
	maxShedLevel = 2
	// historyCap caps the retained action ring.
	historyCap = 64
)

// Status is the controller's introspection snapshot (GET /api/control).
type Status struct {
	Enabled          bool             `json:"enabled"`
	Tick             int              `json:"tick"`
	Degraded         bool             `json:"degraded"`
	DegradedStreak   int              `json:"degradedStreak"`
	HealthyStreak    int              `json:"healthyStreak"`
	OffloadThreshold float64          `json:"offloadThreshold"`
	InferenceTier    string           `json:"inferenceTier"`
	ShedLevel        int              `json:"shedLevel"`
	LastReason       string           `json:"lastReason,omitempty"`
	ActionCounts     map[string]int64 `json:"actionCounts"`
	// Actions lists retained actions oldest-first.
	Actions []Action `json:"actions"`
}

// Controller is the closed-loop tuner. Tick is called once per monitor
// tick after the scrape and alert evaluation; everything else is safe to
// call concurrently.
type Controller struct {
	knobs *Knobs
	// target is the healthy-state offload threshold the controller relaxes
	// back to: the knob's value when the controller was built.
	target float64
	// watch names the alert rules whose firing counts as degraded. The
	// controller's own exported state must never appear here — watching
	// control-* rules would close a positive feedback loop.
	watch   []string
	sig     Signals
	events  *telemetry.EventLog
	enabled atomic.Bool

	mu             sync.Mutex
	tick           int
	lastBurn       float64
	lastUndeliv    float64
	lastProduceErr float64
	produceErrUp   bool
	degraded       bool
	degradedStreak int
	healthyStreak  int
	lastReason     string
	lastFired      map[ActionKind]int
	counts         map[ActionKind]int64
	actions        []Action
}

// NewController builds a controller over the given knobs, starting enabled.
// The knobs' current offload threshold becomes the healthy-state target;
// watchRules names the alert rules whose firing counts as degraded. events
// may be nil (actions then go unlogged).
func NewController(knobs *Knobs, watchRules []string, sig Signals, events *telemetry.EventLog) *Controller {
	c := &Controller{
		knobs:     knobs,
		target:    knobs.OffloadThreshold(),
		watch:     watchRules,
		sig:       sig,
		events:    events,
		lastFired: make(map[ActionKind]int),
		counts:    make(map[ActionKind]int64),
	}
	c.enabled.Store(true)
	return c
}

// Disable freezes the loop (ticks still count, but no signals are read and
// no actions fire) — the static-threshold baseline arm.
func (c *Controller) Disable() { c.enabled.Store(false) }

// Degraded reports the last tick's health verdict.
func (c *Controller) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// ActionCount returns how many actions of one kind have fired.
func (c *Controller) ActionCount(kind ActionKind) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[kind]
}

// TotalActions returns the count of all actions ever fired.
func (c *Controller) TotalActions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, v := range c.counts {
		n += v
	}
	return n
}

// Actions returns up to limit retained actions, oldest-first (limit <= 0
// means all retained).
func (c *Controller) Actions(limit int) []Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.actions
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return append([]Action(nil), out...)
}

// Status snapshots the controller for the API and watch pane.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Every kind appears in the map, zero or not, so consumers (the API,
	// the watch pane) render a stable set of rows.
	counts := make(map[string]int64, len(ActionKinds()))
	for _, k := range ActionKinds() {
		counts[string(k)] = c.counts[k]
	}
	return Status{
		Enabled:          c.enabled.Load(),
		Tick:             c.tick,
		Degraded:         c.degraded,
		DegradedStreak:   c.degradedStreak,
		HealthyStreak:    c.healthyStreak,
		OffloadThreshold: c.knobs.OffloadThreshold(),
		InferenceTier:    c.knobs.InferenceTier().String(),
		ShedLevel:        c.knobs.ShedLevel(),
		LastReason:       c.lastReason,
		ActionCounts:     counts,
		Actions:          append([]Action(nil), c.actions...),
	}
}

// Tick runs one control cycle: classify the system as degraded or healthy
// from the wired signals, update the hysteresis streaks, and fire at most
// one action whose kind is off cooldown. Deterministic: no clocks, no
// randomness — identical signal sequences produce identical action
// sequences.
func (c *Controller) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if !c.enabled.Load() {
		return
	}

	degraded, reason := c.classify()
	c.degraded = degraded
	if degraded {
		c.degradedStreak++
		c.healthyStreak = 0
	} else {
		c.healthyStreak++
		c.degradedStreak = 0
	}

	if degraded && c.degradedStreak >= degradeTicks {
		c.actDegraded(reason)
	} else if !degraded && c.healthyStreak >= recoverTicks {
		c.actRecover()
	}
}

// classify reads the signals and returns the health verdict with the first
// reason that tripped it. The SLO burn signal compares against the previous
// tick's value: the burn window (an hour of simulated time) far outlives an
// incident, so a *level* test would pin the controller degraded long after
// the errors stop — only actively-rising burn counts.
func (c *Controller) classify() (bool, string) {
	burnRising := false
	if c.sig.BurnRate != nil {
		b := c.sig.BurnRate()
		burnRising = b > 1 && b > c.lastBurn+1e-9
		c.lastBurn = b
	}
	// Counters are compared level-over-level instead of through windowed
	// TSDB queries: retry backoff advances the simulated clock unevenly, so
	// a fixed window can hold a single sample mid-incident and the query
	// errors out. The level comparison is immune to clock jumps, and it
	// keeps every decision a pure function of the deterministic counter
	// stream — the same seed replays the same actions byte for byte.
	undelivRising := c.counterRising("cityinfra_pipeline_undelivered_total", &c.lastUndeliv)
	c.produceErrUp = c.counterRising("cityinfra_broker_produce_errors_total", &c.lastProduceErr)
	if undelivRising {
		return true, "undelivered records rising"
	}
	if c.sig.Firing != nil {
		watched := c.watchedFiring()
		if len(watched) > 0 {
			return true, "alert firing: " + watched[0]
		}
	}
	if burnRising {
		return true, "slo burn rising past 1"
	}
	return false, ""
}

// counterRising samples one cumulative counter via an instant query and
// reports whether it moved up since the previous tick. A missing series or
// failed eval reads as flat; the remembered level only advances on
// successful reads.
func (c *Controller) counterRising(name string, last *float64) bool {
	if c.sig.Eval == nil {
		return false
	}
	v, ok := c.sig.Eval(name)
	if !ok {
		return false
	}
	rising := v > *last
	*last = v
	return rising
}

// watchedFiring filters the firing rules down to the watch list (nil watch
// list matches none — core always passes an explicit list, keeping the
// controller's own exported state out of its inputs).
func (c *Controller) watchedFiring() []string {
	if c.sig.Firing == nil || len(c.watch) == 0 {
		return nil
	}
	firing := c.sig.Firing()
	var out []string
	for _, name := range firing {
		for _, w := range c.watch {
			if name == w {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// uplinkStressed decides whether degradation points at the broker/server
// path specifically (vs storage faults both tiers share): recent produce
// errors or under-replication. The shared breaker opening is deliberately
// NOT sufficient — it trips on storage faults too, and migrating away from
// the server tier would not help those.
func (c *Controller) uplinkStressed() (bool, string) {
	if c.produceErrUp {
		return true, "broker produce errors rising"
	}
	for _, name := range c.watchedFiring() {
		if name == "broker-under-replicated" {
			return true, "broker under-replicated"
		}
	}
	return false, ""
}

// actDegraded picks the single most-preferred applicable mitigation —
// migrate off a stressed uplink, else tighten the offload gate, else shed
// low-priority streams — and fires it only if its kind is off cooldown. A
// cooling-down candidate makes the controller wait, never escalate: the
// staircase down to shedding is gated on the gentler knobs being exhausted,
// not on their refractory period.
func (c *Controller) actDegraded(reason string) {
	if c.knobs.InferenceTier() == TierServer {
		if stressed, why := c.uplinkStressed(); stressed {
			if c.ready(ActionMigrateFog) {
				c.knobs.SetInferenceTier(TierFog)
				c.fire(ActionMigrateFog, reason+"; "+why, float64(TierFog))
			}
			return
		}
		// knobEps absorbs float drift in the 0.1 steps so the walk lands
		// exactly on the floor/target instead of 4e-17 past it.
		if thr := c.knobs.OffloadThreshold(); thr > thresholdMin+knobEps {
			if c.ready(ActionThresholdLower) {
				next := thr - thresholdStep
				if next < thresholdMin+knobEps {
					next = thresholdMin
				}
				c.knobs.SetOffloadThreshold(next)
				c.fire(ActionThresholdLower, reason, next)
			}
			return
		}
	}
	if lvl := c.knobs.ShedLevel(); lvl < maxShedLevel && c.ready(ActionShed) {
		c.knobs.SetShedLevel(lvl + 1)
		c.fire(ActionShed, reason, float64(lvl+1))
	}
}

// actRecover unwinds mitigations in the inverse order they escalate:
// restore shed streams first (operators notice missing cameras before a
// conservative gate), migrate back, then relax the gate — one step per
// cooldown, so recovery probes instead of snapping back.
func (c *Controller) actRecover() {
	if lvl := c.knobs.ShedLevel(); lvl > 0 {
		if c.ready(ActionRestore) {
			c.knobs.SetShedLevel(lvl - 1)
			c.fire(ActionRestore, "healthy streak", float64(lvl-1))
		}
		return
	}
	if c.knobs.InferenceTier() == TierFog {
		if c.ready(ActionMigrateServer) {
			c.knobs.SetInferenceTier(TierServer)
			c.fire(ActionMigrateServer, "healthy streak", float64(TierServer))
		}
		return
	}
	if thr := c.knobs.OffloadThreshold(); thr < c.target-knobEps && c.ready(ActionThresholdRaise) {
		next := thr + thresholdStep
		if next > c.target-knobEps {
			next = c.target
		}
		c.knobs.SetOffloadThreshold(next)
		c.fire(ActionThresholdRaise, "healthy streak", next)
	}
}

// knobEps absorbs IEEE-754 drift in repeated threshold steps.
const knobEps = 1e-9

// ready reports whether an action kind is off cooldown this tick.
func (c *Controller) ready(kind ActionKind) bool {
	last, ok := c.lastFired[kind]
	return !ok || c.tick-last > cooldownTicks
}

// fire records one action in the ring, the counters, and the event log.
func (c *Controller) fire(kind ActionKind, reason string, value float64) {
	c.lastFired[kind] = c.tick
	c.counts[kind]++
	c.lastReason = reason
	a := Action{Tick: c.tick, Kind: kind, Reason: reason, Value: value}
	c.actions = append(c.actions, a)
	if len(c.actions) > historyCap {
		c.actions = c.actions[len(c.actions)-historyCap:]
	}
	if c.events != nil {
		c.events.Log(telemetry.LevelInfo, telemetry.CompControl, "",
			"action %s → %.2f (%s)", kind, value, reason)
	}
}
