package tsdb

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/telemetry"
)

// Alert rule comparison operators.
const (
	CmpGT = ">"
	CmpLT = "<"
)

// Rule states. A rule leaves Firing through a "resolved" transition that is
// logged but lands back in StateInactive — resolved is an edge, not a state.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
)

// Rule is one declarative alert: an expression evaluated every scrape tick
// plus at least one condition. A static threshold (Op non-empty) breaches
// when `value Op Threshold`; an anomaly detector (ZScore > 0) breaches when
// the value sits more than ZScore weighted standard deviations from its
// EWMA baseline. A rule with both breaches when either condition trips —
// unless AndConditions is set, in which case both must trip together (the
// shape for "anomalous AND above an absolute floor", which keeps tiny
// baseline wobbles from paging).
type Rule struct {
	Name     string `json:"name"`
	Expr     string `json:"expr"`
	Severity string `json:"severity"` // telemetry.LevelWarn or LevelError

	// Static threshold condition.
	Op        string  `json:"op,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`

	// EWMA z-score anomaly condition.
	ZScore float64 `json:"zscore,omitempty"`
	// Alpha is the EWMA decay in (0,1]; 0 means 0.3. Larger adapts faster.
	Alpha float64 `json:"alpha,omitempty"`
	// WarmupTicks is how many evaluations must seed the baseline before the
	// z-score may breach (0 means 5).
	WarmupTicks int `json:"warmupTicks,omitempty"`

	// AndConditions requires every configured condition to breach on the
	// same evaluation (ignored unless both Op and ZScore are set).
	AndConditions bool `json:"andConditions,omitempty"`

	// ForTicks is how many consecutive breaching evaluations beyond the
	// first are required before Pending escalates to Firing (0 fires on the
	// first breach).
	ForTicks int `json:"forTicks,omitempty"`

	// ExemplarFrom optionally names a histogram family whose worst-bucket
	// exemplar trace id is attached to this rule's firing event, so the
	// alert resolves to an inspectable trace.
	ExemplarFrom string `json:"exemplarFrom,omitempty"`
}

// RuleStatus is one rule's live evaluation state, as served by
// GET /api/alerting.
type RuleStatus struct {
	Rule         Rule    `json:"rule"`
	State        string  `json:"state"`
	SinceUnixNs  int64   `json:"sinceUnixNs"` // when the current state began
	BreachTicks  int     `json:"breachTicks"` // consecutive breaching evals
	LastValue    float64 `json:"lastValue"`
	LastEvalOK   bool    `json:"lastEvalOk"`
	LastError    string  `json:"lastError,omitempty"`
	EWMA         float64 `json:"ewma"`
	EWStd        float64 `json:"ewstd"`
	Evals        int64   `json:"evals"`
	Transitions  int64   `json:"transitions"`
	FiredCount   int64   `json:"firedCount"`
	LastExemplar string  `json:"lastExemplar,omitempty"`
}

// ruleState is the engine's mutable per-rule record.
type ruleState struct {
	rule  Rule
	q     query       // rule.Expr, parsed once by AddRule
	match seriesMatch // q's selector matches, kept between evaluations
	state string
	since int64
	// EWMA baseline for the anomaly condition.
	mean, varEW float64
	warm        int
	// Streaks and accounting.
	breach      int
	lastValue   float64
	lastOK      bool
	lastErr     string
	evals       int64
	transitions int64
	fired       int64
	exemplar    string
}

// Engine evaluates alert rules against a Store every scrape tick and walks
// each rule through inactive → pending → firing → resolved transitions,
// logging every transition into the event log and exporting firing/pending
// gauges on the registry (cityinfra_tsdb_alerts_firing,
// cityinfra_tsdb_alerts_pending, and a per-rule state gauge).
type Engine struct {
	store  *Store
	events *telemetry.EventLog

	mu    sync.Mutex
	rules []*ruleState
}

// NewEngine builds an engine over the store, logging transitions into
// events (nil means transitions are not logged) and exporting its gauges on
// reg (nil means no gauges).
func NewEngine(store *Store, reg *telemetry.Registry, events *telemetry.EventLog) *Engine {
	e := &Engine{store: store, events: events}
	if reg != nil {
		reg.GaugeFunc("cityinfra_tsdb_alerts_firing", "alert rules currently firing",
			func() float64 { return float64(e.countState(StateFiring)) })
		reg.GaugeFunc("cityinfra_tsdb_alerts_pending", "alert rules currently pending",
			func() float64 { return float64(e.countState(StatePending)) })
	}
	return e
}

// AddRule registers one rule, normalizing defaults, and exports its state
// gauge (0=inactive, 1=pending, 2=firing) on reg when non-nil.
func (e *Engine) AddRule(r Rule, reg *telemetry.Registry) error {
	if r.Name == "" || r.Expr == "" {
		return fmt.Errorf("%w: rule needs a name and an expr", ErrBadExpr)
	}
	if r.Op == "" && r.ZScore <= 0 {
		return fmt.Errorf("%w: rule %s has no condition", ErrBadExpr, r.Name)
	}
	if r.Op != "" && r.Op != CmpGT && r.Op != CmpLT {
		return fmt.Errorf("%w: rule %s op %q", ErrBadExpr, r.Name, r.Op)
	}
	q, err := parseExpr(r.Expr)
	if err != nil {
		return fmt.Errorf("rule %s: %w", r.Name, err)
	}
	if r.Severity == "" {
		r.Severity = telemetry.LevelWarn
	}
	if r.Alpha <= 0 || r.Alpha > 1 {
		r.Alpha = 0.3
	}
	if r.WarmupTicks <= 0 {
		r.WarmupTicks = 5
	}
	st := &ruleState{rule: r, q: q, state: StateInactive, since: e.store.Now().UnixNano()}
	e.mu.Lock()
	e.rules = append(e.rules, st)
	e.mu.Unlock()
	if reg != nil {
		reg.GaugeFunc(telemetry.FormatName("cityinfra_tsdb_alert_state", telemetry.LabelSet{{Key: "rule", Value: r.Name}}),
			"0=inactive, 1=pending, 2=firing", func() float64 {
				switch e.ruleStateOf(r.Name) {
				case StateFiring:
					return 2
				case StatePending:
					return 1
				default:
					return 0
				}
			})
	}
	return nil
}

func (e *Engine) countState(state string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, r := range e.rules {
		if r.state == state {
			n++
		}
	}
	return n
}

func (e *Engine) ruleStateOf(name string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.rules {
		if r.rule.Name == name {
			return r.state
		}
	}
	return StateInactive
}

// Eval evaluates every rule once at the store's current clock reading.
// Call it once per scrape tick, after Store.Scrape.
func (e *Engine) Eval() {
	at := e.store.Now()
	e.mu.Lock()
	rules := make([]*ruleState, len(e.rules))
	copy(rules, e.rules)
	e.mu.Unlock()
	for _, rs := range rules {
		e.mu.Lock()
		m := rs.match
		e.mu.Unlock()
		v, err := e.store.evalRule(rs.q, rs.rule.Expr, at, &m)
		e.mu.Lock()
		rs.match = m
		rs.evals++
		if err != nil {
			// Missing series or a window not yet filled is "no data", which
			// never breaches; the error is surfaced on /api/alerting.
			rs.lastOK, rs.lastErr = false, err.Error()
			e.step(rs, false, at.UnixNano())
			e.mu.Unlock()
			continue
		}
		rs.lastOK, rs.lastErr, rs.lastValue = true, "", v.Value
		breach := e.detect(rs, v.Value)
		e.step(rs, breach, at.UnixNano())
		e.mu.Unlock()
	}
}

// detect runs the rule's conditions against one value and updates the EWMA
// baseline. The z-score uses the pre-update baseline, so the breaching value
// does not defend itself by inflating the variance it is judged against.
func (e *Engine) detect(rs *ruleState, v float64) bool {
	r := rs.rule
	opBreach := (r.Op == CmpGT && v > r.Threshold) || (r.Op == CmpLT && v < r.Threshold)
	zBreach := false
	if r.ZScore > 0 {
		if rs.warm >= r.WarmupTicks {
			if std := math.Sqrt(rs.varEW); std > 0 && math.Abs(v-rs.mean)/std > r.ZScore {
				zBreach = true
			}
		}
		if rs.warm == 0 {
			rs.mean = v
		} else {
			diff := v - rs.mean
			incr := r.Alpha * diff
			rs.mean += incr
			rs.varEW = (1 - r.Alpha) * (rs.varEW + diff*incr)
		}
		rs.warm++
	}
	if r.AndConditions && r.Op != "" && r.ZScore > 0 {
		return opBreach && zBreach
	}
	return opBreach || zBreach
}

// step advances one rule's state machine by one evaluation (caller holds
// e.mu).
func (e *Engine) step(rs *ruleState, breach bool, atNs int64) {
	r := rs.rule
	if !breach {
		rs.breach = 0
		switch rs.state {
		case StateFiring:
			e.transition(rs, StateInactive, atNs)
			e.log(telemetry.LevelInfo, rs.exemplar,
				"alert %s resolved (value %.6g)", r.Name, rs.lastValue)
		case StatePending:
			e.transition(rs, StateInactive, atNs)
			e.log(telemetry.LevelInfo, "",
				"alert %s pending cleared (value %.6g)", r.Name, rs.lastValue)
		}
		return
	}
	rs.breach++
	switch rs.state {
	case StateInactive:
		if r.ForTicks <= 0 {
			e.fire(rs, atNs)
			return
		}
		e.transition(rs, StatePending, atNs)
		e.log(telemetry.LevelInfo, "",
			"alert %s pending: %s = %.6g", r.Name, r.Expr, rs.lastValue)
	case StatePending:
		// The first breach put the rule into pending, so ForTicks more
		// breaches means ForTicks+1 consecutive breaching evaluations.
		if rs.breach > r.ForTicks {
			e.fire(rs, atNs)
		}
	}
}

// fire transitions a rule into Firing, correlating the event with the
// configured histogram's freshest exemplar trace when one exists.
func (e *Engine) fire(rs *ruleState, atNs int64) {
	rs.exemplar = ""
	if rs.rule.ExemplarFrom != "" {
		rs.exemplar = e.store.ExemplarTrace(rs.rule.ExemplarFrom)
	}
	e.transition(rs, StateFiring, atNs)
	rs.fired++
	e.log(rs.rule.Severity, rs.exemplar,
		"alert %s firing: %s = %.6g", rs.rule.Name, rs.rule.Expr, rs.lastValue)
}

func (e *Engine) transition(rs *ruleState, to string, atNs int64) {
	rs.state = to
	rs.since = atNs
	rs.transitions++
}

func (e *Engine) log(level, traceID, format string, args ...any) {
	if e.events != nil {
		e.events.Log(level, telemetry.CompAlerts, traceID, format, args...)
	}
}

// States returns every rule's live status in registration order.
func (e *Engine) States() []RuleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RuleStatus, len(e.rules))
	for i, rs := range e.rules {
		out[i] = RuleStatus{
			Rule: rs.rule, State: rs.state, SinceUnixNs: rs.since,
			BreachTicks: rs.breach, LastValue: rs.lastValue,
			LastEvalOK: rs.lastOK, LastError: rs.lastErr,
			EWMA: rs.mean, EWStd: math.Sqrt(rs.varEW),
			Evals: rs.evals, Transitions: rs.transitions, FiredCount: rs.fired,
			LastExemplar: rs.exemplar,
		}
	}
	return out
}

// Firing returns the names of rules currently firing.
func (e *Engine) Firing() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, rs := range e.rules {
		if rs.state == StateFiring {
			out = append(out, rs.rule.Name)
		}
	}
	return out
}

// RuleRef is a light (name, state, severity, exemplar) view of one rule —
// what per-tick consumers need without the full RuleStatus export.
type RuleRef struct {
	Name     string
	State    string
	Severity string
	Exemplar string
}

// ActiveAppend appends a RuleRef for every rule whose state is not inactive
// (pending or firing) to buf and returns it. Passing a reused buf[:0] with
// enough capacity makes the call allocation-free — the incident engine polls
// this every monitor tick, where the common case is "nothing active".
func (e *Engine) ActiveAppend(buf []RuleRef) []RuleRef {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rs := range e.rules {
		if rs.state == StatePending || rs.state == StateFiring {
			buf = append(buf, RuleRef{
				Name: rs.rule.Name, State: rs.state,
				Severity: rs.rule.Severity, Exemplar: rs.exemplar,
			})
		}
	}
	return buf
}
