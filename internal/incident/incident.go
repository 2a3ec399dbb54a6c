// Package incident is the cross-signal correlation layer: it joins the
// stack's separate telemetry channels — trace spans, the structured event
// ring, alert-rule state, controller actions — into component-level
// diagnoses. Every trace span folds into a live dependency graph with
// per-edge RED stats when it ends (FoldSpan, registered as the tracer's
// observer). Each monitor tick it (a) groups temporally overlapping
// pending/firing alerts into one incident record and (b) ranks suspect
// components for the open incident by walking the graph from the alerted
// symptoms toward causes, scoring with dead-letter, breaker, healer, and
// broker evidence.
//
// Determinism: everything that feeds incident lifecycle and suspect scores
// is deterministic under the simulated clock — event *counts* by typed
// component, dead-letter stage attribution, alert states, span topology.
// Wall-clock inputs (span durations, profiler hot-region shares, event
// timestamps, which trace exemplifies a latency tail) are carried as
// diagnostics only and are excluded from Canonical(), so the same seed
// replays byte-identical incidents.
package incident

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// Evidence weights: a quarantined record is the strongest per-event signal
// a backend failed; infra lifecycle warnings (broker crash, healer repair)
// are strong but can also fire during recovery; breaker transitions and
// breaker-collateral quarantines implicate the shared breaker, not any one
// backend, so they score low and mostly break ties.
const (
	weightDLQ     = 3.0
	weightInfra   = 2.0
	weightBreaker = 1.0
	weightRuleHit = 1.0
	// unreachableFactor damps components no alerted symptom can reach by
	// walking the dependency graph — evidence without a causal path.
	unreachableFactor = 0.1
	// breakerSaturation caps how much breaker evidence counts toward a
	// score. A flapping breaker emits a transition pair per probe, so raw
	// counts grow with retry volume, not with how implicated the breaker
	// is — past saturation more transitions add no information, and the
	// backend that tripped the breaker must outrank the breaker itself.
	breakerSaturation = 12
)

// seqMarkWindow bounds lookbackTicks: the engine remembers this many ticks
// of event-sequence watermarks.
const seqMarkWindow = 8

// The engine's bounds.
const (
	// maxResolved bounds the resolved-incident ring.
	maxResolved = 32
	// maxTimeline bounds a single incident's timeline; overflow is counted
	// in TimelineDropped rather than silently lost.
	maxTimeline = 96
	// maxSuspects bounds the exported suspect ranking.
	maxSuspects = 5
	// maxExemplars bounds the exemplar trace ids carried per incident.
	maxExemplars = 4
	// lookbackTicks is how many ticks of pre-open events fold into a new
	// incident — alerts trail the evidence that caused them by one or two
	// scrape ticks. It must stay below seqMarkWindow.
	lookbackTicks = 3
	// reopenTicks is the flap-damping grace: a watched rule going active
	// within this many ticks of the last resolution reopens that incident
	// instead of opening a new one, so an alert flapping across its
	// threshold during recovery yields one episode, not one per flap.
	reopenTicks = 3
)

// The build fails here if lookbackTicks reaches seqMarkWindow.
const _ = uint(seqMarkWindow - 1 - lookbackTicks)

// AlertSource is the slice of the alert engine the correlator needs: an
// allocation-free read of the currently pending/firing rules.
type AlertSource interface {
	ActiveAppend([]tsdb.RuleRef) []tsdb.RuleRef
}

// Config declares the topology knowledge the engine cannot derive from
// traces alone.
type Config struct {
	// Bindings attaches backend nodes under trace stages: span name (or
	// "root/span" for per-pipeline overrides, or a bare root name) → the
	// backend components that stage calls into.
	Bindings map[string][]string
	// StageBackends maps a dead-letter quarantine stage to the backend
	// whose failure it evidences. Stages absent here (decode) stay
	// unattributed.
	StageBackends map[string]string
	// SourceRoots maps a dead-letter source (pipeline short name) to its
	// trace-root node, for per-edge error attribution.
	SourceRoots map[string]string
	// Watch names the alert rules that open and hold an incident, each
	// mapped to the components it directly implicates; an empty list is a
	// generic symptom anchored at every ingest root. Other rules, and their
	// transition events, are ignored.
	Watch map[string][]string
	// CollateralMarkers are substrings of a quarantine cause that mark the
	// loss as breaker fail-fast collateral: the shared breaker was open, so
	// the record never reached the stage's backend and must not implicate
	// it.
	CollateralMarkers []string
}

// TimelineEntry is one step of an incident's unified timeline: an event
// from any emitter (alerts, controller, breaker, broker, dead letters,
// chaos markers) stamped with the monitor tick it was correlated on.
type TimelineEntry struct {
	Tick      int64  `json:"tick"`
	Seq       int64  `json:"seq,omitempty"`
	Level     string `json:"level"`
	Component string `json:"component"`
	Message   string `json:"message"`
	TraceID   string `json:"traceId,omitempty"`
}

// Suspect is one ranked root-cause candidate with its evidence breakdown.
// Depth is the minimum dependency-graph distance from an alerted symptom
// (-1 when unreachable). Evidence carries human-readable detail strings
// supplied by the SetEvidence hook (for the frame path: which cameras this
// component's failure is hurting) — they must be deterministic, because they
// ride Canonical().
type Suspect struct {
	Component string   `json:"component"`
	Score     float64  `json:"score"`
	Depth     int      `json:"depth"`
	DLQ       int      `json:"dlq,omitempty"`
	Infra     int      `json:"infra,omitempty"`
	Breaker   int      `json:"breaker,omitempty"`
	RuleHits  int      `json:"ruleHits,omitempty"`
	Evidence  []string `json:"evidence,omitempty"`
}

// Incident states.
const (
	StateOpen     = "open"
	StateResolved = "resolved"
)

// Incident is one correlated failure episode: every watched alert that was
// active while it ran, the ranked suspects, exemplar traces, and the
// unified timeline from open to resolve. HotRegion/HotShare are wall-clock
// profiler diagnostics, excluded from Canonical().
type Incident struct {
	ID              string          `json:"id"`
	State           string          `json:"state"`
	OpenedTick      int64           `json:"openedTick"`
	ResolvedTick    int64           `json:"resolvedTick,omitempty"`
	Rules           []string        `json:"rules"`
	Suspects        []Suspect       `json:"suspects"`
	Exemplars       []string        `json:"exemplars,omitempty"`
	Timeline        []TimelineEntry `json:"timeline"`
	TimelineDropped int             `json:"timelineDropped,omitempty"`
	HotRegion       string          `json:"hotRegion,omitempty"`
	HotShare        float64         `json:"hotShare,omitempty"`

	ruleSet  map[string]bool
	evidence map[string]*evidence
}

type evidence struct {
	dlq     int
	infra   int
	breaker int
}

// Engine is the correlation engine. All methods are safe for concurrent
// use; Tick is designed to be allocation-free in the steady state (no new
// events, no active alerts), and so is FoldSpan once a span's (root, name,
// parent) has been seen.
type Engine struct {
	cfg    Config
	events *telemetry.EventLog
	alerts AlertSource

	// hot supplies the profiler's current hottest region and its share —
	// wall-clock measurement, attached to incidents as a diagnostic only.
	hot func() (string, float64)
	// evidenceFor supplies per-component detail strings for ranked suspects
	// (nil component answers are fine). Must be deterministic: the strings
	// are part of Canonical().
	evidenceFor func(component string) []string

	mu        sync.Mutex
	tick      int64
	graph     *graph
	sites     map[spanKey]*spanSite
	lastSeq   int64
	seqMark   [seqMarkWindow]int64
	activeBuf []tsdb.RuleRef

	open          *Incident
	resolved      []*Incident
	nextID        int64
	openedTotal   int64
	resolvedTotal int64
}

// NewEngine builds an engine over the stack's event log and alert engine.
// alerts may be nil (alert grouping degrades to a no-op — useful in unit
// tests); events must not be nil. The graph grows from the spans handed to
// FoldSpan: register it with Tracer.SetObserver.
func NewEngine(events *telemetry.EventLog, alerts AlertSource, cfg Config) *Engine {
	return &Engine{
		cfg: cfg, events: events, alerts: alerts,
		graph: newGraph(), sites: make(map[spanKey]*spanSite),
	}
}

// SetHotRegion wires the profiler diagnostic. Optional.
func (e *Engine) SetHotRegion(fn func() (string, float64)) {
	e.mu.Lock()
	e.hot = fn
	e.mu.Unlock()
}

// SetEvidence wires the per-suspect detail supplier. Optional. The function
// is called during suspect ranking (under the engine lock) and must not call
// back into the engine; its output must be deterministic for a given
// telemetry state, since it lands in Canonical().
func (e *Engine) SetEvidence(fn func(component string) []string) {
	e.mu.Lock()
	e.evidenceFor = fn
	e.mu.Unlock()
}

// Tick runs one correlation pass: classify new events and advance incident
// lifecycle off the current alert state. Spans that ended since the last
// pass are already in the graph; they count as this tick's.
// Call it after the alert engine evaluated and before the controller acts,
// so the controller's mitigations land in the same tick's timeline.
func (e *Engine) Tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tick++
	e.seqMark[e.tick%seqMarkWindow] = e.lastSeq

	if evs := e.events.EventsSince(e.lastSeq, 0); len(evs) > 0 {
		e.lastSeq = evs[len(evs)-1].Seq
		for i := range evs {
			e.accountEvent(&evs[i])
			if e.open != nil {
				e.ingestEvent(e.open, &evs[i])
			}
		}
	}

	e.activeBuf = e.activeBuf[:0]
	if e.alerts != nil {
		e.activeBuf = e.alerts.ActiveAppend(e.activeBuf)
	}
	watched := 0
	for i := range e.activeBuf {
		if !e.excluded(e.activeBuf[i].Name) {
			watched++
		}
	}

	switch {
	case e.open == nil && watched > 0:
		if !e.reopenIncident() {
			e.openIncident()
		}
	case e.open != nil:
		for i := range e.activeBuf {
			if r := &e.activeBuf[i]; !e.excluded(r.Name) && !e.open.ruleSet[r.Name] {
				e.open.ruleSet[r.Name] = true
				e.noteRule(e.open, r)
			}
			e.noteExemplar(e.open, e.activeBuf[i].Exemplar)
		}
		e.rankSuspects(e.open)
		if e.hot != nil {
			e.open.HotRegion, e.open.HotShare = e.hot()
		}
		if watched == 0 {
			e.resolveIncident()
		}
	}
}

func (e *Engine) excluded(rule string) bool {
	_, ok := e.cfg.Watch[rule]
	return !ok
}

// spanKey identifies what a span contributes to the graph: its stage node
// (root for a root span, root/name for a child) and, for a child, its
// parent's stage node (root when the parent is the root span, root/parent
// when it is a child itself).
type spanKey struct {
	root, name, parent string
	child, grandchild  bool
}

// spanSite is a spanKey resolved to graph indexes: the stage node, the
// parent→stage edge (-1 for a root span, or a child named like its parent),
// and each declared backend's node with its stage→backend edge.
type spanSite struct {
	node, edge int
	backends   []struct{ node, edge int }
}

// FoldSpan adds one finished span to the graph: stage nodes named root or
// root/span, parent→child edges with duration stats, and declared backend
// bindings underneath each stage. Its signature is Tracer.SetObserver's,
// which hands every span to it once, when the span ends. A span folded
// between ticks N-1 and N counts as tick N's. Each distinct (root, span,
// parent) is resolved to graph indexes once; the graph never drops a node
// or edge, so the indexes stay valid.
func (e *Engine) FoldSpan(root string, sp, parent *telemetry.Span, durationMs float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := spanKey{root: root}
	if parent != nil {
		k.name, k.child = sp.Name, true
		if parent.Parent >= 0 {
			k.parent, k.grandchild = parent.Name, true
		}
	}
	site, ok := e.sites[k]
	if !ok {
		site = e.resolve(k, sp, parent)
		e.sites[k] = site
	}
	e.graph.nodes[site.node].spans++
	if site.edge >= 0 {
		ed := &e.graph.edges[site.edge]
		ed.traversals++
		ed.totalMs += durationMs
		if durationMs > ed.maxMs {
			ed.maxMs = durationMs
		}
	}
	for _, b := range site.backends {
		e.graph.nodes[b.node].spans++
		e.graph.edges[b.edge].traversals++
	}
}

// resolve creates (or finds) a span key's nodes and edges, in the order a
// span first folded creates them, stamping new edges with the tick the span
// counts toward. A new stage node takes the tier of the span it is named for.
func (e *Engine) resolve(k spanKey, sp, parent *telemetry.Span) *spanSite {
	name := k.root
	if k.child {
		name = k.root + "/" + k.name
	}
	site := &spanSite{edge: -1}
	site.node = e.graph.nodeFor(name, KindStage, sp.Tier)
	if k.child {
		pname := k.root
		if k.grandchild {
			pname = k.root + "/" + k.parent
		}
		if pname != name {
			pi := e.graph.nodeFor(pname, KindStage, parent.Tier)
			site.edge = e.graph.edgeFor(pi, site.node, e.tick+1)
		}
	}
	backends := e.cfg.Bindings[name]
	if backends == nil && k.child {
		backends = e.cfg.Bindings[k.name]
	}
	for _, b := range backends {
		bi := e.graph.nodeFor(b, KindBackend, "")
		site.backends = append(site.backends, struct{ node, edge int }{bi, e.graph.edgeFor(site.node, bi, e.tick+1)})
	}
	return site
}

// classify maps one event to (component, kind) evidence, or ("", 0) for
// timeline-only events. Kinds index the evidence struct.
const (
	evNone = iota
	evDLQ
	evInfra
	evBreaker
)

func (e *Engine) classify(ev *telemetry.Event) (string, int) {
	if ev.Component == telemetry.CompAlerts {
		return "", evNone
	}
	switch telemetry.ComponentRoot(ev.Component) {
	case telemetry.CompDeadLetter:
		for _, m := range e.cfg.CollateralMarkers {
			if strings.Contains(ev.Message, m) {
				return telemetry.CompBreaker, evBreaker
			}
		}
		if b := e.cfg.StageBackends[telemetry.ComponentSub(ev.Component)]; b != "" {
			return b, evDLQ
		}
	case telemetry.CompBreaker:
		return telemetry.CompBreaker, evBreaker
	case telemetry.CompHealer:
		return telemetry.CompHDFS, evInfra
	case telemetry.CompBroker:
		if ev.Level != telemetry.LevelInfo {
			return telemetry.CompBroker, evInfra
		}
	case telemetry.CompHBase:
		if ev.Level != telemetry.LevelInfo {
			return telemetry.CompHBase, evInfra
		}
	}
	return "", evNone
}

// accountEvent folds one event into the graph's RED error counts. Runs for
// every event, incident open or not, so /api/graph errors are continuous.
func (e *Engine) accountEvent(ev *telemetry.Event) {
	comp, kind := e.classify(ev)
	if kind != evDLQ && kind != evInfra {
		return
	}
	sourceRoot := ""
	if kind == evDLQ {
		// Quarantine messages start "source/stage record ...".
		if i := strings.IndexByte(ev.Message, '/'); i > 0 {
			sourceRoot = e.cfg.SourceRoots[ev.Message[:i]]
		}
	}
	e.graph.attributeError(comp, sourceRoot)
}

// alertRuleName extracts the rule name from an alert-engine event message
// ("alert <name> ..."); empty when the shape is unexpected.
func alertRuleName(msg string) string {
	const p = "alert "
	if !strings.HasPrefix(msg, p) {
		return ""
	}
	rest := msg[len(p):]
	if i := strings.IndexByte(rest, ' '); i > 0 {
		return rest[:i]
	}
	return rest
}

// ingestEvent folds one event into an open incident: timeline, evidence
// counts, and exemplar traces. Transition chatter from excluded rules is
// skipped outright — the wall-clock anomaly rules would otherwise leak
// nondeterministic entries (or drop counts) into the canonical record.
func (e *Engine) ingestEvent(inc *Incident, ev *telemetry.Event) {
	if ev.Component == telemetry.CompAlerts && e.excluded(alertRuleName(ev.Message)) {
		return
	}
	e.appendTimeline(inc, TimelineEntry{
		Tick: e.tick, Seq: ev.Seq, Level: ev.Level,
		Component: ev.Component, Message: ev.Message, TraceID: ev.TraceID,
	})
	comp, kind := e.classify(ev)
	if kind == evNone {
		if ev.Component == telemetry.CompAlerts {
			e.noteExemplar(inc, ev.TraceID)
		}
		return
	}
	ec := inc.evidence[comp]
	if ec == nil {
		ec = &evidence{}
		inc.evidence[comp] = ec
	}
	switch kind {
	case evDLQ:
		ec.dlq++
		e.noteExemplar(inc, ev.TraceID)
	case evInfra:
		ec.infra++
	case evBreaker:
		ec.breaker++
	}
}

func (e *Engine) appendTimeline(inc *Incident, entry TimelineEntry) {
	if len(inc.Timeline) >= maxTimeline {
		inc.TimelineDropped++
		return
	}
	inc.Timeline = append(inc.Timeline, entry)
}

func (e *Engine) noteExemplar(inc *Incident, traceID string) {
	if traceID == "" || len(inc.Exemplars) >= maxExemplars {
		return
	}
	for _, t := range inc.Exemplars {
		if t == traceID {
			return
		}
	}
	inc.Exemplars = append(inc.Exemplars, traceID)
}

func (e *Engine) noteRule(inc *Incident, r *tsdb.RuleRef) {
	e.appendTimeline(inc, TimelineEntry{
		Tick: e.tick, Level: r.Severity, Component: telemetry.CompIncident,
		Message: fmt.Sprintf("rule %s joined incident (%s)", r.Name, r.State),
	})
}

// openIncident starts a new incident from the currently active watched
// rules, folding in the lookback window of recent events — the evidence
// that caused the alerts trails them by a tick or two.
func (e *Engine) openIncident() {
	e.nextID++
	e.openedTotal++
	inc := &Incident{
		ID:         fmt.Sprintf("INC-%d", e.nextID),
		State:      StateOpen,
		OpenedTick: e.tick,
		ruleSet:    make(map[string]bool),
		evidence:   make(map[string]*evidence),
	}
	e.appendTimeline(inc, TimelineEntry{
		Tick: e.tick, Level: telemetry.LevelWarn, Component: telemetry.CompIncident,
		Message: fmt.Sprintf("incident %s opened", inc.ID),
	})
	mark := e.tick - lookbackTicks
	if mark < 1 {
		mark = 1
	}
	since := e.seqMark[mark%seqMarkWindow]
	for _, ev := range e.events.EventsSince(since, 0) {
		ev := ev
		e.ingestEvent(inc, &ev)
	}
	for i := range e.activeBuf {
		r := &e.activeBuf[i]
		if e.excluded(r.Name) {
			continue
		}
		inc.ruleSet[r.Name] = true
		e.noteRule(inc, r)
		e.noteExemplar(inc, r.Exemplar)
	}
	e.rankSuspects(inc)
	if e.hot != nil {
		inc.HotRegion, inc.HotShare = e.hot()
	}
	e.open = inc
}

// reopenIncident is the flap-damping path: when a watched rule activates
// within reopenTicks of the last resolution, the resolved incident comes
// back as the open one — same ID, same accumulated evidence, a "reopened"
// timeline marker — instead of a fresh INC-N. Counters stay monotone:
// openedTotal/resolvedTotal count state transitions, so a flap increments
// both again.
func (e *Engine) reopenIncident() bool {
	if len(e.resolved) == 0 {
		return false
	}
	inc := e.resolved[len(e.resolved)-1]
	if e.tick-inc.ResolvedTick > reopenTicks {
		return false
	}
	e.resolved = e.resolved[:len(e.resolved)-1]
	e.openedTotal++
	inc.State = StateOpen
	inc.ResolvedTick = 0
	e.appendTimelineAlways(inc, TimelineEntry{
		Tick: e.tick, Level: telemetry.LevelWarn, Component: telemetry.CompIncident,
		Message: fmt.Sprintf("incident %s reopened", inc.ID),
	})
	for i := range e.activeBuf {
		r := &e.activeBuf[i]
		if e.excluded(r.Name) {
			continue
		}
		if !inc.ruleSet[r.Name] {
			inc.ruleSet[r.Name] = true
			e.noteRule(inc, r)
		}
		e.noteExemplar(inc, r.Exemplar)
	}
	e.rankSuspects(inc)
	if e.hot != nil {
		inc.HotRegion, inc.HotShare = e.hot()
	}
	e.open = inc
	return true
}

func (e *Engine) resolveIncident() {
	inc := e.open
	inc.State = StateResolved
	inc.ResolvedTick = e.tick
	e.appendTimelineAlways(inc, TimelineEntry{
		Tick: e.tick, Level: telemetry.LevelInfo, Component: telemetry.CompIncident,
		Message: fmt.Sprintf("incident %s resolved", inc.ID),
	})
	e.resolved = append(e.resolved, inc)
	if len(e.resolved) > maxResolved {
		e.resolved = e.resolved[1:]
	}
	e.resolvedTotal++
	e.open = nil
}

// appendTimelineAlways bypasses the cap for lifecycle markers: a timeline
// always ends with its resolution entry.
func (e *Engine) appendTimelineAlways(inc *Incident, entry TimelineEntry) {
	inc.Timeline = append(inc.Timeline, entry)
}

// rankSuspects rebuilds the incident's suspect ranking: BFS depths from the
// alerted symptom nodes, evidence-weighted scores damped for components no
// symptom reaches, deterministic (score desc, name asc) order.
func (e *Engine) rankSuspects(inc *Incident) {
	inc.Rules = inc.Rules[:0]
	for r := range inc.ruleSet {
		inc.Rules = append(inc.Rules, r)
	}
	sort.Strings(inc.Rules)

	// Symptom anchors: rules mapped to components anchor there; generic
	// rules anchor at every ingest root.
	var symptoms []int
	ruleHits := make(map[string]int)
	for _, r := range inc.Rules {
		comps := e.cfg.Watch[r]
		if len(comps) == 0 {
			symptoms = append(symptoms, e.graph.roots()...)
			continue
		}
		for _, c := range comps {
			ruleHits[c]++
			if i, ok := e.graph.index[c]; ok {
				symptoms = append(symptoms, i)
			}
		}
	}
	depth := e.graph.depths(symptoms)

	names := make(map[string]bool, len(inc.evidence)+len(ruleHits))
	for c := range inc.evidence {
		names[c] = true
	}
	for c := range ruleHits {
		names[c] = true
	}
	suspects := make([]Suspect, 0, len(names))
	for c := range names {
		s := Suspect{Component: c, Depth: -1}
		if ec := inc.evidence[c]; ec != nil {
			s.DLQ, s.Infra, s.Breaker = ec.dlq, ec.infra, ec.breaker
		}
		s.RuleHits = ruleHits[c]
		br := float64(s.Breaker)
		if br > breakerSaturation {
			br = breakerSaturation
		}
		base := weightDLQ*float64(s.DLQ) + weightInfra*float64(s.Infra) + weightBreaker*br
		factor := unreachableFactor
		if i, ok := e.graph.index[c]; ok {
			if d, ok := depth[i]; ok {
				s.Depth = d
				factor = 1.0
			}
		}
		// A rule naming the component directly is its own causal path.
		if s.RuleHits > 0 {
			factor = 1.0
			if s.Depth < 0 {
				s.Depth = 0
			}
		}
		s.Score = base*factor + weightRuleHit*float64(s.RuleHits)
		if e.evidenceFor != nil {
			s.Evidence = e.evidenceFor(c)
		}
		suspects = append(suspects, s)
	}
	sort.Slice(suspects, func(a, b int) bool {
		if suspects[a].Score != suspects[b].Score {
			return suspects[a].Score > suspects[b].Score
		}
		return suspects[a].Component < suspects[b].Component
	})
	if len(suspects) > maxSuspects {
		suspects = suspects[:maxSuspects]
	}
	inc.Suspects = suspects
}

// --- exported reads ---

// OpenCount reports how many incidents are currently open (0 or 1: the
// engine groups all temporally overlapping alerts into one incident).
func (e *Engine) OpenCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.open != nil {
		return 1
	}
	return 0
}

// OpenedTotal counts transitions into the open state. A flap-damped
// reopen counts again so the series stays a monotone counter.
func (e *Engine) OpenedTotal() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.openedTotal
}

// ResolvedTotal counts transitions into the resolved state; its flap
// semantics mirror OpenedTotal.
func (e *Engine) ResolvedTotal() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resolvedTotal
}

// GraphSize reports the current dependency graph's node and edge counts.
func (e *Engine) GraphSize() (nodes, edges int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.graph.nodes), len(e.graph.edges)
}

// Incidents returns up to limit incident snapshots, open incident first,
// then resolved newest-first (limit <= 0 means all).
func (e *Engine) Incidents(limit int) []Incident {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := len(e.resolved)
	if e.open != nil {
		total++
	}
	if limit <= 0 || limit > total {
		limit = total
	}
	out := make([]Incident, 0, limit)
	if e.open != nil && limit > 0 {
		out = append(out, snapshotIncident(e.open))
	}
	for i := len(e.resolved) - 1; i >= 0 && len(out) < limit; i-- {
		out = append(out, snapshotIncident(e.resolved[i]))
	}
	return out
}

// snapshotIncident deep-copies the exported fields so callers can't race
// the engine's mutation of the open incident.
func snapshotIncident(inc *Incident) Incident {
	cp := *inc
	cp.ruleSet, cp.evidence = nil, nil
	cp.Rules = append([]string(nil), inc.Rules...)
	cp.Suspects = append([]Suspect(nil), inc.Suspects...)
	for i := range cp.Suspects {
		cp.Suspects[i].Evidence = append([]string(nil), inc.Suspects[i].Evidence...)
	}
	cp.Exemplars = append([]string(nil), inc.Exemplars...)
	cp.Timeline = append([]TimelineEntry(nil), inc.Timeline...)
	return cp
}

// Graph exports the dependency graph adjacency.
func (e *Engine) Graph() GraphView {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.graph.export(e.tick)
}

// Canonical renders every incident (oldest first, open incident last) as
// deterministic JSON: wall-clock diagnostics are stripped, so two runs of
// the same seed produce byte-identical output. Beyond the hot-region
// fields, that strips the exemplar list and the trace ids on alert-engine
// timeline entries — which trace exemplifies a latency tail depends on
// measured wall time, even though every trace id itself is a deterministic
// sequence number. Event seqs go too: they are allocation order in a ring
// shared with wall-clock emitters (the excluded anomaly rules), so an
// identical timeline can carry shifted seqs across runs. Dead-letter
// timeline entries keep their trace ids: the quarantined record's trace is
// part of the deterministic evidence.
func (e *Engine) Canonical() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	incs := make([]Incident, 0, len(e.resolved)+1)
	for _, inc := range e.resolved {
		incs = append(incs, snapshotIncident(inc))
	}
	if e.open != nil {
		incs = append(incs, snapshotIncident(e.open))
	}
	for i := range incs {
		incs[i].HotRegion = ""
		incs[i].HotShare = 0
		incs[i].Exemplars = nil
		for j := range incs[i].Timeline {
			incs[i].Timeline[j].Seq = 0
			if incs[i].Timeline[j].Component == telemetry.CompAlerts {
				incs[i].Timeline[j].TraceID = ""
			}
		}
	}
	return json.MarshalIndent(incs, "", "  ")
}
