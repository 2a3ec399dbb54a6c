package tsdb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// Query functions over windowed series. The grammar is a deliberately tiny
// PromQL subset, evaluated at one instant:
//
//	<sel>                                    instant: latest scraped value
//	rate(<sel>[<window>])                    per-second increase (counters)
//	delta(<sel>[<window>])                   last - first in window
//	avg_over_time(<sel>[<window>])           mean of samples in window
//	min_over_time(<sel>[<window>])           minimum in window
//	max_over_time(<sel>[<window>])           maximum in window
//	quantile_over_time(<q>, <sel>[<window>]) q-quantile of samples
//	<agg>(<expr>)                            sum/avg/min/max over all matches
//	<agg> by (<label>) (<expr>)              grouped aggregation
//
// A selector <sel> is a series name with an optional label-matcher block:
// `name` or `name{camera="cam-7"}`. A bare name prefers the exact label-less
// series when one exists (so the pre-dimensional rules keep their meaning)
// and otherwise matches every series of that family — which is what the
// aggregations fold: `sum by (camera) (rate(name[30s]))` yields one value
// per camera. Matcher labels are an equality subset: every listed label must
// match, extra series labels are fine. Windows use Go duration syntax
// (30s, 2m); histogram fan-out suffixes (_count, _p99, ...) are part of the
// family name.

// Value is one evaluated expression (or one aggregation group).
type Value struct {
	Expr          string            `json:"expr"`
	Func          string            `json:"func"` // "" for an instant lookup
	Series        string            `json:"series"`
	Labels        map[string]string `json:"labels,omitempty"` // aggregation group key
	WindowSeconds float64           `json:"windowSeconds"`
	AtUnixNs      int64             `json:"atUnixNs"`
	Samples       int               `json:"samples"` // samples the answer was computed from
	Value         float64           `json:"value"`
}

// query is one parsed expression.
type query struct {
	agg    string // "", "sum", "avg", "min", "max"
	by     string // grouping label; "" folds every match into one value
	fn     string
	series string // selector text (possibly with a label-matcher block)
	window time.Duration
	q      float64 // quantile_over_time only
}

// windowFuncs maps function name -> whether it takes a leading scalar.
var windowFuncs = map[string]bool{
	"rate":               false,
	"delta":              false,
	"avg_over_time":      false,
	"min_over_time":      false,
	"max_over_time":      false,
	"quantile_over_time": true,
}

// aggOps are the vector-folding operators.
var aggOps = map[string]bool{"sum": true, "avg": true, "min": true, "max": true}

// validSelector checks a selector's shape at parse time so malformed
// matchers (unclosed brace, bad escape, empty matcher) fail with ErrBadExpr
// instead of a spurious unknown-series miss.
func validSelector(sel string) error {
	if sel == "" {
		return fmt.Errorf("%w: empty series selector", ErrBadExpr)
	}
	family, _, err := telemetry.ParseName(sel)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadExpr, err)
	}
	if family == "" || strings.ContainsAny(family, "[]() {}") {
		return fmt.Errorf("%w: bad series name in %q", ErrBadExpr, sel)
	}
	return nil
}

// parseExpr parses the grammar above.
func parseExpr(expr string) (query, error) {
	s := strings.TrimSpace(expr)
	if s == "" {
		return query{}, fmt.Errorf("%w: empty expression", ErrBadExpr)
	}
	out, rest, err := parseAggHead(s)
	if err != nil {
		return query{}, err
	}
	if out.agg != "" {
		if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
			return query{}, fmt.Errorf("%w: %s needs a parenthesized expression in %q", ErrBadExpr, out.agg, expr)
		}
		inner, err := parseInner(strings.TrimSpace(rest[1 : len(rest)-1]))
		if err != nil {
			return query{}, err
		}
		inner.agg, inner.by = out.agg, out.by
		return inner, nil
	}
	return parseInner(s)
}

// parseAggHead recognizes an optional leading `agg` or `agg by (label)` and
// returns the remainder. A name like avg_over_time is not an aggregation.
func parseAggHead(s string) (query, string, error) {
	var out query
	for op := range aggOps {
		if !strings.HasPrefix(s, op) {
			continue
		}
		rest := s[len(op):]
		if rest == "" || (rest[0] != '(' && rest[0] != ' ' && rest[0] != '\t') {
			continue // e.g. avg_over_time
		}
		rest = strings.TrimSpace(rest)
		if strings.HasPrefix(rest, "by") {
			after := strings.TrimSpace(rest[2:])
			if !strings.HasPrefix(after, "(") {
				return query{}, "", fmt.Errorf("%w: %s by needs a (label) group in %q", ErrBadExpr, op, s)
			}
			close := strings.IndexByte(after, ')')
			if close < 0 {
				return query{}, "", fmt.Errorf("%w: unclosed by-clause in %q", ErrBadExpr, s)
			}
			label := strings.TrimSpace(after[1:close])
			if label == "" || strings.ContainsAny(label, ", ") {
				return query{}, "", fmt.Errorf("%w: by-clause wants exactly one label in %q", ErrBadExpr, s)
			}
			out.by = label
			rest = strings.TrimSpace(after[close+1:])
		}
		if !strings.HasPrefix(rest, "(") {
			continue // `summary_series` style names that merely start with an op
		}
		out.agg = op
		return out, rest, nil
	}
	return out, s, nil
}

// parseInner parses the non-aggregated core: a selector or fn(sel[window]).
func parseInner(s string) (query, error) {
	if s == "" {
		return query{}, fmt.Errorf("%w: empty expression", ErrBadExpr)
	}
	open := strings.IndexByte(s, '(')
	brace := strings.IndexByte(s, '{')
	if open < 0 || (brace >= 0 && brace < open) {
		// Instant lookup of a bare selector.
		if strings.ContainsAny(s, "[]() ") && brace < 0 {
			return query{}, fmt.Errorf("%w: %q", ErrBadExpr, s)
		}
		if err := validSelector(s); err != nil {
			return query{}, err
		}
		return query{series: s}, nil
	}
	fn := strings.TrimSpace(s[:open])
	wantScalar, ok := windowFuncs[fn]
	if !ok {
		return query{}, fmt.Errorf("%w: unknown function %q", ErrBadExpr, fn)
	}
	if !strings.HasSuffix(s, ")") {
		return query{}, fmt.Errorf("%w: missing closing paren in %q", ErrBadExpr, s)
	}
	args := s[open+1 : len(s)-1]
	out := query{fn: fn}
	if wantScalar {
		comma := strings.IndexByte(args, ',')
		if comma < 0 {
			return query{}, fmt.Errorf("%w: %s needs a quantile argument", ErrBadExpr, fn)
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(args[:comma]), 64)
		if err != nil || !(q >= 0 && q <= 1) { // NaN fails both comparisons
			return query{}, fmt.Errorf("%w: quantile %q must be in [0,1]", ErrBadExpr, args[:comma])
		}
		out.q = q
		args = args[comma+1:]
	}
	args = strings.TrimSpace(args)
	lb := strings.LastIndexByte(args, '[')
	if lb < 0 || !strings.HasSuffix(args, "]") {
		return query{}, fmt.Errorf("%w: %s needs a [window] selector", ErrBadExpr, fn)
	}
	win, err := time.ParseDuration(strings.TrimSpace(args[lb+1 : len(args)-1]))
	if err != nil || win <= 0 {
		return query{}, fmt.Errorf("%w: bad window in %q", ErrBadExpr, s)
	}
	out.series = strings.TrimSpace(args[:lb])
	out.window = win
	if err := validSelector(out.series); err != nil {
		return query{}, err
	}
	return out, nil
}

// matchSeries resolves a selector to retained series names, sorted. A bare
// name prefers its exact series; otherwise the selector's family + label
// subset is matched against every series. It also returns the series-set
// generation the answer holds for.
func (st *Store) matchSeries(sel string) ([]string, uint64, error) {
	family, labels, err := telemetry.ParseName(sel)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadExpr, err)
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(labels) == 0 {
		if _, ok := st.series[sel]; ok {
			return []string{sel}, st.gen, nil
		}
	}
	var out []string
	for name, s := range st.series {
		if s.family != family {
			continue
		}
		if !labelsMatch(labels, s.labels) {
			continue
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, st.gen, ErrUnknownSeries
	}
	sort.Strings(out)
	return out, st.gen, nil
}

// seriesMatch is one selector's matchSeries answer, kept by an alert rule
// between evaluations. It holds while the store's series-set generation is
// gen: series are only ever created, so an unchanged set matches the same.
type seriesMatch struct {
	gen   uint64
	names []string
	err   error
}

// match resolves a selector, through m when it is not nil.
func (st *Store) match(sel string, m *seriesMatch) ([]string, error) {
	if m == nil {
		names, _, err := st.matchSeries(sel)
		return names, err
	}
	st.mu.RLock()
	gen := st.gen
	st.mu.RUnlock()
	if m.gen != gen {
		m.names, m.gen, m.err = st.matchSeries(sel)
	}
	return m.names, m.err
}

// labelsMatch reports whether every matcher label equals the series label.
func labelsMatch(matchers, have telemetry.LabelSet) bool {
	for _, m := range matchers {
		if have.Get(m.Key) != m.Value {
			return false
		}
	}
	return true
}

// Eval parses and evaluates one expression at the given instant (the window
// is [at-window, at], boundaries inclusive) and requires it to resolve to a
// single value: one matched series, or an aggregation folding its matches
// into one group. This is what controller signals call.
func (st *Store) Eval(expr string, at time.Time) (Value, error) {
	vals, err := st.EvalAll(expr, at)
	return single(expr, vals, err)
}

// single requires an evaluation of expr to be one value.
func single(expr string, vals []Value, err error) (Value, error) {
	if err != nil {
		return Value{}, err
	}
	if len(vals) != 1 {
		return Value{}, fmt.Errorf("%w: %q matches %d series; fold them with sum/avg/min/max (optionally by (label))",
			ErrBadExpr, expr, len(vals))
	}
	return vals[0], nil
}

// EvalAll parses and evaluates one expression at the given instant,
// returning one Value per matched series — or, for aggregations, one Value
// per group. Series without enough samples in the window are skipped when
// the selector matches several (young, just-promoted series shouldn't hide
// the rest of the fleet); if nothing is evaluable the error reports why.
func (st *Store) EvalAll(expr string, at time.Time) ([]Value, error) {
	sp := st.profRegion(true).Start()
	defer sp.End()
	q, err := parseExpr(expr)
	if err != nil {
		return nil, err
	}
	return st.evalParsed(q, expr, at, nil)
}

// evalRule is Eval for an alert rule: the expression was parsed once when
// the rule was added, and m carries the rule's selector matches.
func (st *Store) evalRule(q query, expr string, at time.Time, m *seriesMatch) (Value, error) {
	sp := st.profRegion(true).Start()
	defer sp.End()
	vals, err := st.evalParsed(q, expr, at, m)
	return single(expr, vals, err)
}

// evalParsed is EvalAll after the parse; m, when not nil, caches the
// selector's matches.
func (st *Store) evalParsed(q query, expr string, at time.Time, m *seriesMatch) ([]Value, error) {
	names, err := st.match(q.series, m)
	if err != nil {
		return nil, err
	}
	vals := make([]Value, 0, len(names))
	var lastErr error
	var window []Sample // one series' window at a time
	for _, name := range names {
		var v Value
		v, window, err = st.evalOne(q, name, expr, at, window[:0])
		if err != nil {
			if (errors.Is(err, ErrNoSamples) || errors.Is(err, ErrUnknownSeries)) && len(names) > 1 {
				lastErr = err
				continue
			}
			return nil, err
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		if lastErr == nil {
			lastErr = ErrNoSamples
		}
		return nil, lastErr
	}
	if q.agg == "" {
		return vals, nil
	}
	return aggregate(q, expr, vals, at)
}

// evalOne evaluates the parsed query against one concrete series, reading
// its window into buf; it returns buf for the next series.
func (st *Store) evalOne(q query, name, expr string, at time.Time, buf []Sample) (Value, []Sample, error) {
	out := Value{Expr: expr, Func: q.fn, Series: name, AtUnixNs: at.UnixNano()}
	st.mu.RLock()
	s, ok := st.series[name]
	if ok && q.fn != "" {
		buf = s.appendWindow(buf, at.Add(-q.window).UnixNano(), at.UnixNano())
	}
	st.mu.RUnlock()
	if !ok {
		return Value{}, buf, ErrUnknownSeries
	}
	// The series' labels were parsed from its name when it was created; an
	// aggregation's per-series values never leave aggregate, which groups
	// by name.
	if q.agg == "" && len(s.labels) > 0 {
		out.Labels = make(map[string]string, len(s.labels))
		for _, l := range s.labels {
			out.Labels[l.Key] = l.Value
		}
	}
	if q.fn == "" {
		sm, err := st.Latest(name)
		if err != nil {
			return Value{}, buf, err
		}
		out.Samples = 1
		out.Value = sm.Value
		return out, buf, nil
	}
	out.WindowSeconds = q.window.Seconds()
	samples := buf
	out.Samples = len(samples)
	min2 := 2
	if strings.HasSuffix(q.fn, "_over_time") {
		min2 = 1
	}
	if len(samples) < min2 {
		return Value{}, buf, fmt.Errorf("%w: %s over %s has %d", ErrNoSamples, name, q.window, len(samples))
	}
	switch q.fn {
	case "rate":
		out.Value = rate(samples)
	case "delta":
		out.Value = samples[len(samples)-1].Value - samples[0].Value
	case "avg_over_time":
		var sum float64
		for _, s := range samples {
			sum += s.Value
		}
		out.Value = sum / float64(len(samples))
	case "min_over_time":
		out.Value = math.Inf(1)
		for _, s := range samples {
			out.Value = math.Min(out.Value, s.Value)
		}
	case "max_over_time":
		out.Value = math.Inf(-1)
		for _, s := range samples {
			out.Value = math.Max(out.Value, s.Value)
		}
	case "quantile_over_time":
		out.Value = quantile(samples, q.q)
	}
	return out, buf, nil
}

// aggregate folds per-series values into per-group results, keyed by the
// by-label's value ("" when no by-clause: everything folds into one group).
func aggregate(q query, expr string, vals []Value, at time.Time) ([]Value, error) {
	type group struct {
		n       int
		sum     float64
		min     float64
		max     float64
		samples int
	}
	groups := map[string]*group{}
	var keys []string
	// vals arrive sorted by series name, so group keys are discovered in a
	// deterministic order.
	for _, v := range vals {
		key := ""
		if q.by != "" {
			key = v.groupLabel(q.by)
		}
		g, ok := groups[key]
		if !ok {
			g = &group{min: math.Inf(1), max: math.Inf(-1)}
			groups[key] = g
			keys = append(keys, key)
		}
		g.n++
		g.sum += v.Value
		g.min = math.Min(g.min, v.Value)
		g.max = math.Max(g.max, v.Value)
		g.samples += v.Samples
	}
	sort.Strings(keys)
	fnName := q.agg
	if q.fn != "" {
		fnName = q.agg + " " + q.fn
	}
	out := make([]Value, 0, len(groups))
	for _, key := range keys {
		g := groups[key]
		v := Value{
			Expr: expr, Func: fnName, Series: q.series,
			WindowSeconds: q.window.Seconds(), AtUnixNs: at.UnixNano(),
			Samples: g.samples,
		}
		if q.by != "" {
			v.Labels = map[string]string{q.by: key}
		}
		switch q.agg {
		case "sum":
			v.Value = g.sum
		case "avg":
			v.Value = g.sum / float64(g.n)
		case "min":
			v.Value = g.min
		case "max":
			v.Value = g.max
		}
		out = append(out, v)
	}
	return out, nil
}

// groupLabel extracts the by-label's value from the Value's concrete series
// name (parsed lazily; series names came from the store, so they parse).
func (v Value) groupLabel(label string) string {
	_, labels, err := telemetry.ParseName(v.Series)
	if err != nil {
		return ""
	}
	return labels.Get(label)
}

// rate is the per-second increase across the window's samples: the sum of
// positive adjacent deltas (negative deltas are counter resets and restart
// the accumulation from the post-reset value, like PromQL) divided by the
// observed sample span. With an exact sample at each window edge this equals
// (last-first)/(t_last-t_first) for a monotonic counter.
func rate(samples []Sample) float64 {
	var inc float64
	for i := 1; i < len(samples); i++ {
		d := samples[i].Value - samples[i-1].Value
		if d > 0 {
			inc += d
		} else if d < 0 { // reset: the whole post-reset value is new increase
			inc += samples[i].Value
		}
	}
	span := float64(samples[len(samples)-1].TimeUnixNs-samples[0].TimeUnixNs) / 1e9
	if span <= 0 {
		return 0
	}
	return inc / span
}

// quantile returns the q-quantile of the sample values by linear
// interpolation between order statistics.
func quantile(samples []Sample, q float64) float64 {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = s.Value
	}
	sort.Float64s(vals)
	if len(vals) == 1 {
		return vals[0]
	}
	rank := q * float64(len(vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return vals[lo]
	}
	frac := rank - float64(lo)
	return vals[lo] + (vals[hi]-vals[lo])*frac
}
