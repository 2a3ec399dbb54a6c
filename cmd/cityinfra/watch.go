package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/viz"
)

// watchSeries is one row of the live dashboard: a named series rendered as
// a sparkline over its recent scrape history. Counters are differentiated
// into per-second rates between adjacent scrapes; gauges plot raw values.
type watchSeries struct {
	label   string
	series  string
	counter bool
	scale   float64 // multiplier for display (e.g. 1e3 for seconds → ms)
	unit    string
}

// watchRows is what `cityinfra -watch` plots.
var watchRows = []watchSeries{
	{label: "collected", series: "cityinfra_pipeline_collected_total", counter: true, scale: 1, unit: "ev/s"},
	{label: "stored", series: "cityinfra_pipeline_stored_total", counter: true, scale: 1, unit: "ev/s"},
	{label: "undelivered", series: "cityinfra_pipeline_undelivered_total", counter: true, scale: 1, unit: "ev/s"},
	{label: "retries", series: "cityinfra_pipeline_retries_total", counter: true, scale: 1, unit: "op/s"},
	{label: "ingest p99", series: "cityinfra_pipeline_ingest_seconds_p99", counter: false, scale: 1e3, unit: "ms"},
	{label: "breaker", series: "cityinfra_breaker_state", counter: false, scale: 1, unit: "state"},
	{label: "under-repl parts", series: "cityinfra_broker_under_replicated_partitions", counter: false, scale: 1, unit: "parts"},
	{label: "leaderless parts", series: "cityinfra_broker_leaderless_partitions", counter: false, scale: 1, unit: "parts"},
}

// historyValues returns up to n plotted values for one watch row from the
// store's retained samples.
func historyValues(inf *core.Infrastructure, ws watchSeries, n int) []float64 {
	samples, err := inf.TSDB.Samples(ws.series, time.Unix(0, 0), inf.TSDB.Now())
	if err != nil || len(samples) == 0 {
		return nil
	}
	var vals []float64
	if ws.counter {
		for i := 1; i < len(samples); i++ {
			dt := float64(samples[i].TimeUnixNs-samples[i-1].TimeUnixNs) / 1e9
			if dt <= 0 {
				continue
			}
			d := samples[i].Value - samples[i-1].Value
			if d < 0 {
				d = 0
			}
			vals = append(vals, d/dt*ws.scale)
		}
	} else {
		for _, s := range samples {
			vals = append(vals, s.Value*ws.scale)
		}
	}
	if len(vals) > n {
		vals = vals[len(vals)-n:]
	}
	return vals
}

// renderWatch draws one dashboard frame: sparkline history per watched
// series, SLO burn rates, and the alert rule states, preceded by an ANSI
// home+clear so successive frames repaint in place.
func renderWatch(inf *core.Infrastructure, w io.Writer, frame int, clear bool) {
	if clear {
		fmt.Fprint(w, "\033[H\033[2J")
	}
	fmt.Fprintf(w, "cityinfra watch — frame %d, scrape tick %d, virtual clock %s\n\n",
		frame, inf.TSDB.Scrapes(), inf.TSDB.Now().Format(time.RFC3339))

	const hist = 48
	width := 0
	for _, ws := range watchRows {
		if len(ws.label) > width {
			width = len(ws.label)
		}
	}
	for _, ws := range watchRows {
		vals := historyValues(inf, ws, hist)
		if len(vals) == 0 {
			fmt.Fprintf(w, "  %-*s  (no samples yet)\n", width, ws.label)
			continue
		}
		fmt.Fprintf(w, "  %-*s  %s  %8.4g %s\n",
			width, ws.label, viz.Sparkline(vals), vals[len(vals)-1], ws.unit)
	}

	// Broker cluster pane: node liveness plus the replication counters that
	// tell an operator whether the streaming spine can lose a node right now.
	cst := inf.Broker.State()
	var nodeBits []string
	for _, n := range cst.Nodes {
		mark := "up"
		if !n.Up {
			mark = "DOWN"
		}
		nodeBits = append(nodeBits, fmt.Sprintf("n%d:%s(lead %d)", n.ID, mark, n.Leading))
	}
	fmt.Fprintf(w, "\n  broker cluster   %s\n", strings.Join(nodeBits, "  "))
	fmt.Fprintf(w, "  replication      under-replicated %d, leaderless %d, elections %d (unclean %d), last failover %d ticks\n",
		cst.UnderReplicated, cst.Leaderless, cst.Stats.Elections, cst.Stats.UncleanElections, cst.Stats.LastFailoverTicks)

	// Controller pane: the closed loop's verdict, every live knob, and the
	// most recent mitigations so an operator can see why ingest behavior
	// just changed.
	ctl := inf.Control.Status()
	verdict := "healthy"
	if ctl.Degraded {
		verdict = "DEGRADED"
	}
	if !ctl.Enabled {
		verdict = "disabled"
	}
	fmt.Fprintf(w, "\n  controller       %s (streak +%d/-%d)   threshold %.2f   tier %s   shed %d   actions %d\n",
		verdict, ctl.HealthyStreak, ctl.DegradedStreak,
		ctl.OffloadThreshold, ctl.InferenceTier, ctl.ShedLevel, len(ctl.Actions))
	if n := len(ctl.Actions); n > 0 {
		start := n - 3
		if start < 0 {
			start = 0
		}
		for _, a := range ctl.Actions[start:] {
			fmt.Fprintf(w, "    tick %-4d %-16s → %-6.2f %s\n", a.Tick, a.Kind, a.Value, a.Reason)
		}
	}

	// Incidents pane: the correlation engine's verdict. The open incident
	// (or the most recently resolved one) shows its active rules and the
	// top-ranked root-cause suspects with their evidence breakdowns.
	fmt.Fprintf(w, "\n  incidents        open %d, opened %d, resolved %d",
		inf.Incidents.OpenCount(), inf.Incidents.OpenedTotal(), inf.Incidents.ResolvedTotal())
	nodes, edges := inf.Incidents.GraphSize()
	fmt.Fprintf(w, "   dependency graph %d nodes / %d edges\n", nodes, edges)
	if incs := inf.Incidents.Incidents(1); len(incs) > 0 {
		inc := incs[0]
		fmt.Fprintf(w, "    %s [%s] tick %d  rules: %s\n",
			inc.ID, inc.State, inc.OpenedTick, strings.Join(inc.Rules, ", "))
		for i, s := range inc.Suspects {
			if i >= 3 {
				break
			}
			fmt.Fprintf(w, "      suspect %-14s score %-8.4g depth %-2d (dlq %d, infra %d, breaker %d)\n",
				s.Component, s.Score, s.Depth, s.DLQ, s.Infra, s.Breaker)
		}
	}

	// Hot-regions pane: where the last profiling window's self time went.
	// Shares are of the window's total self time, so a CPU burn injected in
	// one component visibly crowds out every other row.
	if hot := inf.Profiler.HotRegions(5); len(hot) > 0 {
		fmt.Fprintf(w, "\n  hot regions (last window)\n")
		for _, h := range hot {
			fmt.Fprintf(w, "    %-28s %8.2f ms self  %8.2f ms cum  %5.1f%%\n",
				h.Region, h.SelfSeconds*1e3, h.CumSeconds*1e3, h.Share*100)
		}
	}

	// Fleet pane: per-camera accounting against the bounded registry. The
	// summary line proves cardinality stays at K+1 series per family no
	// matter how many cameras report; the rows show the hottest cameras by
	// burn (or, when nothing is burning, the busiest by rate), with "~" on
	// cameras currently folded into the {~other} rollup.
	fl := inf.Fleet
	sum := fl.Summary()
	maxFam := 0
	for _, n := range sum.SeriesPerFamily {
		if n > maxFam {
			maxFam = n
		}
	}
	fmt.Fprintf(w, "\n  camera fleet     %d cameras → ≤%d series/family (widest %d), rolled up %d\n",
		sum.Cameras, sum.MaxSeries+1, maxFam, sum.RolledUpTotal)
	rows := fl.TopBurning(5)
	if len(rows) == 0 {
		all := fl.Report()
		sort.Slice(all, func(i, j int) bool {
			if all[i].RatePerSec != all[j].RatePerSec {
				return all[i].RatePerSec > all[j].RatePerSec
			}
			return all[i].Camera < all[j].Camera
		})
		if len(all) > 5 {
			all = all[:5]
		}
		rows = all
	}
	for _, cs := range rows {
		mark := " "
		if !cs.Real {
			mark = "~"
		}
		fmt.Fprintf(w, "    %s%-10s %6.1f fr/s  p99 %6.2f ms  shed %-5d undeliv %-5d burn %.1f\n",
			mark, cs.Camera, cs.RatePerSec, cs.P99Seconds*1e3, cs.Shed, cs.Undelivered, cs.Burn)
	}

	slo := viz.NewTable("SLO burn", "objective", "error rate", "burn rate")
	for _, rep := range inf.SLOs.Reports() {
		slo.AddRow(rep.Name, rep.ErrorRate, rep.BurnRate)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, slo)

	alerts := viz.NewTable("alert rules", "rule", "state", "value", "expr")
	for _, st := range inf.Alerts.States() {
		marker := st.State
		if st.State == "firing" {
			marker = "FIRING"
		}
		alerts.AddRow(st.Rule.Name, marker, st.LastValue, st.Rule.Expr)
	}
	fmt.Fprintln(w, alerts)
	if firing := inf.Alerts.Firing(); len(firing) > 0 {
		fmt.Fprintf(w, "!! firing: %s\n", strings.Join(firing, ", "))
	}
}

// watchLoop drives the live dashboard: each frame ingests a trickle of
// traffic (so the rates move), runs one monitor tick (scrape + alert
// evaluation on the simulated clock), and repaints. frames <= 0 means run
// until the process is killed; interval is the wall-clock delay between
// frames (0 repaints as fast as the trickle ingests, for scripted runs).
func watchLoop(inf *core.Infrastructure, w io.Writer, frames int, interval time.Duration, ingest func(frame int) error) error {
	for frame := 1; frames <= 0 || frame <= frames; frame++ {
		if ingest != nil {
			if err := ingest(frame); err != nil {
				return fmt.Errorf("watch ingest: %w", err)
			}
		}
		inf.MonitorTick()
		renderWatch(inf, w, frame, interval > 0)
		if interval > 0 && (frames <= 0 || frame < frames) {
			time.Sleep(interval)
		}
	}
	return nil
}
