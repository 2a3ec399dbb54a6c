package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// fleetWindowTicks is the per-camera accounting window: rates and SLO burn
// are computed over the last three monitor ticks, matching the 15 s alert
// windows at the default 5 s scrape interval — so the fleet table, the
// camera-delivery-rate rule, and the global pipeline rules all agree on what
// "recent" means, and burn decays to zero within three clean ticks of a
// fault ending.
const fleetWindowTicks = 3

// fleetSLOTarget is the per-camera delivery objective the burn rate is
// normalized against — the same 99.9% target as the global ingest-delivery
// SLO, so burn 1.0 means "consuming error budget exactly at the allowed
// rate" and a camera under a produce blackout reads in the hundreds.
const fleetSLOTarget = 0.999

// camHandles is one camera's cached instrument bundle. Every field is a vec
// handle whose record path is a few atomics — the frame hot path looks the
// bundle up once per frame (a read-locked map hit) and never allocates.
type camHandles struct {
	ingested    *telemetry.LabeledCounter
	shed        *telemetry.LabeledCounter
	delivered   *telemetry.LabeledCounter
	undelivered *telemetry.LabeledCounter
	offloaded   *telemetry.LabeledCounter
	e2e         *telemetry.LabeledHistogram
	burn        *telemetry.LabeledGauge
}

// camWindow is one camera's per-tick delta ring, advanced by Fleet.Tick.
type camWindow struct {
	prevIngested, prevDelivered, prevUndelivered uint64

	dIngested    [fleetWindowTicks]uint64
	dDelivered   [fleetWindowTicks]uint64
	dUndelivered [fleetWindowTicks]uint64

	lastBurn float64
}

// windowBurn is the camera's SLO burn rate over the delta window: the bad
// fraction of attempted deliveries divided by the error budget (1 - target).
func (w *camWindow) windowBurn() float64 {
	var bad, attempted uint64
	for i := 0; i < fleetWindowTicks; i++ {
		bad += w.dUndelivered[i]
		attempted += w.dDelivered[i] + w.dUndelivered[i]
	}
	if attempted == 0 || bad == 0 {
		return 0
	}
	return (float64(bad) / float64(attempted)) / (1 - fleetSLOTarget)
}

// windowRate is the camera's ingest rate over the delta window in frames/s.
// ticks caps the divisor while the window is still filling after boot.
func (w *camWindow) windowRate(interval time.Duration, ticks int) float64 {
	n := fleetWindowTicks
	if ticks < n {
		n = ticks
	}
	if n <= 0 {
		return 0
	}
	var d uint64
	for i := 0; i < fleetWindowTicks; i++ {
		d += w.dIngested[i]
	}
	return float64(d) / (time.Duration(n) * interval).Seconds()
}

// Fleet is the per-camera dimensional telemetry layer: one vec family per
// frame-path signal, all bounded to the same top-K budget, plus the per-tick
// windowed accounting (rate, SLO burn) behind the /api/cameras fleet table
// and the -watch fleet pane. Frame-path writers go through camera(); the
// monitor loop calls Tick() once per scrape; readers call Report().
type Fleet struct {
	interval time.Duration
	maxK     int

	ingested    *telemetry.CounterVec
	shed        *telemetry.CounterVec
	delivered   *telemetry.CounterVec
	undelivered *telemetry.CounterVec
	offloaded   *telemetry.CounterVec
	e2e         *telemetry.HistogramVec
	burn        *telemetry.GaugeVec
	rolledUp    *telemetry.Counter

	mu   sync.RWMutex
	cams map[string]*camHandles

	// tickMu serializes Tick/Report; windows is only touched under it.
	tickMu  sync.Mutex
	windows map[string]*camWindow
	ticks   int
	slot    int
}

// wireFleet boots the per-camera dimensional layer unless the config
// disables it. Each family's registry footprint is bounded at
// FleetMaxSeries+1 series regardless of fleet width (see telemetry vec
// rollup semantics), so the default 220-camera network costs the same as a
// 16-camera one.
func (inf *Infrastructure) wireFleet() {
	if inf.cfg.DisableFleetTelemetry {
		return
	}
	r := inf.Telemetry
	k := inf.cfg.FleetMaxSeries
	fl := &Fleet{
		interval: defaultScrapeInterval,
		maxK:     k,
		ingested: r.CounterVec("cityinfra_camera_frames_ingested_total",
			"frames admitted into the pipeline, by camera", "camera", k),
		shed: r.CounterVec("cityinfra_camera_frames_shed_total",
			"frames dropped at admission by the shedding floor, by camera", "camera", k),
		delivered: r.CounterVec("cityinfra_camera_frames_delivered_total",
			"frames whose annotation landed in the cloud archive, by camera", "camera", k),
		undelivered: r.CounterVec("cityinfra_camera_frames_undelivered_total",
			"frames quarantined on any pipeline stage, by camera", "camera", k),
		offloaded: r.CounterVec("cityinfra_camera_frames_offloaded_total",
			"frames below the early-exit gate whose feature maps went upstream, by camera", "camera", k),
		e2e: r.HistogramVec("cityinfra_camera_e2e_seconds",
			"end-to-end frame latency, by camera", "camera", nil, k),
		burn: r.GaugeVec("cityinfra_camera_slo_burn",
			"windowed delivery-SLO burn rate, by camera (1.0 = consuming budget at the allowed rate)", "camera", k),
		rolledUp: r.Counter(telemetry.RolledUpMetric,
			"vec children demoted out of their family's top-K and folded into its {~other} rollup series"),
		cams:    make(map[string]*camHandles),
		windows: make(map[string]*camWindow),
	}
	if fl.maxK <= 0 {
		fl.maxK = telemetry.DefaultVecMaxSeries
	}
	inf.Fleet = fl
}

// camera returns the cached handle bundle for one camera, creating it on
// first sight. The steady-state path is one read-locked map hit and zero
// allocations.
func (fl *Fleet) camera(id string) *camHandles {
	fl.mu.RLock()
	h, ok := fl.cams[id]
	fl.mu.RUnlock()
	if ok {
		return h
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if h, ok := fl.cams[id]; ok {
		return h
	}
	h = &camHandles{
		ingested:    fl.ingested.With(id),
		shed:        fl.shed.With(id),
		delivered:   fl.delivered.With(id),
		undelivered: fl.undelivered.With(id),
		offloaded:   fl.offloaded.With(id),
		e2e:         fl.e2e.With(id),
		burn:        fl.burn.With(id),
	}
	fl.cams[id] = h
	return h
}

// noCam is the bundle the frame path gets when the dimensional layer is
// disabled: every handle nil, and a nil vec handle records nothing, so the
// call sites carry no guards.
var noCam camHandles

// fleetCam is the frame path's accessor.
func (inf *Infrastructure) fleetCam(id string) *camHandles {
	if inf.Fleet == nil {
		return &noCam
	}
	return inf.Fleet.camera(id)
}

// Tick closes one per-camera accounting window: it snapshots every camera's
// exact counters, records this tick's deltas into the ring, and rewrites the
// burn gauge. The gauge is written only on signal (nonzero burn, or the
// first clean tick after one) — so under the vec heavy-hitter ranking the
// cameras that are actually burning budget are exactly the ones that earn
// materialized burn series. MonitorTick calls this before the TSDB scrape.
func (fl *Fleet) Tick() {
	fl.tickMu.Lock()
	defer fl.tickMu.Unlock()
	fl.ticks++
	fl.slot = (fl.slot + 1) % fleetWindowTicks

	fl.mu.RLock()
	ids := make([]string, 0, len(fl.cams))
	for id := range fl.cams {
		ids = append(ids, id)
	}
	fl.mu.RUnlock()
	sort.Strings(ids)

	for _, id := range ids {
		fl.mu.RLock()
		h := fl.cams[id]
		fl.mu.RUnlock()
		w := fl.windows[id]
		if w == nil {
			w = &camWindow{}
			fl.windows[id] = w
		}
		ing, del, und := h.ingested.Value(), h.delivered.Value(), h.undelivered.Value()
		w.dIngested[fl.slot] = ing - w.prevIngested
		w.dDelivered[fl.slot] = del - w.prevDelivered
		w.dUndelivered[fl.slot] = und - w.prevUndelivered
		w.prevIngested, w.prevDelivered, w.prevUndelivered = ing, del, und
		b := w.windowBurn()
		if b > 0 || w.lastBurn > 0 {
			h.burn.Set(b)
		}
		w.lastBurn = b
	}
}

// CameraStatus is one camera's row in the fleet table: exact lifetime
// counters off the vec handles, the windowed rate and SLO burn, the p99 from
// whichever latency series (own or tail pool) the camera records into, and
// whether the camera currently owns materialized top-K series.
type CameraStatus struct {
	Camera      string  `json:"camera"`
	Ingested    uint64  `json:"ingested"`
	Shed        uint64  `json:"shed,omitempty"`
	Delivered   uint64  `json:"delivered"`
	Undelivered uint64  `json:"undelivered,omitempty"`
	Offloaded   uint64  `json:"offloaded,omitempty"`
	RatePerSec  float64 `json:"ratePerSec"`
	P99Seconds  float64 `json:"p99Seconds"`
	Burn        float64 `json:"burn,omitempty"`
	Real        bool    `json:"real"`
}

// FleetSummary heads the /api/cameras payload: how wide the fleet is versus
// how narrow the registry footprint stays.
type FleetSummary struct {
	Cameras         int            `json:"cameras"`
	MaxSeries       int            `json:"maxSeries"`
	SeriesPerFamily map[string]int `json:"seriesPerFamily"`
	RolledUpTotal   uint64         `json:"rolledUpTotal"`
}

// Summary reports the fleet's cardinality accounting.
func (fl *Fleet) Summary() FleetSummary {
	fl.mu.RLock()
	n := len(fl.cams)
	fl.mu.RUnlock()
	return FleetSummary{
		Cameras:   n,
		MaxSeries: fl.maxK,
		SeriesPerFamily: map[string]int{
			"cityinfra_camera_frames_ingested_total":    fl.ingested.SeriesCount(),
			"cityinfra_camera_frames_shed_total":        fl.shed.SeriesCount(),
			"cityinfra_camera_frames_delivered_total":   fl.delivered.SeriesCount(),
			"cityinfra_camera_frames_undelivered_total": fl.undelivered.SeriesCount(),
			"cityinfra_camera_frames_offloaded_total":   fl.offloaded.SeriesCount(),
			"cityinfra_camera_e2e_seconds":              fl.e2e.SeriesCount(),
			"cityinfra_camera_slo_burn":                 fl.burn.SeriesCount(),
		},
		RolledUpTotal: fl.rolledUp.Value(),
	}
}

// Report snapshots every camera sorted by id. All numbers are exact — the
// per-camera counts ride the vec handles, which keep exact accounting even
// for cameras folded into the rollup series.
func (fl *Fleet) Report() []CameraStatus {
	fl.tickMu.Lock()
	defer fl.tickMu.Unlock()
	fl.mu.RLock()
	ids := make([]string, 0, len(fl.cams))
	for id := range fl.cams {
		ids = append(ids, id)
	}
	fl.mu.RUnlock()
	sort.Strings(ids)
	out := make([]CameraStatus, 0, len(ids))
	for _, id := range ids {
		fl.mu.RLock()
		h := fl.cams[id]
		fl.mu.RUnlock()
		cs := CameraStatus{
			Camera:      id,
			Ingested:    h.ingested.Value(),
			Shed:        h.shed.Value(),
			Delivered:   h.delivered.Value(),
			Undelivered: h.undelivered.Value(),
			Offloaded:   h.offloaded.Value(),
			P99Seconds:  h.e2e.Quantile(0.99),
			Real:        h.ingested.Real(),
		}
		if w := fl.windows[id]; w != nil {
			cs.RatePerSec = w.windowRate(fl.interval, fl.ticks)
			cs.Burn = w.lastBurn
		}
		out = append(out, cs)
	}
	return out
}

// TopBurning returns up to n cameras with nonzero burn, hottest first (burn
// desc, undelivered desc, id asc) — the fleet-localization read used by the
// watch pane and by incident evidence.
func (fl *Fleet) TopBurning(n int) []CameraStatus {
	report := fl.Report()
	hot := report[:0:0]
	for _, cs := range report {
		if cs.Burn > 0 || cs.Undelivered > 0 {
			hot = append(hot, cs)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Burn != hot[j].Burn {
			return hot[i].Burn > hot[j].Burn
		}
		if hot[i].Undelivered != hot[j].Undelivered {
			return hot[i].Undelivered > hot[j].Undelivered
		}
		return hot[i].Camera < hot[j].Camera
	})
	if n > 0 && len(hot) > n {
		hot = hot[:n]
	}
	return hot
}
