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

// camReading is the three exact counters the accounting window follows:
// cumulative as read at one tick, or the difference of two such readings.
type camReading struct{ ingested, delivered, undelivered uint64 }

// camRecord is everything the fleet keeps for one camera: the handle bundle
// the frame path writes through and the accounting window Fleet.Tick
// advances. ring holds the cumulative readings of the last
// fleetWindowTicks+1 ticks, indexed by tick number; the slots of ticks before
// the camera was first seen stay zero, which is what its counters read then —
// so the window's deltas are always newest slot minus oldest slot.
type camRecord struct {
	camHandles
	id       string
	ring     [fleetWindowTicks + 1]camReading
	lastBurn float64
}

// window returns the counter deltas over the accounting window that closed
// at the given tick.
func (c *camRecord) window(tick int) camReading {
	now, old := c.ring[tick%len(c.ring)], c.ring[(tick+1)%len(c.ring)]
	return camReading{now.ingested - old.ingested, now.delivered - old.delivered, now.undelivered - old.undelivered}
}

// burn is the SLO burn rate of one window: the bad fraction of attempted
// deliveries divided by the error budget (1 - target).
func (w camReading) burn() float64 {
	attempted := w.delivered + w.undelivered
	if attempted == 0 || w.undelivered == 0 {
		return 0
	}
	return (float64(w.undelivered) / float64(attempted)) / (1 - fleetSLOTarget)
}

// rate is the ingest rate of one window in frames/s. ticks caps the divisor
// while the window is still filling after boot.
func (w camReading) rate(interval time.Duration, ticks int) float64 {
	if ticks > fleetWindowTicks {
		ticks = fleetWindowTicks
	}
	if ticks <= 0 {
		return 0
	}
	return float64(w.ingested) / (time.Duration(ticks) * interval).Seconds()
}

// Fleet is the per-camera dimensional telemetry layer: one vec family per
// frame-path signal, all bounded to the same top-K budget, plus the per-tick
// windowed accounting (rate, SLO burn) behind the /api/cameras fleet table
// and the -watch fleet pane. Frame-path writers go through camera(); the
// monitor loop calls Tick() once per scrape; readers call Report().
type Fleet struct {
	interval time.Duration

	ingested    *telemetry.CounterVec
	shed        *telemetry.CounterVec
	delivered   *telemetry.CounterVec
	undelivered *telemetry.CounterVec
	offloaded   *telemetry.CounterVec
	e2e         *telemetry.HistogramVec
	burn        *telemetry.GaugeVec
	rolledUp    *telemetry.Counter
	// series maps every vec family above, by registry name, to its live
	// series count, for Summary.
	series map[string]func() int

	// mu guards everything below. The frame path takes it shared for one map
	// hit; Tick takes it exclusively, so Report never sees a half-closed
	// window.
	mu    sync.RWMutex
	cams  map[string]*camRecord
	byID  []*camRecord // the same records in id order, kept sorted on first sight
	ticks int
}

// wireFleet boots the per-camera dimensional layer. Each family's registry
// footprint is bounded at DefaultVecMaxSeries+1 series regardless of fleet
// width (see telemetry vec rollup semantics), so the default 220-camera
// network costs the same as a 16-camera one.
func (inf *Infrastructure) wireFleet() {
	r := inf.Telemetry
	const k = telemetry.DefaultVecMaxSeries
	fl := &Fleet{
		interval: defaultScrapeInterval,
		rolledUp: r.Counter(telemetry.RolledUpMetric,
			"vec children demoted out of their family's top-K and folded into its {~other} rollup series"),
		series: make(map[string]func() int),
		cams:   make(map[string]*camRecord),
	}
	counter := func(name, help string) *telemetry.CounterVec {
		v := r.CounterVec(name, help, "camera", k)
		fl.series[name] = v.SeriesCount
		return v
	}
	fl.ingested = counter("cityinfra_camera_frames_ingested_total",
		"frames admitted into the pipeline, by camera")
	fl.shed = counter("cityinfra_camera_frames_shed_total",
		"frames dropped at admission by the shedding floor, by camera")
	fl.delivered = counter("cityinfra_camera_frames_delivered_total",
		"frames whose annotation landed in the cloud archive, by camera")
	fl.undelivered = counter("cityinfra_camera_frames_undelivered_total",
		"frames quarantined on any pipeline stage, by camera")
	fl.offloaded = counter("cityinfra_camera_frames_offloaded_total",
		"frames below the early-exit gate whose feature maps went upstream, by camera")
	const e2eName, burnName = "cityinfra_camera_e2e_seconds", "cityinfra_camera_slo_burn"
	fl.e2e = r.HistogramVec(e2eName, "end-to-end frame latency, by camera", "camera", nil, k)
	fl.burn = r.GaugeVec(burnName,
		"windowed delivery-SLO burn rate, by camera (1.0 = consuming budget at the allowed rate)", "camera", k)
	fl.series[e2eName], fl.series[burnName] = fl.e2e.SeriesCount, fl.burn.SeriesCount
	inf.Fleet = fl
}

// camera returns the cached handle bundle for one camera, creating its
// record on first sight. The steady-state path is one read-locked map hit
// and zero allocations.
func (fl *Fleet) camera(id string) *camHandles {
	fl.mu.RLock()
	c, ok := fl.cams[id]
	fl.mu.RUnlock()
	if ok {
		return &c.camHandles
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if c, ok := fl.cams[id]; ok {
		return &c.camHandles
	}
	c = &camRecord{id: id, camHandles: camHandles{
		ingested:    fl.ingested.With(id),
		shed:        fl.shed.With(id),
		delivered:   fl.delivered.With(id),
		undelivered: fl.undelivered.With(id),
		offloaded:   fl.offloaded.With(id),
		e2e:         fl.e2e.With(id),
		burn:        fl.burn.With(id),
	}}
	fl.cams[id] = c
	at := sort.Search(len(fl.byID), func(i int) bool { return fl.byID[i].id > id })
	fl.byID = append(fl.byID, nil)
	copy(fl.byID[at+1:], fl.byID[at:])
	fl.byID[at] = c
	return &c.camHandles
}

// Tick closes one per-camera accounting window: it reads every camera's
// exact counters into this tick's ring slot and rewrites the burn gauge, in
// id order. The gauge is written only on signal (nonzero burn, or the first
// clean tick after one) — so under the vec heavy-hitter ranking the cameras
// that are actually burning budget are exactly the ones that earn
// materialized burn series. MonitorTick calls this before the TSDB scrape.
func (fl *Fleet) Tick() {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.ticks++
	for _, c := range fl.byID {
		c.ring[fl.ticks%len(c.ring)] = camReading{c.ingested.Value(), c.delivered.Value(), c.undelivered.Value()}
		b := c.window(fl.ticks).burn()
		if b > 0 || c.lastBurn > 0 {
			c.burn.Set(b)
		}
		c.lastBurn = b
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
	series := make(map[string]int, len(fl.series))
	for name, count := range fl.series {
		series[name] = count()
	}
	return FleetSummary{
		Cameras:         n,
		MaxSeries:       telemetry.DefaultVecMaxSeries,
		SeriesPerFamily: series,
		RolledUpTotal:   fl.rolledUp.Value(),
	}
}

// Report snapshots every camera sorted by id. All numbers are exact — the
// per-camera counts ride the vec handles, which keep exact accounting even
// for cameras folded into the rollup series.
func (fl *Fleet) Report() []CameraStatus {
	fl.mu.RLock()
	defer fl.mu.RUnlock()
	out := make([]CameraStatus, 0, len(fl.byID))
	for _, c := range fl.byID {
		out = append(out, CameraStatus{
			Camera:      c.id,
			Ingested:    c.ingested.Value(),
			Shed:        c.shed.Value(),
			Delivered:   c.delivered.Value(),
			Undelivered: c.undelivered.Value(),
			Offloaded:   c.offloaded.Value(),
			RatePerSec:  c.window(fl.ticks).rate(fl.interval, fl.ticks),
			P99Seconds:  c.e2e.Quantile(0.99),
			Burn:        c.lastBurn,
			Real:        c.ingested.Real(),
		})
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
