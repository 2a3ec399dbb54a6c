// Package web implements the Fig. 4 web/visualization tier: an HTTP server
// exposing the cyberinfrastructure's stores and analysis results as JSON —
// "the result of inference will be sent to the web server to be visualized
// on our website". Endpoints cover the layer inventory, geo-time tweet
// queries, district crime lookups, camera search, the operator alert feed,
// and the §IV.B narrowing funnel.
package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/tsdb"
)

// ErrBadRequest marks client-side parameter errors.
var ErrBadRequest = errors.New("web: bad request")

// Server serves the dashboard API for one infrastructure.
type Server struct {
	inf *core.Infrastructure
	mux *http.ServeMux
}

var _ http.Handler = (*Server)(nil)

// NewServer builds the handler. It does not listen; mount it on any
// http.Server (or httptest).
func NewServer(inf *core.Infrastructure) *Server {
	s := &Server{inf: inf, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/inventory", s.handleInventory)
	s.mux.HandleFunc("GET /api/tweets/near", s.handleTweetsNear)
	s.mux.HandleFunc("GET /api/crimes/district/{id}", s.handleCrimesDistrict)
	s.mux.HandleFunc("GET /api/cameras/near", s.handleCamerasNear)
	s.mux.HandleFunc("GET /api/cameras", s.handleCameras)
	s.mux.HandleFunc("GET /api/alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /api/health", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/traces", s.handleTraces)
	s.mux.HandleFunc("GET /api/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /api/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/slo", s.handleSLO)
	s.mux.HandleFunc("GET /api/query", s.handleQuery)
	s.mux.HandleFunc("GET /api/series", s.handleSeries)
	s.mux.HandleFunc("GET /api/alerting", s.handleAlerting)
	s.mux.HandleFunc("GET /api/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /api/control", s.handleControl)
	s.mux.HandleFunc("GET /api/profile", s.handleProfile)
	s.mux.HandleFunc("GET /api/profile/flame", s.handleProfileFlame)
	s.mux.HandleFunc("GET /api/incidents", s.handleIncidents)
	s.mux.HandleFunc("GET /api/graph", s.handleGraph)
	s.registerRuntimeMetrics()
	return s
}

// registerRuntimeMetrics exposes the serving process's own Go runtime health
// on /metrics next to the infrastructure families: goroutine count, live heap
// bytes, and a p99 over every GC pause since process start. Each gauge reads
// one runtime/metrics sample, which does not stop the world.
func (s *Server) registerRuntimeMetrics() {
	r := s.inf.Telemetry
	r.GaugeFunc("cityinfra_go_goroutines", "goroutines currently live",
		runtimeGauge("/sched/goroutines:goroutines", func(v metrics.Value) float64 { return float64(v.Uint64()) }))
	r.GaugeFunc("cityinfra_go_heap_alloc_bytes", "bytes of allocated heap objects",
		runtimeGauge("/memory/classes/heap/objects:bytes", func(v metrics.Value) float64 { return float64(v.Uint64()) }))
	r.GaugeFunc("cityinfra_go_gc_pause_p99_seconds", "p99 of GC pauses since process start",
		runtimeGauge("/sched/pauses/total/gc:seconds", func(v metrics.Value) float64 {
			return histogramQuantile(v.Float64Histogram(), 0.99)
		}))
}

// runtimeGauge reads the named runtime/metrics sample through read. Sample
// buffers are pooled, so a scrape does not allocate one per gauge.
func runtimeGauge(name string, read func(metrics.Value) float64) func() float64 {
	pool := &sync.Pool{New: func() any { return &[1]metrics.Sample{{Name: name}} }}
	return func() float64 {
		sp := pool.Get().(*[1]metrics.Sample)
		metrics.Read(sp[:])
		v := read(sp[0].Value)
		pool.Put(sp)
		return v
	}
}

// histogramQuantile returns the upper bound of the bucket holding the q-th
// observation of h (its lower bound for the open-ended last bucket), or 0
// for an empty histogram.
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total-1)*q) + 1
	var seen uint64
	for i, c := range h.Counts {
		if seen += c; seen >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return 0
}

// ServeHTTP dispatches to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleHealth is the one probe-able health signal for orchestrators. It
// stays HTTP 200 either way but reports "degraded" when any SLO is burning
// its error budget faster than the objective allows (burn rate > 1.0) or
// any alert rule is firing, with the offenders named.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.inf.HDFS.Status()
	status := "ok"
	burning := []string{} // non-nil so the JSON field is always an array
	maxBurn := 0.0
	for _, rep := range s.inf.SLOs.Reports() {
		if rep.BurnRate > maxBurn {
			maxBurn = rep.BurnRate
		}
		if rep.BurnRate > 1.0 {
			burning = append(burning, rep.Name)
		}
	}
	firing := s.inf.Alerts.Firing()
	if firing == nil {
		firing = []string{}
	}
	if len(burning) > 0 || len(firing) > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          status,
		"sloMaxBurnRate":  maxBurn,
		"slosBurning":     burning,
		"alertsFiring":    firing,
		"hdfsLiveNodes":   st.LiveNodes,
		"hdfsLostBlocks":  st.LostBlocks,
		"brokerTopics":    s.inf.Broker.Topics(),
		"brokerNodesUp":   s.inf.Broker.NodesUp(),
		"brokerUnderRepl": s.inf.Broker.UnderReplicated(),
		"camerasDeployed": len(s.inf.Cameras),
	})
}

func (s *Server) handleInventory(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.inf.Inventory())
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.inf.Telemetry.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is drop the connection mid-body.
		return
	}
}

// parseLimit reads an optional ?limit= query parameter (0 means unlimited).
func parseLimit(r *http.Request) (int, error) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("%w: limit", ErrBadRequest)
	}
	return n, nil
}

// handleTraces lists the retained trace ids, newest first; ?limit= caps the
// listing. total is the retained count before the cap.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit, err := parseLimit(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ids := s.inf.Tracer.IDs()
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	total := len(ids)
	if limit > 0 && limit < len(ids) {
		ids = ids[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(ids), "total": total, "traces": ids})
}

// handleEvents serves the operational event log. Without ?since= it returns
// the retained ring newest first. With ?since=<seq> it switches to cursor
// mode: events with Seq > since, oldest first, capped at ?limit= — and the
// response carries nextSince (the last Seq returned, or the cursor itself
// when nothing new) so pollers read incrementally instead of re-fetching
// the ring.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	limit, err := parseLimit(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if v := r.URL.Query().Get("since"); v != "" {
		since, err := strconv.ParseInt(v, 10, 64)
		if err != nil || since < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: since", ErrBadRequest))
			return
		}
		evs := s.inf.Events.EventsSince(since, limit)
		next := since
		if len(evs) > 0 {
			next = evs[len(evs)-1].Seq
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"count": len(evs), "total": s.inf.Events.Total(),
			"nextSince": next, "events": evs,
		})
		return
	}
	evs := s.inf.Events.Events(limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(evs), "total": s.inf.Events.Total(), "events": evs,
	})
}

// handleCluster serves the replicated broker's full state: node liveness,
// per-partition leadership/epoch/ISR/high-watermark, and the election and
// replication counters — the operator's view of whether the streaming spine
// can lose a node right now without losing data.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	st := s.inf.Broker.State()
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":           st.Nodes,
		"partitions":      st.Partitions,
		"underReplicated": st.UnderReplicated,
		"leaderless":      st.Leaderless,
		"stats":           st.Stats,
	})
}

// handleControl serves the adaptive controller's snapshot: the health
// verdict and streaks, every live knob, per-kind action totals, and the
// retained action history (?limit= caps the returned actions, newest kept).
func (s *Server) handleControl(w http.ResponseWriter, r *http.Request) {
	limit, err := parseLimit(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := s.inf.Control.Status()
	if limit > 0 && len(st.Actions) > limit {
		st.Actions = st.Actions[len(st.Actions)-limit:]
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSLO serves every objective's windowed burn math.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	reps := s.inf.SLOs.Reports()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(reps), "slos": reps})
}

// handleQuery evaluates one windowed expression against the time-series
// store at its current clock reading: rate(), delta(), avg/min/max_over_time,
// quantile_over_time, a selector (`name` or `name{camera="cam-7"}`) for an
// instant lookup, or a sum/avg/min/max aggregation (optionally `by (label)`).
// A single-valued answer keeps the historical one-object shape; a selector or
// grouped aggregation matching several series returns a vector.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("expr")
	if expr == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: missing expr", ErrBadRequest))
		return
	}
	vals, err := s.inf.TSDB.EvalAll(expr, s.inf.TSDB.Now())
	switch {
	case errors.Is(err, tsdb.ErrUnknownSeries), errors.Is(err, tsdb.ErrNoSamples):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if len(vals) == 1 {
		writeJSON(w, http.StatusOK, vals[0])
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"expr": expr, "count": len(vals), "values": vals,
	})
}

// handleCameras serves the fleet table: one row per camera the frame path
// has ever seen (exact counts survive top-K rollup), the windowed rate/burn
// accounting, and the cardinality summary proving the registry footprint
// stays bounded. ?sort=burn switches from id order to hottest-first (only
// cameras with signal); ?limit= caps the rows either way.
func (s *Server) handleCameras(w http.ResponseWriter, r *http.Request) {
	fl := s.inf.Fleet
	limit, err := parseLimit(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var rows []core.CameraStatus
	switch sortKey := r.URL.Query().Get("sort"); sortKey {
	case "", "id":
		rows = fl.Report()
	case "burn":
		rows = fl.TopBurning(0)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: sort must be id or burn", ErrBadRequest))
		return
	}
	total := len(rows)
	if limit > 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(rows), "total": total,
		"summary": fl.Summary(), "cameras": rows,
	})
}

// handleSeries lists the store's retained series inventory.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	inv := s.inf.TSDB.Inventory()
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(inv), "scrapes": s.inf.TSDB.Scrapes(), "series": inv,
	})
}

// handleProfile serves the continuous profiler's region table: cumulative
// and self seconds, calls, and sampled allocation rates per region, plus the
// last tick's hot-region ranking (the same ranking the watch dashboard and
// the cityinfra_profile_hot_region_* series report). ?limit= caps both
// listings; ?sort=self|cum|allocs orders the region table (default self).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	limit, err := parseLimit(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sortKey := r.URL.Query().Get("sort")
	if sortKey == "" {
		sortKey = "self"
	}
	var less func(a, b profile.RegionStat) bool
	switch sortKey {
	case "self":
		less = func(a, b profile.RegionStat) bool { return a.SelfSeconds > b.SelfSeconds }
	case "cum":
		less = func(a, b profile.RegionStat) bool { return a.CumSeconds > b.CumSeconds }
	case "allocs":
		less = func(a, b profile.RegionStat) bool { return a.AllocBytes > b.AllocBytes }
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: sort must be self, cum, or allocs", ErrBadRequest))
		return
	}
	p := s.inf.Profiler
	regions := p.Snapshot()
	sort.SliceStable(regions, func(i, j int) bool { return less(regions[i], regions[j]) })
	total := len(regions)
	if limit > 0 && limit < len(regions) {
		regions = regions[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(regions),
		"total":   total,
		"ticks":   p.Ticks(),
		"sort":    sortKey,
		"regions": regions,
		"hot":     p.HotRegions(limit),
	})
}

// handleProfileFlame serves the region tree as nested flame-view JSON:
// children within parents, hottest-first, with synthesized connector nodes
// marked.
func (s *Server) handleProfileFlame(w http.ResponseWriter, r *http.Request) {
	roots := s.inf.Profiler.Flame()
	n := 0
	var count func(nodes []*profile.FlameNode)
	count = func(nodes []*profile.FlameNode) {
		for _, node := range nodes {
			n++
			count(node.Children)
		}
	}
	count(roots)
	writeJSON(w, http.StatusOK, map[string]any{"nodes": n, "roots": roots})
}

// handleAlerting serves the alert engine's rule states — the declarative
// rule feed, distinct from the operator alert queue at /api/alerts.
func (s *Server) handleAlerting(w http.ResponseWriter, r *http.Request) {
	states := s.inf.Alerts.States()
	firing := s.inf.Alerts.Firing()
	if firing == nil {
		firing = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(states), "firing": firing, "rules": states,
	})
}

// handleTrace serves one trace's spans plus its per-stage latency breakdown.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tv, err := s.inf.Tracer.Trace(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace": tv, "breakdown": tv.Breakdown()})
}

// parseNear reads the lat/lon/radiusKm query params of the near routes. The
// centre must be a valid coordinate and the radius finite and positive.
func parseNear(r *http.Request) (geo.Point, float64, error) {
	q := r.URL.Query()
	lat, err := strconv.ParseFloat(q.Get("lat"), 64)
	if err != nil {
		return geo.Point{}, 0, fmt.Errorf("%w: lat: %v", ErrBadRequest, err)
	}
	lon, err := strconv.ParseFloat(q.Get("lon"), 64)
	if err != nil {
		return geo.Point{}, 0, fmt.Errorf("%w: lon: %v", ErrBadRequest, err)
	}
	p := geo.Point{Lat: lat, Lon: lon}
	if err := p.Validate(); err != nil {
		return geo.Point{}, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	radius, err := strconv.ParseFloat(q.Get("radiusKm"), 64)
	if err != nil || math.IsNaN(radius) || math.IsInf(radius, 0) || radius <= 0 {
		return geo.Point{}, 0, fmt.Errorf("%w: radiusKm", ErrBadRequest)
	}
	return p, radius, nil
}

func (s *Server) handleTweetsNear(w http.ResponseWriter, r *http.Request) {
	center, radius, err := parseNear(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Default window: everything.
	from := time.Unix(0, 0)
	to := time.Unix(1<<40, 0)
	if v := r.URL.Query().Get("fromUnix"); v != "" {
		sec, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: fromUnix", ErrBadRequest))
			return
		}
		from = time.Unix(sec, 0)
	}
	if v := r.URL.Query().Get("toUnix"); v != "" {
		sec, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: toUnix", ErrBadRequest))
			return
		}
		to = time.Unix(sec, 0)
	}
	docs, err := s.inf.TweetsNear(center, radius, from, to)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(docs), "tweets": docs})
}

func (s *Server) handleCrimesDistrict(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: district id", ErrBadRequest))
		return
	}
	rows, err := s.inf.CrimesInDistrict(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"district": id, "count": len(rows), "rows": rows})
}

func (s *Server) handleCamerasNear(w http.ResponseWriter, r *http.Request) {
	center, radius, err := parseNear(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	type camOut struct {
		ID         string  `json:"id"`
		Corridor   string  `json:"corridor"`
		DistanceKm float64 `json:"distanceKm"`
	}
	var out []camOut
	for _, n := range s.inf.CamIndex.QueryRadius(center, radius) {
		out = append(out, camOut{ID: n.Value.ID, Corridor: n.Value.Corridor, DistanceKm: n.DistanceKm})
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(out), "cameras": out})
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	max := 100
	if v := r.URL.Query().Get("max"); v != "" {
		m, err := strconv.Atoi(v)
		if err != nil || m < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: max", ErrBadRequest))
			return
		}
		max = m
	}
	alerts, err := s.inf.PendingAlerts(max)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(alerts), "alerts": alerts})
}
