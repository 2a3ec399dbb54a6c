package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/citydata"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/web"
)

// A workload is one load shape. Sizes are fixed item counts, not durations:
// throughput falls as the HBase table grows, so both sides of an A/B must
// push the same N. -seconds picks N: a repetition pushes unitsPerSecond ×
// seconds ÷ repetitions units, sized so that the whole run measured for
// about -seconds when the baseline was recorded.
type workload struct {
	name           string
	unitsPerSecond int    // sweeps, rounds or refreshes
	items          string // what throughput_per_s counts
	sample         string // what one latency sample times
	// tail is the percentile latency_tail_us reports: the highest with at
	// least ten samples beyond it at -seconds 15, except on feeds-batch.
	// There p99 is the ten rounds the peak of a GC cycle lands on and moves
	// 16 % from one repetition to the next; p98, twenty rounds in, moves 6 %.
	tail  float64
	setup func(seed int64, units int) (driver, error)
}

var workloads = []workload{
	{name: "frames-sweep", unitsPerSecond: 20, items: "frames", sample: "frame", tail: 0.999,
		setup: func(seed int64, units int) (driver, error) { return setupFrames(seed, units, false) }},
	{name: "frames-chaos", unitsPerSecond: 20, items: "frames", sample: "frame", tail: 0.999,
		setup: func(seed int64, units int) (driver, error) { return setupFrames(seed, units, true) }},
	{name: "feeds-batch", unitsPerSecond: 200, items: "records", sample: "round of 300 records", tail: 0.98,
		setup: setupFeeds},
	{name: "dashboard-mix", unitsPerSecond: 100, items: "refreshes", sample: "refresh", tail: 0.98,
		setup: setupDashboard},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// driver is one workload set up on a fresh infrastructure.
type driver interface {
	infra() *core.Infrastructure
	// describe states the sizes this run pushes.
	describe() string
	// drive is the timed phase.
	drive(m *meter)
	// check compares the end state with the reference; it runs outside the
	// timed phase and returns one line per mismatch.
	check(m *meter) []string
}

// meter collects what the timed phase observes. The loops call into it
// between program calls only, and it allocates nothing per item.
type meter struct {
	rec       *recorder
	samples   []time.Duration
	items     int // completed throughput items
	attempted int // operations whose failure would count
	bad       int // calls returning an error + responses failing validation
	firstBad  string
	stats     core.PipelineStats // summed over every ingest call
	records   [numSpanNames]int  // inputs handed to each kind of ingest call
	offloaded int
	shed      int
	ingest    time.Duration // summed Ingest* call time
	ticks     time.Duration // summed MonitorTick time
}

func (m *meter) begin(name spanName) time.Time {
	now := time.Now()
	m.rec.open(name, now)
	return now
}

func (m *meter) end(t0 time.Time) time.Duration {
	now := time.Now()
	m.rec.close(now)
	return now.Sub(t0)
}

func (m *meter) fail(format string, args ...any) {
	m.bad++
	if m.firstBad == "" {
		m.firstBad = fmt.Sprintf(format, args...)
	}
}

// ingested closes the span of an Ingest* call begun at t0 and books its
// outcome.
func (m *meter) ingested(name spanName, t0 time.Time, n int, st core.PipelineStats, err error) time.Duration {
	d := m.end(t0)
	m.ingest += d
	m.records[name] += n
	m.attempted += n
	m.stats.Collected += st.Collected
	m.stats.Streamed += st.Streamed
	m.stats.Stored += st.Stored
	m.stats.Dropped += st.Dropped
	m.stats.DeadLettered += st.DeadLettered
	m.stats.Retries += st.Retries
	if err != nil {
		m.fail("%s: %v", spanNames[name], err)
	}
	return d
}

// failed is the numerator of failed_share.
func (m *meter) failed() int {
	return m.stats.DeadLettered + m.stats.Dropped + m.shed + m.bad
}

func (m *meter) ingestFrames(inf *core.Infrastructure, frames []core.FrameEvent) time.Duration {
	t0 := m.begin(spIngestFrames)
	st, err := inf.IngestFrames(frames, featuresDir)
	d := m.ingested(spIngestFrames, t0, len(frames), st.PipelineStats, err)
	m.offloaded += st.Offloaded
	m.shed += st.Shed
	return d
}

func (m *meter) tick(inf *core.Infrastructure) {
	t0 := m.begin(spMonitorTick)
	inf.MonitorTick()
	m.ticks += m.end(t0)
}

const featuresDir = "/features"

// inputRand seeds the input generators on a stream of their own: the rng
// handed to core.New keeps being drawn from by HDFS block placement.
func inputRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed + 1<<32)) }

func boot(seed int64) (*core.Infrastructure, error) {
	return core.New(core.DefaultConfig(), rand.New(rand.NewSource(seed)))
}

var frameClasses = []string{"sedan", "truck", "bus", "motorcycle", "van"}

// sweeps builds n sweeps of one frame per camera. Seq is the sweep number,
// so (camera, seq) names each frame once.
func sweeps(cams []citydata.Camera, n int, rng *rand.Rand) []core.FrameEvent {
	out := make([]core.FrameEvent, 0, n*len(cams))
	for s := 0; s < n; s++ {
		for _, cam := range cams {
			out = append(out, core.FrameEvent{
				CameraID: cam.ID, Seq: s, Class: frameClasses[rng.Intn(len(frameClasses))],
				Confidence: rng.Float64(), RawBytes: 64 << 10, FeatureBytes: 8 << 10, Priority: 1,
			})
		}
	}
	return out
}

// mismatches collects reference-check failures, one line each.
type mismatches []string

func (b *mismatches) expect(what string, got, want int) {
	if got != want {
		*b = append(*b, fmt.Sprintf("%s = %d, want %d", what, got, want))
	}
}

func (b *mismatches) noError(what string, err error) {
	if err != nil {
		*b = append(*b, fmt.Sprintf("%s: %v", what, err))
	}
}

// underGate counts the frames whose feature maps must go upstream.
func underGate(inf *core.Infrastructure, frames []core.FrameEvent) int {
	n := 0
	for _, f := range frames {
		if f.Confidence < inf.Config().OffloadThreshold {
			n++
		}
	}
	return n
}

// checkFrameStores holds the stores to the frames sent so far: one
// annotation row each, one archived feature map for each frame under the
// gate, and nothing left unconsumed on the topic.
func checkFrameStores(inf *core.Infrastructure, sent []core.FrameEvent) mismatches {
	var bad mismatches
	rows, err := inf.VideoTab.Scan("", "")
	bad.noError("scan video table", err)
	files := 0
	for _, p := range inf.HDFS.List() {
		if strings.HasPrefix(p, featuresDir+"/") {
			files++
		}
	}
	lag, err := inf.Broker.Lag("inference-tier", "frames")
	bad.noError("lag", err)
	bad.expect("video table rows", len(rows), len(sent))
	bad.expect(featuresDir+" files", files, underGate(inf, sent))
	bad.expect("inference-tier lag on frames", int(lag), 0)
	return bad
}

// ---- frames-sweep and frames-chaos ----

type framesDriver struct {
	inf    *core.Infrastructure
	frames []core.FrameEvent
}

func setupFrames(seed int64, nSweeps int, chaos bool) (driver, error) {
	inf, err := boot(seed)
	if err != nil {
		return nil, err
	}
	if chaos {
		// Single faults at 2 %, not bursts: no run may lose a frame on any
		// seed, and with bursts of two the shared breaker opens now and then
		// (five failures in a row) and a produce caught behind it
		// dead-letters - 2 of 10 fresh seeds lost a frame at 2 %, and 1 % and
		// 0.5 % only make that rarer. Singles keep about one retry per ten
		// frames and never open the breaker. The controller is off because a
		// retry burst makes it shed or migrate a seed-dependent share of the
		// run, and then the work is not the same.
		inf.EnableChaos(faults.NewInjector(faults.Config{
			Seed: seed, ErrorRate: 0.02, BurstLen: 1, LatencyRate: 0.05, LatencySpikeMs: 20,
		}))
		inf.Control.Disable()
	}
	return &framesDriver{inf: inf, frames: sweeps(inf.Cameras, nSweeps, inputRand(seed))}, nil
}

func (d *framesDriver) infra() *core.Infrastructure { return d.inf }

func (d *framesDriver) describe() string {
	n := len(d.inf.Cameras)
	return fmt.Sprintf("%d sweeps x %d cameras = %d frames, one IngestFrames call each, MonitorTick after every sweep",
		len(d.frames)/n, n, len(d.frames))
}

func (d *framesDriver) drive(m *meter) {
	n := len(d.inf.Cameras)
	for i := range d.frames {
		m.samples = append(m.samples, m.ingestFrames(d.inf, d.frames[i:i+1]))
		m.items++
		if (i+1)%n == 0 {
			m.tick(d.inf)
		}
	}
}

func (d *framesDriver) check(m *meter) []string {
	bad := checkFrameStores(d.inf, d.frames)
	under := underGate(d.inf, d.frames)
	bad.expect("Collected", m.stats.Collected, len(d.frames))
	bad.expect("Stored", m.stats.Stored, 2*len(d.frames)+under)
	bad.expect("frames offloaded", m.offloaded, under)
	bad.expect("frames shed", m.shed, 0)
	return bad
}

// ---- feeds-batch ----

const feedBatch = 100

type feedsDriver struct {
	inf    *core.Infrastructure
	tweets []citydata.Tweet
	waze   []citydata.WazeReport
	calls  []citydata.Call911
}

func setupFeeds(seed int64, rounds int) (driver, error) {
	inf, err := boot(seed)
	if err != nil {
		return nil, err
	}
	rng := inputRand(seed)
	epoch := inf.Config().Epoch
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		return nil, err
	}
	tcfg := citydata.DefaultTweetConfig(epoch)
	tcfg.Count = rounds * feedBatch
	d := &feedsDriver{inf: inf}
	if d.tweets, err = citydata.GenerateTweets(tcfg, incidents, inf.Gang, rng); err != nil {
		return nil, err
	}
	if d.waze, err = citydata.GenerateWaze(rounds*feedBatch, inf.Cameras, epoch, rng); err != nil {
		return nil, err
	}
	if d.calls, err = citydata.Generate911(rounds*feedBatch, epoch, rng); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *feedsDriver) infra() *core.Infrastructure { return d.inf }

func (d *feedsDriver) describe() string {
	rounds := len(d.tweets) / feedBatch
	return fmt.Sprintf("%d rounds of IngestTweets(%d) + IngestWaze(%d) + Ingest911(%d) + MonitorTick = %d records",
		rounds, feedBatch, feedBatch, feedBatch, 3*len(d.tweets))
}

func (m *meter) ingestTweets(inf *core.Infrastructure, tweets []citydata.Tweet) {
	t0 := m.begin(spIngestTweets)
	st, err := inf.IngestTweets(tweets)
	m.ingested(spIngestTweets, t0, len(tweets), st, err)
}

func (d *feedsDriver) drive(m *meter) {
	for lo := 0; lo < len(d.tweets); lo += feedBatch {
		hi := lo + feedBatch
		start := m.begin(spRound)
		m.ingestTweets(d.inf, d.tweets[lo:hi])

		t0 := m.begin(spIngestWaze)
		st, err := d.inf.IngestWaze(d.waze[lo:hi])
		m.ingested(spIngestWaze, t0, feedBatch, st, err)

		t0 = m.begin(spIngest911)
		st, err = d.inf.Ingest911(d.calls[lo:hi])
		m.ingested(spIngest911, t0, feedBatch, st, err)

		m.samples = append(m.samples, m.end(start))
		m.items += 3 * feedBatch
		m.tick(d.inf)
	}
}

func (d *feedsDriver) check(m *meter) []string {
	var bad mismatches
	bad.expect("Collected", m.stats.Collected, 3*len(d.tweets))
	bad.expect("Stored", m.stats.Stored, 3*len(d.tweets))
	for _, topic := range []string{"tweets", "waze", "calls911"} {
		bad.expect(topic+" documents", d.inf.DocDB.Collection(topic).Count(), len(d.tweets))
		lag, err := d.inf.Broker.Lag("storage-tier", topic)
		bad.noError("lag", err)
		bad.expect("storage-tier lag on "+topic, int(lag), 0)
	}
	return bad
}

// ---- dashboard-mix ----

const (
	sliceFrames  = 11 // frames written before each refresh
	writeEvery   = 10 // refreshes between feed writes
	writeTweets  = 20
	writeCrimes  = 5
	crimeBatch   = 50 // preload batch size
	getsPerRefr  = 10
	nearRadiusKm = 2
	districts    = 12
)

// refreshPlan is what one refresh reads, drawn from the seed in set-up so
// the timed loop formats and draws nothing.
type refreshPlan struct {
	camerasNear, tweetsNear *http.Request
	incident                int // index of the incident tweetsNear centres on
	district                int
	rows                    [getsPerRefr]int32 // indexes into frames of rows to Get
}

type dashboardDriver struct {
	inf       *core.Infrastructure
	srv       *web.Server
	frames    []core.FrameEvent
	rowKeys   []string // video_annotations row key of frames[i]
	tweets    []citydata.Tweet
	incidents []citydata.Incident
	plans     []refreshPlan
	fixed     []request // what every refresh asks alike
	byDistr   [districts + 1]*http.Request

	// Running state: how much of each input has been written, and the
	// harness's own tally of incidents per district.
	nFrames, nTweets, nIncidents int
	perDistrict                  [districts + 1]int
	nBatches                     int

	// Per refresh, for the tweets-near reference computed after the run.
	gotNear  []int32
	seenNear []int32 // tweets written when the refresh ran
}

type request struct {
	name spanName
	req  *http.Request
}

func get(path string, query url.Values) (*http.Request, error) {
	if len(query) > 0 {
		path += "?" + query.Encode()
	}
	return http.NewRequest(http.MethodGet, path, nil)
}

func latLon(p geo.Point, radiusKm float64) url.Values {
	return url.Values{
		"lat":      {strconv.FormatFloat(p.Lat, 'f', -1, 64)},
		"lon":      {strconv.FormatFloat(p.Lon, 'f', -1, 64)},
		"radiusKm": {strconv.FormatFloat(radiusKm, 'f', -1, 64)},
	}
}

func setupDashboard(seed int64, refreshes int) (driver, error) {
	inf, err := boot(seed)
	if err != nil {
		return nil, err
	}
	d := &dashboardDriver{inf: inf, srv: web.NewServer(inf)}
	rng := inputRand(seed)
	epoch := inf.Config().Epoch
	nCams := len(inf.Cameras)

	// Preload scales with the run so that the smoke test stays small: 5 000
	// tweets, 1 500 incidents and 20 sweeps for 1 000 refreshes. Four sweeps
	// is the floor: the rate() queries need a full 15 s window.
	writes := refreshes / writeEvery
	preTweets, preIncidents, preSweeps := 5*refreshes, 3*refreshes/2, refreshes/50
	if preSweeps < 4 {
		preSweeps = 4
	}
	ccfg := citydata.DefaultCrimeConfig(epoch)
	ccfg.Count = preIncidents + writes*writeCrimes
	if d.incidents, err = citydata.GenerateCrimes(ccfg, inf.Gang.Nodes(), rng); err != nil {
		return nil, err
	}
	tcfg := citydata.DefaultTweetConfig(epoch)
	tcfg.Count = preTweets + writes*writeTweets
	if d.tweets, err = citydata.GenerateTweets(tcfg, d.incidents, inf.Gang, rng); err != nil {
		return nil, err
	}
	timedSweeps := (refreshes*sliceFrames + nCams - 1) / nCams
	d.frames = sweeps(inf.Cameras, preSweeps+timedSweeps, rng)
	d.rowKeys = make([]string, len(d.frames))
	for i, f := range d.frames {
		d.rowKeys[i] = fmt.Sprintf("%s|%06d", f.CameraID, f.Seq)
	}

	// Requests.
	for _, f := range []struct {
		name  spanName
		path  string
		query url.Values
	}{
		{spHealth, "/api/health", nil},
		{spCameras, "/api/cameras", url.Values{"sort": {"burn"}, "limit": {"10"}}},
		{spQueryRate, "/api/query", url.Values{"expr": {"rate(cityinfra_pipeline_stored_total[15s])"}}},
		{spQuerySumBy, "/api/query", url.Values{"expr": {"sum by (camera) (rate(cityinfra_camera_frames_ingested_total[15s]))"}}},
		{spMetrics, "/metrics", nil},
	} {
		req, err := get(f.path, f.query)
		if err != nil {
			return nil, err
		}
		d.fixed = append(d.fixed, request{f.name, req})
	}
	for id := 1; id <= districts; id++ {
		if d.byDistr[id], err = get("/api/crimes/district/"+strconv.Itoa(id), nil); err != nil {
			return nil, err
		}
	}
	cities := citydata.Cities()
	d.plans = make([]refreshPlan, refreshes)
	for r := range d.plans {
		p := &d.plans[r]
		// What has been written by the time refresh r runs.
		incidentsThen := preIncidents + (r+1)/writeEvery*writeCrimes
		framesThen := preSweeps*nCams + (r+1)*sliceFrames
		p.incident = rng.Intn(incidentsThen)
		p.district = 1 + rng.Intn(districts)
		for i := range p.rows {
			p.rows[i] = int32(rng.Intn(framesThen))
		}
		city := cities[rng.Intn(len(cities))]
		if p.camerasNear, err = get("/api/cameras/near", latLon(city.Location, 25)); err != nil {
			return nil, err
		}
		if p.tweetsNear, err = get("/api/tweets/near", latLon(d.incidents[p.incident].Location, nearRadiusKm)); err != nil {
			return nil, err
		}
	}
	d.gotNear = make([]int32, 0, refreshes)
	d.seenNear = make([]int32, 0, refreshes)

	// Preload, through a meter of its own so that set-up failures surface.
	var pre meter
	pre.ingestTweets(inf, d.tweets[:preTweets])
	d.nTweets = preTweets
	for d.nIncidents < preIncidents {
		n := crimeBatch
		if d.nIncidents+n > preIncidents {
			n = preIncidents - d.nIncidents
		}
		d.writeCrimes(&pre, n)
	}
	for s := 0; s < preSweeps; s++ {
		pre.ingestFrames(inf, d.frames[d.nFrames:d.nFrames+nCams])
		d.nFrames += nCams
		pre.tick(inf)
	}
	if pre.failed() > 0 {
		return nil, fmt.Errorf("preload: %d operations failed (%s)", pre.failed(), pre.firstBad)
	}
	return d, nil
}

func (d *dashboardDriver) writeCrimes(m *meter, n int) {
	batch := d.incidents[d.nIncidents : d.nIncidents+n]
	path := fmt.Sprintf("/archive/crimes-%05d.json", d.nBatches)
	t0 := m.begin(spIngestCrimes)
	st, err := d.inf.IngestCrimes(batch, path)
	m.ingested(spIngestCrimes, t0, n, st, err)
	d.nBatches++
	d.nIncidents += n
	for _, inc := range batch {
		d.perDistrict[inc.District]++
	}
}

func (d *dashboardDriver) infra() *core.Infrastructure { return d.inf }

func (d *dashboardDriver) describe() string {
	return fmt.Sprintf("%d refreshes (8 HTTP requests + %d Gets each) over %d preloaded tweets, %d incidents and %d frames; "+
		"%d frames written before each refresh, %d tweets + %d incidents before every %dth",
		len(d.plans), getsPerRefr, d.nTweets, d.nIncidents, d.nFrames, sliceFrames, writeTweets, writeCrimes, writeEvery)
}

// serve issues one request and validates the response as any client would:
// status 200 and a body that parses. It returns the body for the callers
// that read a field out of it.
func (d *dashboardDriver) serve(m *meter, name spanName, req *http.Request) []byte {
	rr := httptest.NewRecorder()
	t0 := m.begin(name)
	d.srv.ServeHTTP(rr, req)
	m.end(t0)
	m.attempted++
	body := rr.Body.Bytes()
	switch {
	case rr.Code != http.StatusOK:
		m.fail("%s: status %d: %s", req.URL, rr.Code, bytes.TrimSpace(body))
	case name == spMetrics:
		if !bytes.Contains(body, []byte("\ncityinfra_pipeline_stored_total ")) {
			m.fail("%s: no cityinfra_pipeline_stored_total sample", req.URL)
		}
	case name == spTweetsNear || name == spCrimesDistrict:
		// countOf parses these; a body that does not parse counts -1 there.
	case !json.Valid(body):
		m.fail("%s: body is not JSON", req.URL)
	}
	return body
}

func countOf(body []byte) int {
	var v struct {
		Count int `json:"count"`
	}
	if json.Unmarshal(body, &v) != nil {
		return -1
	}
	return v.Count
}

func (d *dashboardDriver) drive(m *meter) {
	nCams := len(d.inf.Cameras)
	for r := range d.plans {
		p := &d.plans[r]

		t0 := m.begin(spWriteSlice)
		m.ingestFrames(d.inf, d.frames[d.nFrames:d.nFrames+sliceFrames])
		d.nFrames += sliceFrames
		if d.nFrames%nCams == 0 {
			m.tick(d.inf)
		}
		if (r+1)%writeEvery == 0 {
			m.ingestTweets(d.inf, d.tweets[d.nTweets:d.nTweets+writeTweets])
			d.nTweets += writeTweets
			d.writeCrimes(m, writeCrimes)
		}
		m.end(t0)

		t0 = m.begin(spRefresh)
		for _, f := range d.fixed {
			d.serve(m, f.name, f.req)
		}
		d.serve(m, spCamerasNear, p.camerasNear)
		d.gotNear = append(d.gotNear, int32(countOf(d.serve(m, spTweetsNear, p.tweetsNear))))
		d.seenNear = append(d.seenNear, int32(d.nTweets))
		if got, want := countOf(d.serve(m, spCrimesDistrict, d.byDistr[p.district])), d.perDistrict[p.district]; got != want {
			m.fail("district %d at refresh %d: %d incidents, want %d", p.district, r, got, want)
		}
		for _, row := range p.rows {
			g0 := m.begin(spGet)
			v, err := d.inf.VideoTab.Get(d.rowKeys[row], "det", "class")
			m.end(g0)
			m.attempted++
			if err != nil || string(v) != d.frames[row].Class {
				m.fail("Get %s: %q, %v; want %q", d.rowKeys[row], v, err, d.frames[row].Class)
			}
		}
		m.samples = append(m.samples, m.end(t0))
		m.items++
	}
}

func (d *dashboardDriver) check(m *meter) []string {
	bad := checkFrameStores(d.inf, d.frames[:d.nFrames])
	bad.expect("frames shed", m.shed, 0)
	// Tweets near: a brute-force distance filter over the tweets that had
	// been written when the refresh ran.
	for r, got := range d.gotNear {
		centre := d.incidents[d.plans[r].incident].Location
		want := 0
		for _, tw := range d.tweets[:d.seenNear[r]] {
			if geo.HaversineKm(centre, tw.Location) <= nearRadiusKm {
				want++
			}
		}
		if int(got) != want {
			bad = append(bad, fmt.Sprintf("tweets near incident %d at refresh %d: %d, want %d", d.plans[r].incident, r, got, want))
			break
		}
	}
	bad.expect("tweets documents", d.inf.DocDB.Collection("tweets").Count(), d.nTweets)
	return bad
}
