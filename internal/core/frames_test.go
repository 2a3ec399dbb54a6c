package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/citydata"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// checkCausalTree asserts the structural invariants the propagation layer
// promises for one trace: exactly one root, every parent resolving to an
// earlier span, dense span ids, and a breakdown that sums exactly to the
// end-to-end duration.
func checkCausalTree(t *testing.T, tv *telemetry.TraceView) {
	t.Helper()
	roots := 0
	for i, s := range tv.Spans {
		if s.ID != i {
			t.Fatalf("trace %s: span ids not dense: %+v", tv.ID, tv.Spans)
		}
		if s.Parent == -1 {
			roots++
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			t.Fatalf("trace %s: span %d has unresolvable parent %d", tv.ID, s.ID, s.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("trace %s has %d roots, want exactly 1", tv.ID, roots)
	}
	var sum float64
	for _, st := range tv.Breakdown() {
		if st.ExclusiveMs < 0 {
			t.Fatalf("trace %s: negative exclusive time %+v", tv.ID, st)
		}
		sum += st.ExclusiveMs
	}
	if math.Abs(sum-tv.DurationMs) > 1e-6*math.Max(1, tv.DurationMs) {
		t.Fatalf("trace %s: breakdown sums to %.9f ms, root is %.9f ms", tv.ID, sum, tv.DurationMs)
	}
}

// One offloaded frame must travel edge → fog → broker → server → cloud under
// a single trace id, with the HBase annotation and HDFS feature map landing
// and the whole path attributable tier by tier.
func TestFramePipelineSingleTraceAcrossTiers(t *testing.T) {
	inf := bootSmall(t)
	f := FrameEvent{
		CameraID: "cam-1", Seq: 7, Class: "truck", Confidence: 0.2,
		RawBytes: 30000, FeatureBytes: 6000,
	}
	stats, err := inf.IngestFrames([]FrameEvent{f}, "/warehouse/feat")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Collected != 1 || stats.Streamed != 1 || stats.DeadLettered != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Offloaded != 1 || stats.LocalExits != 0 {
		t.Fatalf("early-exit split = %+v", stats)
	}
	// class + confidence cells plus the offloaded feature map.
	if stats.Stored != 3 {
		t.Fatalf("stored = %d, want 3", stats.Stored)
	}
	if len(stats.TraceIDs) != 1 {
		t.Fatalf("trace ids = %v, want exactly one per frame", stats.TraceIDs)
	}

	tv, err := inf.Tracer.Trace(stats.TraceIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	checkCausalTree(t, tv)

	tiers := make(map[string]bool)
	stages := make(map[string]bool)
	for _, s := range tv.Spans {
		tiers[s.Tier] = true
		stages[s.Name] = true
	}
	for _, tier := range []string{"edge", "fog", "server", "cloud"} {
		if !tiers[tier] {
			t.Fatalf("trace missing tier %q: %+v", tier, tv.Spans)
		}
	}
	for _, stage := range []string{"capture", "early-exit-gate", "offload-produce", "inference", "archive"} {
		if !stages[stage] {
			t.Fatalf("trace missing stage %q: %+v", stage, tv.Spans)
		}
	}

	// The inference span continued the propagated context across the broker
	// hop: it parents under the root, not under a second root.
	for _, s := range tv.Spans {
		if s.Name == "inference" && s.Parent != 0 {
			t.Fatalf("inference span parented to %d, want the propagated root", s.Parent)
		}
	}

	// Cloud tier really landed: feature map on HDFS.
	if _, err := inf.HDFS.Read("/warehouse/feat/cam-1-000007.feat"); err != nil {
		t.Fatalf("feature map missing: %v", err)
	}
}

// A frames record carries only the headers the server reads: the gate's
// offload decision and the trace context. The key already names the camera
// and the body already carries the sequence number.
func TestFrameRecordCarriesOnlyServerHeaders(t *testing.T) {
	inf := bootSmall(t)
	f := FrameEvent{
		CameraID: "cam-1", Seq: 7, Class: "truck", Confidence: 0.2,
		RawBytes: 30000, FeatureBytes: 6000,
	}
	if _, err := inf.IngestFrames([]FrameEvent{f}, ""); err != nil {
		t.Fatal(err)
	}
	recs, err := inf.Broker.Poll("frame-header-audit", "frames", 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != f.CameraID {
		t.Fatalf("frames topic holds %+v, want one record keyed %s", recs, f.CameraID)
	}
	var keys []string
	for k := range recs[0].Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"offload", telemetry.HeaderSpanID, telemetry.HeaderTraceID}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("frame record headers = %v, want %v", keys, want)
	}
}

func TestFrameLocalExitSkipsFeatureArchive(t *testing.T) {
	inf := bootSmall(t)
	// The second frame's confidence equals the gate's threshold, so it exits.
	frames := []FrameEvent{
		{CameraID: "cam-2", Seq: 1, Class: "sedan", Confidence: 0.9},
		{CameraID: "cam-2", Seq: 2, Class: "sedan", Confidence: inf.Knobs.OffloadThreshold()},
	}
	stats, err := inf.IngestFrames(frames, "/warehouse/feat")
	if err != nil {
		t.Fatal(err)
	}
	if stats.LocalExits != 2 || stats.Offloaded != 0 {
		t.Fatalf("early-exit split = %+v", stats)
	}
	// Annotation cells only — no feature map for confident local exits.
	if stats.Stored != 4 {
		t.Fatalf("stored = %d, want 4", stats.Stored)
	}
	for _, path := range []string{"/warehouse/feat/cam-2-000001.feat", "/warehouse/feat/cam-2-000002.feat"} {
		if _, err := inf.HDFS.Read(path); err == nil {
			t.Fatalf("local exit archived a feature map at %s", path)
		}
	}
}

// A poisoned record that crosses the broker with propagated headers must keep
// its own trace id through quarantine: the dead-letter doc, the event log
// entry, and the trace all agree, and the poisoned record never contaminates
// the healthy frame's trace.
func TestPoisonedFrameKeepsItsOwnTrace(t *testing.T) {
	inf := bootSmall(t)
	root := inf.Tracer.Start("poison-parent", "upstream")
	hdrs := root.Context().Inject(map[string]string{"offload": "true"})
	if _, _, err := inf.Broker.ProduceH("frames", "poison", []byte("{malformed"), hdrs); err != nil {
		t.Fatal(err)
	}
	root.End()

	good := FrameEvent{CameraID: "cam-3", Seq: 2, Class: "bus", Confidence: 0.1}
	stats, err := inf.IngestFrames([]FrameEvent{good}, "")
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadLettered != 1 {
		t.Fatalf("dead-lettered = %d, want the poisoned record", stats.DeadLettered)
	}

	// The quarantine event carries the poisoned record's propagated trace id.
	found := false
	for _, ev := range inf.Events.Events(0) {
		if telemetry.ComponentRoot(ev.Component) == telemetry.CompDeadLetter && ev.TraceID == "poison-parent" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dead-letter event carried the propagated trace id: %+v", inf.Events.Events(0))
	}

	// The poisoned record's inference span joined its own trace, not the
	// healthy frame's.
	tv, err := inf.Tracer.Trace("poison-parent")
	if err != nil {
		t.Fatal(err)
	}
	sawInference := false
	for _, s := range tv.Spans {
		if s.Name == "inference" {
			sawInference = true
		}
	}
	if !sawInference {
		t.Fatalf("poisoned record's span missing from its trace: %+v", tv.Spans)
	}
	goodTv, err := inf.Tracer.Trace(stats.TraceIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	checkCausalTree(t, goodTv)
	for _, s := range goodTv.Spans {
		if s.Name == "inference" && s.Parent != 0 {
			t.Fatalf("healthy frame's inference span misparented: %+v", s)
		}
	}
}

// Under injected faults every frame's trace id must stay resolvable — retries
// and redelivery may stretch the tree but never fork it into orphans or
// duplicate span ids.
func TestFrameTracesSurviveChaos(t *testing.T) {
	inf := bootSmall(t)
	inf.EnableChaos(faults.NewInjector(faults.Config{Seed: 11, ErrorRate: 0.15, BurstLen: 2}))
	defer inf.DisableChaos()

	rng := rand.New(rand.NewSource(5))
	frames := make([]FrameEvent, 24)
	for i := range frames {
		frames[i] = FrameEvent{
			CameraID: fmt.Sprintf("cam-%02d", i%4), Seq: i,
			Class: "suv", Confidence: rng.Float64(),
		}
	}
	stats, err := inf.IngestFrames(frames, "/warehouse/chaos-feat")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.TraceIDs) != len(frames) {
		t.Fatalf("trace ids = %d, want one per frame", len(stats.TraceIDs))
	}
	seen := make(map[string]bool)
	for _, id := range stats.TraceIDs {
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
		tv, err := inf.Tracer.Trace(id)
		if err != nil {
			t.Fatalf("trace %s unresolvable under chaos: %v", id, err)
		}
		checkCausalTree(t, tv)
	}
}

// TestFrameKeysMatchFmt pins the appended row key and feature path to the
// fmt.Sprintf formats they replaced: readers — the dashboard, the benchmark's
// Gets — rebuild the key from the format.
func TestFrameKeysMatchFmt(t *testing.T) {
	for _, seq := range []int{0, 7, 10, 99999, 100000, 999999, 1000000, -1} {
		if got, want := FrameRow("dotd-007", seq), fmt.Sprintf("%s|%06d", "dotd-007", seq); got != want {
			t.Errorf("FrameRow(%d) = %q, want %q", seq, got, want)
		}
		got := featurePath("/features", "dotd-007", seq)
		if want := fmt.Sprintf("%s/%s-%06d.feat", "/features", "dotd-007", seq); got != want {
			t.Errorf("featurePath(%d) = %q, want %q", seq, got, want)
		}
	}
	// Longer than the stack buffers the helpers start from.
	long := fmt.Sprintf("camera-%0100d", 1)
	if got, want := FrameRow(long, 7), long+"|000007"; got != want {
		t.Errorf("FrameRow(long) = %q, want %q", got, want)
	}
	if got, want := featurePath(long, long, 7), long+"/"+long+"-000007.feat"; got != want {
		t.Errorf("featurePath(long) = %q, want %q", got, want)
	}
}

// SyntheticFrames is the one frame source outside the benchmark: a seed
// replays its frames, each sweep is one frame per camera, a caller that
// advances seq by the sweeps it drew names each (camera, seq) once, the
// camera streams' priorities cover the shed floor's levels 0–2, and no
// frame carries an invented size.
func TestSyntheticFramesSource(t *testing.T) {
	cams := []citydata.Camera{{ID: "dotd-000"}, {ID: "dotd-001"}, {ID: "dotd-002"}, {ID: "dotd-003"}}
	draw := func(seed int64) []FrameEvent {
		rng := rand.New(rand.NewSource(seed))
		return append(SyntheticFrames(cams, 0, 3, rng), SyntheticFrames(cams, 3, 2, rng)...)
	}
	frames := draw(7)
	if again := draw(7); !reflect.DeepEqual(frames, again) {
		t.Fatalf("seed 7 drew different frames:\n%+v\n%+v", frames, again)
	}
	if reflect.DeepEqual(frames, draw(8)) {
		t.Fatal("seeds 7 and 8 drew the same frames")
	}
	if len(frames) != 5*len(cams) {
		t.Fatalf("5 sweeps of %d cameras gave %d frames", len(cams), len(frames))
	}
	seen := map[string]bool{}
	priorities := map[int]int{}
	for k, f := range frames {
		sweep, cam := k/len(cams), cams[k%len(cams)].ID
		if f.CameraID != cam || f.Seq != sweep {
			t.Fatalf("frame %d is (%s, %d), want sweep %d's frame of %s", k, f.CameraID, f.Seq, sweep, cam)
		}
		key := FrameRow(f.CameraID, f.Seq)
		if seen[key] {
			t.Fatalf("(camera, seq) %s drawn twice", key)
		}
		seen[key] = true
		priorities[f.Priority]++
		if f.RawBytes != 0 || f.FeatureBytes != 0 {
			t.Fatalf("frame %d carries sizes %d/%d, want none", k, f.RawBytes, f.FeatureBytes)
		}
		if f.Confidence < 0 || f.Confidence >= 1 || f.Class == "" {
			t.Fatalf("frame %d: class %q, confidence %g", k, f.Class, f.Confidence)
		}
	}
	if len(priorities) != 3 || priorities[0] == 0 || priorities[1] == 0 || priorities[2] == 0 {
		t.Fatalf("priorities %v, want levels 0, 1 and 2", priorities)
	}
}
