package core

import (
	"fmt"
	"strconv"

	"repro/internal/control"
	"repro/internal/nn"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// FrameEvent is one camera frame arriving at an edge device, annotated with
// the local (exit-1) model's output so the fog tier can gate offloading on
// confidence — the Figs. 5/7 early-exit architecture.
type FrameEvent struct {
	CameraID     string  `json:"cameraId"`
	Seq          int     `json:"seq"`
	Class        string  `json:"class"`        // local model's classification
	Confidence   float64 `json:"confidence"`   // local model's confidence in [0,1]
	RawBytes     int     `json:"rawBytes"`     // raw frame size
	FeatureBytes int     `json:"featureBytes"` // intermediate feature-map size
	// Priority orders streams for load shedding: when the controller raises
	// the shed level, frames with Priority below it are dropped at admission
	// (lowest priority first). Zero is the lowest priority.
	Priority int `json:"priority"`
}

// FrameStats is the frame pipeline's accounting: the usual Fig. 4 counters
// plus the early-exit split, the shedding count, and the per-frame trace
// ids, so callers can walk each frame's causal tree across all four tiers.
type FrameStats struct {
	PipelineStats
	Offloaded  int // frames below threshold whose feature maps went upstream
	LocalExits int // frames the fog tier classified confidently
	// Shed counts frames dropped at admission by the controller's shedding
	// floor. Shed frames never enter the pipeline: no trace, no Collected,
	// no SLO burn — shedding is an explicit, accounted-for policy decision,
	// not a delivery failure.
	Shed     int
	TraceIDs []string
}

// inferenceGroup is the broker consumer group used by the analysis servers.
const inferenceGroup = "inference-tier"

// IngestFrames runs camera frames through the full four-tier path: edge
// capture → fog early-exit gate → broker hop → server-side inference → cloud
// archive (HBase annotation + HDFS feature map). One trace id per frame spans
// every hop — the gate injects the root context into the record headers, and
// the server side continues that trace from the polled record — so the whole
// offload boundary collapses into a single causal tree.
//
// The gate's confidence threshold, the inference tier, and the shedding
// floor are read from the live controller-owned knobs (inf.Knobs), so the
// adaptive controller — or a test — can retune the pipeline between (or
// during) calls without any call-site plumbing.
func (inf *Infrastructure) IngestFrames(frames []FrameEvent, archiveDir string) (FrameStats, error) {
	var out FrameStats
	for _, f := range frames {
		if shedFloor := inf.Knobs.ShedLevel(); shedFloor > 0 && f.Priority < shedFloor {
			out.Shed++
			inf.Fleet.camera(f.CameraID).shed.Inc()
			continue
		}
		ps, traceID, offloaded, err := inf.ingestFrame(f, archiveDir)
		out.Collected += ps.Collected
		out.Streamed += ps.Streamed
		out.Stored += ps.Stored
		out.Dropped += ps.Dropped
		out.DeadLettered += ps.DeadLettered
		out.Retries += ps.Retries
		out.TraceIDs = append(out.TraceIDs, traceID)
		if offloaded {
			out.Offloaded++
		} else {
			out.LocalExits++
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ingestFrame pushes one frame through all four tiers under a single trace.
func (inf *Infrastructure) ingestFrame(f FrameEvent, archiveDir string) (stats PipelineStats, traceID string, offload bool, err error) {
	exit := nn.ExitPolicy{Threshold: inf.Knobs.OffloadThreshold()}
	tier := inf.Knobs.InferenceTier()
	stats = PipelineStats{Collected: 1}
	run := inf.beginIngest("ingest-frame")
	traceID = run.ctx.TraceID
	cam := inf.Fleet.camera(f.CameraID)
	cam.ingested.Inc()
	defer func() { cam.e2e.Observe(run.end(&stats)) }()

	// Edge tier: frame capture plus the tiny exit-1 model.
	capture := openStage(run.root, "capture", "edge", inf.profCollect)
	body, merr := encodeFrame(&f)
	capture.End()
	if merr != nil {
		return stats, traceID, false, fmt.Errorf("marshal frame: %w", merr)
	}

	// Fog tier: the early-exit gate decides whether the frame's feature map
	// must continue upstream, and stamps the decision — and the root trace
	// context — onto the record headers that will cross the broker.
	gate := openStage(run.root, "early-exit-gate", "fog", inf.profGate)
	offload = !exit.Exits(f.Confidence)
	if offload {
		cam.offloaded.Inc()
	}
	headers := run.ctx.Inject(map[string]string{
		"offload": strconv.FormatBool(offload),
	})
	gate.End()

	// Fog-local inference: when the controller has migrated inference off
	// the analysis tier (broker uplink stressed, servers hot), the fog node
	// runs the remaining layers itself and writes the annotation straight
	// through — no broker hop, no feature-map archive, the same trade
	// EdgeLens makes when relocating the detection service down-tier.
	if tier == control.TierFog {
		fog := openStage(run.root, "fog-inference", "fog", inf.profInference)
		inf.archiveFrame(fog.span, f, body, false, "", traceID, &stats)
		fog.End()
		return stats, traceID, offload, nil
	}

	produce := openStage(run.root, "offload-produce", "fog", inf.profStream)
	if perr := inf.produceWithRetry(&stats, "frames", f.CameraID, body, headers); perr != nil {
		inf.frameLost(cam, &stats, "produce", f.CameraID, body, perr, traceID)
	}
	produce.End()

	// Server tier: drain the inference topic. Each record carries its own
	// propagated context, so records from this frame, stragglers from earlier
	// frames, and poisoned chaos records each land in their own trace. A
	// failed poll consumed nothing (the fault seam injects before the read),
	// so it redrives like the archive writes do.
	pinf := inf.profInference.Start()
	defer pinf.End()
	for {
		var recs []stream.Record
		perr := inf.redriven(&stats, func() (e error) {
			recs, e = inf.Bus.Poll(inferenceGroup, "frames", 4)
			return e
		})
		if perr != nil {
			// Exhausted redrives mean the broker is partitioned, not that
			// records were lost: nothing was committed, so the at-least-once
			// drain picks the backlog up on a later frame's loop. Defer
			// instead of failing the whole batch — the controller reacts to
			// the produce-error metrics this partition also generates.
			inf.Events.Log(telemetry.LevelWarn, telemetry.CompFrames, traceID,
				"inference drain deferred: %v", perr)
			break
		}
		if len(recs) == 0 {
			break
		}
		stats.Streamed += len(recs)
		for _, rec := range recs {
			inf.serveFrame(rec, run.root, archiveDir, &stats)
		}
		// Every record in the batch was served (or quarantined); advance the
		// inference group's offsets so only a crash mid-batch can redeliver.
		if cerr := inf.Bus.CommitPolled(inferenceGroup, "frames"); cerr != nil {
			return stats, traceID, offload, fmt.Errorf("commit frames: %w", cerr)
		}
	}
	return stats, traceID, offload, nil
}

// encodeFrame is the frame's broker message, appended into one buffer
// sized by frameSize.
func encodeFrame(f *FrameEvent) ([]byte, error) {
	return appendFrame(make([]byte, 0, frameSize(f)), f)
}

// frameSize bounds appendFrame's output from above when neither string
// needs an escape, as no generated camera id or class does: the layout's
// fixed bytes, both strings, each int's digits and the longest float
// json.Marshal writes. A string that needs escapes grows the buffer.
func frameSize(f *FrameEvent) int {
	const layout = len(`{"cameraId":"","seq":,"class":"","confidence":,"rawBytes":,"featureBytes":,"priority":}`)
	const longestFloat = len("-0.0000012345678901234567")
	return layout + len(f.CameraID) + len(f.Class) + longestFloat +
		intLen(f.Seq) + intLen(f.RawBytes) + intLen(f.FeatureBytes) + intLen(f.Priority)
}

// intLen is the number of bytes strconv writes for n.
func intLen(n int) int {
	l := 1
	if n < 0 {
		l++
	}
	for ; n >= 10 || n <= -10; n /= 10 {
		l++
	}
	return l
}

// frameLost quarantines one frame-path record and charges the loss to its
// camera in the fleet accounting.
func (inf *Infrastructure) frameLost(cam *camHandles, stats *PipelineStats, stage, key string, body []byte, cause error, traceID string) {
	inf.deadLetter(stats, "frames", stage, key, body, cause, traceID)
	cam.undelivered.Inc()
}

// serveFrame is the analysis-server side of the offload boundary: it
// continues the trace propagated in the record headers (falling back to the
// polling frame's own trace), runs the remaining model layers for offloaded
// frames, and archives the result into the cloud tier (HBase annotation row,
// HDFS feature map).
func (inf *Infrastructure) serveFrame(rec stream.Record, fallback *telemetry.Span, archiveDir string, stats *PipelineStats) {
	spInfer := inf.remoteTierSpan(rec.Headers, fallback, "inference", "server")
	defer spInfer.End()
	traceID := spInfer.Context().TraceID

	var f FrameEvent
	if err := decodeFrame(rec.Value, &f); err != nil {
		// The record key is the producing camera's id, so even a poisoned
		// payload stays attributed in the fleet accounting.
		inf.frameLost(inf.Fleet.camera(rec.Key), stats, "decode", rec.Key, rec.Value, err, traceID)
		return
	}
	offloaded := rec.Headers["offload"] == "true"
	inf.archiveFrame(spInfer, f, rec.Value, offloaded, archiveDir, traceID, stats)
}

// frameRow is a frame's video_annotations row key, "<camera>|<seq %06d>".
// Like featurePath it is built once per frame, so by appending, not by fmt.
func frameRow(camera string, seq int) string {
	var buf [64]byte
	b := append(append(buf[:0], camera...), '|')
	return string(appendSeq(b, seq))
}

// featurePath is where an offloaded frame's feature map is archived:
// "<dir>/<camera>-<seq %06d>.feat".
func featurePath(dir, camera string, seq int) string {
	var buf [96]byte
	b := append(append(buf[:0], dir...), '/')
	b = append(append(b, camera...), '-')
	return string(append(appendSeq(b, seq), ".feat"...))
}

// appendSeq appends seq as fmt's %06d prints it.
func appendSeq(b []byte, seq int) []byte {
	if seq < 0 {
		return fmt.Appendf(b, "%06d", seq)
	}
	for pad := 100000; pad > seq && pad > 1; pad /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(seq), 10)
}

// archiveFrame is the cloud-tier archive shared by both inference homes:
// the annotation row for random access and — for offloaded frames with an
// archive directory — the feature map for the batch/training path. parent
// anchors the archive span ("inference" on the server path, "fog-inference"
// on the fog-local path).
func (inf *Infrastructure) archiveFrame(parent *telemetry.Span, f FrameEvent, value []byte, offloaded bool, archiveDir, traceID string, stats *PipelineStats) {
	archive := openStage(parent, "archive", "cloud", nil)
	defer archive.End()
	cam := inf.Fleet.camera(f.CameraID)
	row := frameRow(f.CameraID, f.Seq)
	put := func(qualifier string, val []byte) bool {
		if err := inf.putCell(stats, inf.VideoTab, row, "det", qualifier, val); err != nil {
			inf.frameLost(cam, stats, "hbase", row, value, err, traceID)
			return false
		}
		stats.Stored++
		return true
	}
	if !put("class", []byte(f.Class)) || !put("confidence", []byte(strconv.FormatFloat(f.Confidence, 'f', 4, 64))) {
		return
	}
	if offloaded && archiveDir != "" {
		path := featurePath(archiveDir, f.CameraID, f.Seq)
		if err := inf.retried(stats, func() error { return inf.HDFS.Write(path, value) }); err != nil {
			inf.frameLost(cam, stats, "hdfs", path, value, err, traceID)
			return
		}
		stats.Stored++
	}
	cam.delivered.Inc()
}
