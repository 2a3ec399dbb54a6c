package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/action"
	"repro/internal/citydata"
	"repro/internal/detect"
	"repro/internal/nlp"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/video"
)

// VehicleWatch is the §IV.A.1 application: early-exit vehicle detection and
// classification over camera frames, with annotations indexed in HBase for
// later search (e.g. AMBER-alert vehicle lookups).
type VehicleWatch struct {
	inf *Infrastructure
	det *detect.Detector
	// Threshold is the Fig. 5 classification-score gate.
	Threshold float64
}

// NewVehicleWatch wires a trained detector into the infrastructure.
func (inf *Infrastructure) NewVehicleWatch(det *detect.Detector, threshold float64) *VehicleWatch {
	return &VehicleWatch{inf: inf, det: det, Threshold: threshold}
}

// AnnotateReport summarizes one annotation run.
type AnnotateReport struct {
	Frames        int
	LocalExits    int
	ServerAssists int
	UpstreamBytes int
	Annotations   int
}

// AnnotateFrames runs the early-exit detector over a camera's frames and
// indexes every detection in the video-annotations table.
func (vw *VehicleWatch) AnnotateFrames(cameraID string, frames *tensor.Tensor) (AnnotateReport, error) {
	var rep AnnotateReport
	local, err := vw.det.DetectLocal(frames, 0.05)
	if err != nil {
		return rep, fmt.Errorf("local detect: %w", err)
	}
	rep.Frames = len(local)
	for i, lr := range local {
		dets := lr.Detections
		path := "local"
		if lr.TopScore < vw.Threshold {
			// Fig. 5: ship the pre-branch feature map for in-depth analysis.
			dets, err = vw.det.DetectServer(lr.Feature, 0.05)
			if err != nil {
				return rep, fmt.Errorf("server detect: %w", err)
			}
			path = "server"
			rep.ServerAssists++
			rep.UpstreamBytes += lr.FeatureBytes
		} else {
			rep.LocalExits++
		}
		row := frameRow(cameraID, i)
		for j, d := range dets {
			val, err := json.Marshal(map[string]any{
				"class": d.Class, "score": d.Score, "path": path,
				"cx": d.Box.CX, "cy": d.Box.CY, "w": d.Box.W, "h": d.Box.H,
			})
			if err != nil {
				return rep, fmt.Errorf("marshal detection: %w", err)
			}
			if err := vw.inf.VideoTab.Put(row, "det", strconv.Itoa(j), val); err != nil {
				return rep, fmt.Errorf("index detection: %w", err)
			}
			rep.Annotations++
		}
	}
	return rep, nil
}

// VehicleSighting is one indexed detection of a target class.
type VehicleSighting struct {
	Row   string
	Class int
	Score float64
}

// FindVehicle scans annotations for a vehicle class — the AMBER-alert
// tracking query the paper motivates. It reads the per-detection cells
// AnnotateFrames writes (numeric qualifiers); the frame path keeps raw
// "class"/"confidence" cells in the same family, which are not detections.
func (vw *VehicleWatch) FindVehicle(classID int) ([]VehicleSighting, error) {
	rows, err := vw.inf.VideoTab.Scan("", "")
	if err != nil {
		return nil, err
	}
	var out []VehicleSighting
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Family != "det" {
				continue
			}
			if _, err := strconv.Atoi(c.Qualifier); err != nil {
				continue
			}
			var d struct {
				Class int     `json:"class"`
				Score float64 `json:"score"`
			}
			if err := json.Unmarshal(c.Value, &d); err != nil {
				return nil, fmt.Errorf("decode annotation: %w", err)
			}
			if d.Class == classID {
				out = append(out, VehicleSighting{Row: r.Row, Class: d.Class, Score: d.Score})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, nil
}

// CrimeWatch is the §IV.A.2 application: entropy-gated action recognition
// over camera clips with operator alerts for suspicious activity.
type CrimeWatch struct {
	inf    *Infrastructure
	rec    *action.Recognizer
	Policy nn.ExitPolicy
}

// NewCrimeWatch wires a trained recognizer into the infrastructure.
func (inf *Infrastructure) NewCrimeWatch(rec *action.Recognizer, policy nn.ExitPolicy) *CrimeWatch {
	return &CrimeWatch{inf: inf, rec: rec, Policy: policy}
}

// Alert is the operator notification the paper describes: "our application
// will log the time, location, the type of activity, and the video feed
// during that time window into a database. An alert will be sent to a human
// operator."
type Alert struct {
	CameraID string    `json:"cameraId"`
	ClipID   int       `json:"clipId"`
	Action   string    `json:"action"`
	Time     time.Time `json:"time"`
	Exit     string    `json:"exit"` // "local" or "server"
}

// WatchReport summarizes one monitoring pass.
type WatchReport struct {
	Clips       int
	Alerts      int
	LocalExits  int
	ServerBytes int
}

// MonitorClips classifies clips from one camera, indexes the labels, and
// produces alerts for suspicious actions onto the alerts topic.
func (cw *CrimeWatch) MonitorClips(cameraID string, set *video.ClipSet, at time.Time) (WatchReport, error) {
	var rep WatchReport
	results, err := cw.rec.Net().Infer(set.Clips, cw.Policy)
	if err != nil {
		return rep, fmt.Errorf("infer: %w", err)
	}
	rep.Clips = len(results)
	for i, r := range results {
		act := video.Action(r.Class)
		exit := "server"
		if r.ExitedLocal {
			exit = "local"
			rep.LocalExits++
		} else {
			rep.ServerBytes += r.FeatureBytes
		}
		row := fmt.Sprintf("%s|clip-%05d", cameraID, i)
		if err := cw.inf.VideoTab.Put(row, "action", "label", []byte(act.String())); err != nil {
			return rep, fmt.Errorf("index action: %w", err)
		}
		if err := cw.inf.VideoTab.Put(row, "action", "exit", []byte(exit)); err != nil {
			return rep, fmt.Errorf("index exit: %w", err)
		}
		if act.Suspicious() {
			alert := Alert{CameraID: cameraID, ClipID: i, Action: act.String(), Time: at, Exit: exit}
			body, err := json.Marshal(alert)
			if err != nil {
				return rep, fmt.Errorf("marshal alert: %w", err)
			}
			if _, _, err := cw.inf.Broker.Produce("alerts", cameraID, body); err != nil {
				return rep, fmt.Errorf("produce alert: %w", err)
			}
			rep.Alerts++
		}
	}
	return rep, nil
}

// PendingAlerts drains the operator's alert queue with the replicated
// broker's poll-then-commit flow: the batch is decoded first and offsets
// advance only afterwards, so a failure here redelivers the alerts instead
// of dropping them on the operator's floor. A record that is not an alert
// is quarantined (source "alerts", stage "decode") and the drain goes on;
// only a record the quarantine cannot hold fails the batch uncommitted.
func (inf *Infrastructure) PendingAlerts(max int) ([]Alert, error) {
	recs, err := inf.Broker.Poll("operators", "alerts", max)
	if err != nil {
		return nil, err
	}
	out := make([]Alert, 0, len(recs))
	for _, r := range recs {
		var a Alert
		if err := json.Unmarshal(r.Value, &a); err != nil {
			if !inf.quarantine("alerts", "decode", r.Key, r.Value, err, headerTraceID(r.Headers, "")) {
				return nil, fmt.Errorf("decode alert: %w", err)
			}
			continue
		}
		out = append(out, a)
	}
	if err := inf.Broker.CommitPolled("operators", "alerts"); err != nil {
		return nil, err
	}
	return out, nil
}

// NarrowFunnel records each stage of the §IV.B persons-of-interest
// narrowing: "by combining the expansive field of second-degree associates
// with geo-targeted tweets during the time frame of a violent incident, the
// field of associates may be strategically narrowed."
type NarrowFunnel struct {
	Suspects          []string
	FirstDegree       int
	SecondDegree      int
	FieldSize         int // 1st + 2nd degree candidates
	GeoTimeTweets     int // tweets in the space-time window
	PersonsOfInterest []string
	ReductionFactor   float64 // field size / narrowed size
}

// NarrowConfig tunes the narrowing query.
type NarrowConfig struct {
	RadiusKm   float64
	Window     time.Duration
	Keywords   []string
	MaxPersons int
}

// DefaultNarrowConfig matches the paper's description: the time frame of a
// violent incident and its neighborhood.
func DefaultNarrowConfig() NarrowConfig {
	return NarrowConfig{
		RadiusKm: 3,
		Window:   3 * time.Hour,
		Keywords: []string{"gunshots", "shots", "police", "robbed", "fight"},
	}
}

// NarrowPersonsOfInterest runs the full §IV.B pipeline for one incident:
// identify member suspects, expand to first- and second-degree associates,
// intersect with geo/time-filtered tweets, and keep associates whose tweets
// match the violence keyword model.
func (inf *Infrastructure) NarrowPersonsOfInterest(inc citydata.Incident, cfg NarrowConfig) (*NarrowFunnel, error) {
	funnel := &NarrowFunnel{}
	for _, p := range inc.Persons {
		if p.Role != "suspect" {
			continue
		}
		if _, err := inf.Gang.Degree(p.ID); err == nil {
			funnel.Suspects = append(funnel.Suspects, p.ID)
		}
	}
	field := make(map[string]struct{})
	for _, s := range funnel.Suspects {
		hops, err := inf.Gang.KDegreeAssociates(s, 2)
		if err != nil {
			return nil, fmt.Errorf("expand %s: %w", s, err)
		}
		funnel.FirstDegree += len(hops[0])
		funnel.SecondDegree += len(hops[1])
		for _, id := range hops[0] {
			field[id] = struct{}{}
		}
		for _, id := range hops[1] {
			field[id] = struct{}{}
		}
	}
	funnel.FieldSize = len(field)

	docs, err := inf.TweetsNear(inc.Location, cfg.RadiusKm, inc.Time.Add(-cfg.Window), inc.Time.Add(cfg.Window))
	if err != nil {
		return nil, fmt.Errorf("geo-time tweets: %w", err)
	}
	funnel.GeoTimeTweets = len(docs)

	matcher := nlp.NewKeywordMatcher(cfg.Keywords)
	seen := make(map[string]struct{})
	for _, d := range docs {
		author, _ := d["author"].(string)
		text, _ := d["text"].(string)
		if author == "" {
			continue
		}
		if _, inField := field[author]; !inField {
			continue
		}
		if !matcher.Matches(text) {
			continue
		}
		if _, dup := seen[author]; !dup {
			seen[author] = struct{}{}
			funnel.PersonsOfInterest = append(funnel.PersonsOfInterest, author)
		}
	}
	sort.Strings(funnel.PersonsOfInterest)
	if cfg.MaxPersons > 0 && len(funnel.PersonsOfInterest) > cfg.MaxPersons {
		funnel.PersonsOfInterest = funnel.PersonsOfInterest[:cfg.MaxPersons]
	}
	if n := len(funnel.PersonsOfInterest); n > 0 {
		funnel.ReductionFactor = float64(funnel.FieldSize) / float64(n)
	}
	return funnel, nil
}
