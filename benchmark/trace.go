package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stream"
)

// spanName indexes spanNames. Spans carry the index, not the string, so the
// span slice holds no pointers and the garbage collector never scans it.
type spanName uint8

const (
	spIngestFrames spanName = iota
	spIngestTweets
	spIngestWaze
	spIngest911
	spIngestCrimes
	spMonitorTick
	spRound
	spWriteSlice
	spRefresh
	spHealth
	spCameras
	spCamerasNear
	spQueryRate
	spQuerySumBy
	spMetrics
	spTweetsNear
	spCrimesDistrict
	spGet
	spProduce
	spPoll
	spCommit
	numSpanNames
)

// isIngest tells the Ingest* calls, which the constants list first.
func (n spanName) isIngest() bool { return n <= spIngestCrimes }

var spanNames = [numSpanNames]string{
	spIngestFrames:   "core.ingest_frames",
	spIngestTweets:   "core.ingest_tweets",
	spIngestWaze:     "core.ingest_waze",
	spIngest911:      "core.ingest_911",
	spIngestCrimes:   "core.ingest_crimes",
	spMonitorTick:    "core.monitor_tick",
	spRound:          "harness.round",
	spWriteSlice:     "harness.write_slice",
	spRefresh:        "harness.refresh",
	spHealth:         "web.health",
	spCameras:        "web.cameras",
	spCamerasNear:    "web.cameras_near",
	spQueryRate:      "web.query_rate",
	spQuerySumBy:     "web.query_sumby",
	spMetrics:        "web.metrics",
	spTweetsNear:     "web.tweets_near",
	spCrimesDistrict: "web.crimes_district",
	spGet:            "hbase.get",
	spProduce:        "stream.produce",
	spPoll:           "stream.poll",
	spCommit:         "stream.commit",
}

// span is one timed call made by the harness. Ids are 1-based positions in
// recorder.spans; parent 0 marks a root, and every span of one root shares
// the root's id as its trace.
type span struct {
	trace, parent int32
	name          spanName
	start, end    int64 // ns since recorder.base
}

// busOp is one successful bus call, kept in call order so the stream layer
// can be replayed alone on a fresh cluster.
type busOp struct {
	kind       spanName
	trace      int32  // the harness call that caused it
	topic, key string // key is the consumer group for polls and commits
	value      []byte
	headers    map[string]string
	max        int
}

// recorder keeps spans in memory for one traced run. A nil *recorder is the
// untraced run: open and close are no-ops. One goroutine drives the whole
// benchmark, so there is no lock and the open spans form a stack.
type recorder struct {
	base   time.Time
	spans  []span
	stack  []int32
	ops    []busOp
	polled int // records returned by successful polls
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, 1<<19), ops: make([]busOp, 0, 1<<16)}
}

func (r *recorder) open(name spanName, now time.Time) {
	if r == nil {
		return
	}
	id := int32(len(r.spans) + 1)
	s := span{trace: id, name: name, start: int64(now.Sub(r.base))}
	if n := len(r.stack); n > 0 {
		s.parent = r.stack[n-1]
		s.trace = r.spans[s.parent-1].trace
	}
	r.spans = append(r.spans, s)
	r.stack = append(r.stack, id)
}

func (r *recorder) close(now time.Time) {
	if r == nil {
		return
	}
	id := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id-1].end = int64(now.Sub(r.base))
}

// log books one successful bus call, which must be the span just closed.
func (r *recorder) log(op busOp) {
	op.trace = r.spans[len(r.spans)-1].trace
	r.ops = append(r.ops, op)
}

// selfTimes returns each span's duration minus the time its children cover.
// The harness is sequential, so siblings never overlap and the subtraction
// is exact.
func (r *recorder) selfTimes() []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent != 0 {
			self[s.parent-1] -= d
		}
	}
	return self
}

// write dumps the spans as JSON lines: trace, id, parent, name, start_ns,
// end_ns.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, s := range r.spans {
		fmt.Fprintf(w, `{"trace":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.trace, i+1, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBus wraps the exported Infrastructure.Bus so that every produce,
// poll and commit the pipelines make becomes a child span of whichever
// harness call is open, and is logged for the stream replay.
type tracedBus struct {
	next stream.Bus
	rec  *recorder
}

var _ stream.Bus = (*tracedBus)(nil)

func (b *tracedBus) Produce(topic, key string, value []byte) (int, int64, error) {
	return b.ProduceH(topic, key, value, nil)
}

func (b *tracedBus) ProduceH(topic, key string, value []byte, headers map[string]string) (int, int64, error) {
	b.rec.open(spProduce, time.Now())
	p, off, err := b.next.ProduceH(topic, key, value, headers)
	b.rec.close(time.Now())
	if err == nil {
		b.rec.log(busOp{kind: spProduce, topic: topic, key: key, value: value, headers: headers})
	}
	return p, off, err
}

func (b *tracedBus) Poll(group, topic string, max int) ([]stream.Record, error) {
	b.rec.open(spPoll, time.Now())
	recs, err := b.next.Poll(group, topic, max)
	b.rec.close(time.Now())
	if err == nil {
		b.rec.log(busOp{kind: spPoll, topic: topic, key: group, max: max})
		b.rec.polled += len(recs)
	}
	return recs, err
}

func (b *tracedBus) CommitPolled(group, topic string) error {
	b.rec.open(spCommit, time.Now())
	err := b.next.CommitPolled(group, topic)
	b.rec.close(time.Now())
	if err == nil {
		b.rec.log(busOp{kind: spCommit, topic: topic, key: group})
	}
	return err
}
