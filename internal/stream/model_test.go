package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// oracle is the broker this package shipped before the one-log layout: each
// replica holds its own []Record copy, and catch-up appends the leader's
// suffix to it. It is kept as the reference the Cluster must reproduce.
// One topic, "events".
type oracle struct {
	cfg    ClusterConfig
	up     []bool
	parts  []*oraclePart
	groups map[string]*oracleGroup
	rr     uint64
	stats  ClusterStats
	hook   func(op string, node int) error
	now    func() time.Time
	acked  [][]string // per partition, the values acknowledged there
}

type oraclePart struct {
	replicas, isr []int
	leader        int
	epoch         int64
	lostAtTick    int
	logs          [][]*Record // by node id
}

type oracleGroup struct {
	committed, polled []int64
}

func newOracle(cfg ClusterConfig, partitions int, hook func(string, int) error) *oracle {
	o := &oracle{cfg: cfg, up: make([]bool, cfg.Nodes), groups: make(map[string]*oracleGroup),
		hook: hook, now: stepClock(), acked: make([][]string, partitions)}
	for i := range o.up {
		o.up[i] = true
	}
	for p := 0; p < partitions; p++ {
		part := &oraclePart{epoch: 1, logs: make([][]*Record, cfg.Nodes)}
		for j := 0; j < cfg.Replication; j++ {
			part.replicas = append(part.replicas, (p+j)%cfg.Nodes)
		}
		part.isr = append([]int(nil), part.replicas...)
		sort.Ints(part.isr)
		part.leader = part.replicas[0]
		o.parts = append(o.parts, part)
	}
	return o
}

// stepClock is a record clock that moves one second per reading, so two
// brokers that take their readings in the same order stamp the same times.
func stepClock() func() time.Time {
	t := time.Unix(1_500_000_000, 0)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func (o *oracle) led(part *oraclePart) bool { return part.leader != -1 && o.up[part.leader] }

func (o *oracle) produce(key string, value []byte, headers map[string]string) (int, int64, error) {
	p := partitionFor(key, len(o.parts))
	if key == "" {
		p = int(o.rr % uint64(len(o.parts)))
		o.rr++
	}
	off, err := o.append(p, key, value, headers)
	return p, off, err
}

func (o *oracle) produceWithEpoch(p int, epoch int64, key string, value []byte) (int64, error) {
	if o.parts[p].epoch != epoch {
		o.stats.StaleProduces++
		return 0, ErrStaleEpoch
	}
	return o.append(p, key, value, nil)
}

func (o *oracle) append(p int, key string, value []byte, headers map[string]string) (int64, error) {
	part := o.parts[p]
	if !o.led(part) {
		o.stats.UnavailableErrors++
		return 0, ErrNoLeader
	}
	var survivors, dropped []int
	for _, n := range part.isr {
		if n != part.leader && (!o.up[n] || o.hook("replicate", n) != nil) {
			dropped = append(dropped, n)
		} else {
			survivors = append(survivors, n)
		}
	}
	off := int64(len(part.logs[part.leader]))
	rec := &Record{Partition: p, Offset: off, Key: key, Value: append(make([]byte, 0, len(value)), value...), Time: o.now()}
	if len(headers) > 0 {
		rec.Headers = make(map[string]string)
		for k, v := range headers {
			rec.Headers[k] = v
		}
	}
	for _, n := range survivors {
		part.logs[n] = append(part.logs[n], rec)
	}
	if len(dropped) > 0 {
		part.isr = survivors
		o.stats.ISRShrinks += len(dropped)
	}
	o.acked[p] = append(o.acked[p], string(value))
	return off, nil
}

func (o *oracle) group(name string) *oracleGroup {
	g, ok := o.groups[name]
	if !ok {
		g = &oracleGroup{committed: make([]int64, len(o.parts)), polled: make([]int64, len(o.parts))}
		o.groups[name] = g
	}
	return g
}

func (o *oracle) poll(group string, max int) []Record {
	g := o.group(group)
	copy(g.polled, g.committed)
	var out []Record
	for p, part := range o.parts {
		if len(out) >= max || !o.led(part) {
			continue
		}
		log := part.logs[part.leader]
		for off := g.committed[p]; off < int64(len(log)) && len(out) < max; off++ {
			out = append(out, *log[off])
			g.polled[p] = off + 1
		}
	}
	return out
}

func (o *oracle) commit(group string) {
	g := o.group(group)
	for p := range g.committed {
		g.committed[p] = max(g.committed[p], g.polled[p])
	}
}

func (o *oracle) crash(id int) error {
	if !o.up[id] {
		return ErrNodeDown
	}
	o.up[id] = false
	o.stats.Crashes++
	for _, part := range o.parts {
		if part.leader == id {
			part.leader, part.lostAtTick = -1, o.stats.Ticks
		}
	}
	return nil
}

func (o *oracle) restart(id int) error {
	if o.up[id] {
		return ErrNodeUp
	}
	o.up[id] = true
	o.stats.Restarts++
	return nil
}

func (o *oracle) tick() {
	o.stats.Ticks++
	for _, part := range o.parts {
		o.elect(part)
		o.catchUp(part)
	}
}

func (o *oracle) elect(part *oraclePart) {
	if o.led(part) {
		return
	}
	newLeader := -1
	for _, n := range part.replicas {
		if o.up[n] && contains(part.isr, n) {
			newLeader = n
			break
		}
	}
	if newLeader == -1 {
		return
	}
	part.leader = newLeader
	part.epoch++
	o.stats.Elections++
	o.stats.LastFailoverTicks = o.stats.Ticks - part.lostAtTick
	o.stats.MaxFailoverTicks = max(o.stats.MaxFailoverTicks, o.stats.LastFailoverTicks)
}

func (o *oracle) catchUp(part *oraclePart) {
	if !o.led(part) {
		return
	}
	lead := part.logs[part.leader]
	for _, n := range part.replicas {
		if n == part.leader || !o.up[n] {
			continue
		}
		if len(part.logs[n]) < len(lead) {
			if o.hook("catchup", n) != nil {
				continue
			}
			o.stats.CatchUpRecords += len(lead) - len(part.logs[n])
			part.logs[n] = append(part.logs[n], lead[len(part.logs[n]):]...)
		}
		if len(part.logs[n]) == len(lead) && !contains(part.isr, n) {
			part.isr = append(part.isr, n)
			sort.Ints(part.isr)
			o.stats.ISRExpands++
		}
	}
}

func (o *oracle) hw(part *oraclePart) int64 {
	if o.led(part) {
		return int64(len(part.logs[part.leader]))
	}
	var hw int64
	for _, n := range part.replicas {
		if o.up[n] {
			hw = max(hw, int64(len(part.logs[n])))
		}
	}
	return hw
}

func (o *oracle) partitions() []PartitionState {
	var out []PartitionState
	for p, part := range o.parts {
		ps := PartitionState{Topic: "events", Partition: p, Leader: part.leader, Epoch: part.epoch,
			Replicas: append([]int(nil), part.replicas...), ISR: append([]int(nil), part.isr...),
			HighWatermark: o.hw(part)}
		for _, n := range part.replicas {
			ps.ReplicaEnds = append(ps.ReplicaEnds, int64(len(part.logs[n])))
		}
		out = append(out, ps)
	}
	return out
}

func (o *oracle) lag(group string) int64 {
	g := o.group(group)
	var lag int64
	for p, part := range o.parts {
		lag += max(0, o.hw(part)-g.committed[p])
	}
	return lag
}

// choices feeds a history its decisions: from a seeded rng for a fixed
// number of steps, or from fuzz input until the bytes run out.
type choices struct {
	rng   *rand.Rand
	steps int
	data  []byte
}

func (s *choices) more() bool {
	if s.rng != nil {
		s.steps--
		return s.steps >= 0
	}
	return len(s.data) > 0
}

func (s *choices) pick(n int) int {
	if s.rng != nil {
		return s.rng.Intn(n)
	}
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b) % n
}

// historyConfigs are the broker shapes a history runs on.
var historyConfigs = []ClusterConfig{
	{Nodes: 3, Replication: 3},
	{Nodes: 3, Replication: 2},
	{Nodes: 2, Replication: 2},
}

var errWindow = errors.New("model: fault window")

// runHistory drives a Cluster and the oracle through the same history and
// checks after every step that they agree and that the invariants hold. It
// returns the Cluster's final stats.
func runHistory(t *testing.T, cfg ClusterConfig, src *choices) ClusterStats {
	const partitions = 3
	// A fault window fails one op on one node until it is closed.
	var open [2][3]bool
	hook := func(op string, node int) error {
		w := open[0]
		if op == "catchup" {
			w = open[1]
		}
		if w[node] {
			return errWindow
		}
		return nil
	}
	cfg.Now = stepClock()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("events", partitions); err != nil {
		t.Fatal(err)
	}
	c.SetFaultHook(hook)
	o := newOracle(cfg, partitions, hook)
	groups := []string{"g0", "g1"}
	acked := make(map[string]bool)
	epochs := make([]int64, partitions)

	sameErr := func(step int, what string, got, want error) {
		t.Helper()
		if (want == nil) != (got == nil) || (want != nil && !errors.Is(got, want)) {
			t.Fatalf("step %d: %s: err = %v, oracle %v", step, what, got, want)
		}
	}
	for step := 0; src.more(); step++ {
		val := fmt.Sprintf("v%d", step)
		switch op := src.pick(16); op {
		case 0, 1, 2, 3, 4:
			key := ""
			var headers map[string]string
			switch {
			case op <= 2:
				key = fmt.Sprintf("k%d", src.pick(5))
			case op == 3:
				key, headers = fmt.Sprintf("k%d", src.pick(5)), map[string]string{"x-trace-id": val}
			}
			p, off, err := c.ProduceH("events", key, []byte(val), headers)
			wp, woff, werr := o.produce(key, []byte(val), headers)
			sameErr(step, "produce", err, werr)
			if err == nil && (p != wp || off != woff) {
				t.Fatalf("step %d: produce at %d/%d, oracle %d/%d", step, p, off, wp, woff)
			}
			if err == nil {
				acked[val] = true
			}
		case 5, 6:
			p := src.pick(partitions)
			_, epoch, _ := c.LeaderEpoch("events", p)
			if op == 6 {
				epoch -= int64(1 + src.pick(2))
			}
			off, err := c.ProduceWithEpoch("events", p, epoch, "", []byte(val), nil)
			woff, werr := o.produceWithEpoch(p, epoch, "", []byte(val))
			sameErr(step, "produce with epoch", err, werr)
			if err == nil && off != woff {
				t.Fatalf("step %d: produce with epoch at offset %d, oracle %d", step, off, woff)
			}
			if err == nil {
				acked[val] = true
			}
		case 7, 8:
			g, n := groups[src.pick(2)], 1+src.pick(8)
			got, err := c.Poll(g, "events", n)
			if err != nil {
				t.Fatal(err)
			}
			if want := o.poll(g, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Poll(%s, %d) =\n %v\noracle\n %v", step, g, n, got, want)
			}
		case 9:
			g := groups[src.pick(2)]
			if err := c.CommitPolled(g, "events"); err != nil {
				t.Fatal(err)
			}
			o.commit(g)
		case 10:
			n := src.pick(cfg.Nodes)
			sameErr(step, "crash", c.CrashNode(n), o.crash(n))
		case 11:
			n := src.pick(cfg.Nodes)
			sameErr(step, "restart", c.RestartNode(n), o.restart(n))
		case 12, 13:
			c.Tick()
			o.tick()
		case 14:
			w := &open[src.pick(2)][src.pick(cfg.Nodes)]
			*w = !*w
		default:
			open = [2][3]bool{}
		}

		st := c.State()
		if want := o.partitions(); !reflect.DeepEqual(st.Partitions, want) {
			t.Fatalf("step %d: partitions =\n %+v\noracle\n %+v", step, st.Partitions, want)
		}
		if st.Stats != o.stats {
			t.Fatalf("step %d: stats =\n %+v\noracle\n %+v", step, st.Stats, o.stats)
		}
		for _, g := range groups {
			if lag, _ := c.Lag(g, "events"); lag != o.lag(g) {
				t.Fatalf("step %d: Lag(%s) = %d, oracle %d", step, g, lag, o.lag(g))
			}
		}
		checkInvariants(t, step, c, o, st, epochs, acked)
	}
	return c.Stats()
}

// checkInvariants asserts what must hold after every step whatever the
// oracle says: ISR ⊆ replicas with the leader in it, epochs never fall, and
// on a led partition no replica ends past the leader and no group's committed
// offset passes the high watermark, which is why the broker never truncates;
// and a fresh group reads only acknowledged records, none twice, and every
// record acknowledged on a led partition.
func checkInvariants(t *testing.T, step int, c *Cluster, o *oracle, st ClusterState, epochs []int64, acked map[string]bool) {
	t.Helper()
	for p, ps := range st.Partitions {
		for _, n := range ps.ISR {
			if !contains(ps.Replicas, n) {
				t.Fatalf("step %d: partition %d ISR %v ⊄ replicas %v", step, p, ps.ISR, ps.Replicas)
			}
		}
		if ps.Leader != -1 && !contains(ps.ISR, ps.Leader) {
			t.Fatalf("step %d: partition %d leader %d outside ISR %v", step, p, ps.Leader, ps.ISR)
		}
		if ps.Epoch < epochs[p] {
			t.Fatalf("step %d: partition %d epoch fell %d → %d", step, p, epochs[p], ps.Epoch)
		}
		epochs[p] = ps.Epoch
		if ps.Leader == -1 {
			continue
		}
		for i, end := range ps.ReplicaEnds {
			if end > ps.HighWatermark {
				t.Fatalf("step %d: partition %d replica %d ends at %d past leader %d's %d", step, p, ps.Replicas[i], end, ps.Leader, ps.HighWatermark)
			}
		}
		for name := range o.groups {
			if committed, _ := c.Committed(name, "events", p); committed > ps.HighWatermark {
				t.Fatalf("step %d: %s committed %d past hw %d on partition %d", step, name, committed, ps.HighWatermark, p)
			}
		}
	}
	// A group that never commits reads from offset 0 on every poll.
	recs, err := c.Poll("audit", "events", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int, len(recs))
	for _, r := range recs {
		if v := string(r.Value); !acked[v] || seen[v] > 0 {
			t.Fatalf("step %d: fresh group reads %s at %d/%d: acked %v, seen before %v", step, v, r.Partition, r.Offset, acked[v], seen[v] > 0)
		}
		seen[string(r.Value)]++
	}
	for p, ps := range st.Partitions {
		for _, v := range o.acked[p] {
			if ps.Leader != -1 && seen[v] != 1 {
				t.Fatalf("step %d: fresh group reads acknowledged %s %d times on partition %d", step, v, seen[v], p)
			}
		}
	}
}

// TestModelRandomHistories runs seeded histories of keyed, empty-key and
// header-carrying produces, epoch-fenced produces at the current and at stale
// epochs, polls and commits by two groups (one poller each), crashes,
// restarts, ticks and replicate/catchup fault windows against the oracle.
//
// Mutations of cluster.go it catches, each tried by hand (and the check
// that fires first):
//   - produce advances the end of a follower it dropped from the ISR
//     (partitions);
//   - catch-up skips the fault hook (partitions);
//   - ProduceWithEpoch ignores the epoch (produce with epoch);
//   - an election may pick a live replica outside the ISR (partitions).
func TestModelRandomHistories(t *testing.T) {
	var total ClusterStats
	for i, cfg := range historyConfigs {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("config%d/seed%d", i, seed), func(t *testing.T) {
				st := runHistory(t, cfg, &choices{rng: rand.New(rand.NewSource(seed*10 + int64(i))), steps: 400})
				total.Elections += st.Elections
				total.CatchUpRecords += st.CatchUpRecords
				total.StaleProduces += st.StaleProduces
				total.ISRShrinks += st.ISRShrinks
				total.UnavailableErrors += st.UnavailableErrors
			})
		}
	}
	if t.Failed() {
		return
	}
	// Guard against a history that stopped exercising what it is here for.
	if total.Elections < 50 || total.CatchUpRecords < 50 ||
		total.StaleProduces < 20 || total.ISRShrinks < 50 || total.UnavailableErrors < 20 {
		t.Fatalf("history too tame: %+v", total)
	}
}

// FuzzClusterHistories runs the model test's history with its decisions read
// from the fuzz input: the first byte picks the broker shape, and every
// later byte one choice.
func FuzzClusterHistories(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := historyConfigs[int(data[0])%len(historyConfigs)]
		// The audit re-reads the whole log every step, so a long input
		// costs its length squared; a history this long covers the cases.
		runHistory(t, cfg, &choices{data: data[1:min(len(data), 256)]})
	})
}
