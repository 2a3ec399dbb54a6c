package faults

import (
	"errors"
	"testing"
	"time"

	"repro/internal/flume"
	"repro/internal/stream"
)

// schedule replays n decisions for one op and returns the error pattern.
func schedule(cfg Config, op string, n int) []bool {
	inj := NewInjector(cfg)
	out := make([]bool, n)
	for i := range out {
		out[i] = inj.Decide(op).Err != nil
	}
	return out
}

func TestInjectorIsDeterministicPerSeed(t *testing.T) {
	cfg := Config{Seed: 11, ErrorRate: 0.3, BurstLen: 2, LatencyRate: 0.2, LatencySpikeMs: 10}
	a := schedule(cfg, "x", 200)
	b := schedule(cfg, "x", 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 12
	c := schedule(cfg2, "x", 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestBurstsFailConsecutively(t *testing.T) {
	// ErrorRate 1 with BurstLen 3: every call fails, and the first burst
	// accounts for calls 1-3.
	inj := NewInjector(Config{Seed: 1, ErrorRate: 1, BurstLen: 3})
	for i := 0; i < 6; i++ {
		if f := inj.Decide("op"); !errors.Is(f.Err, ErrInjected) {
			t.Fatalf("call %d: err = %v", i, f.Err)
		}
	}
	if st := inj.Stats()["op"]; st.Errors != 6 || st.Calls != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBlackoutWindows(t *testing.T) {
	// No random errors; every 10th call opens a 3-call blackout.
	inj := NewInjector(Config{Seed: 2, BlackoutEvery: 10, BlackoutLen: 3})
	var failed []int
	for i := 1; i <= 25; i++ {
		if inj.Decide("link").Err != nil {
			failed = append(failed, i)
		}
	}
	want := []int{10, 11, 12, 20, 21, 22}
	if len(failed) != len(want) {
		t.Fatalf("failed calls = %v, want %v", failed, want)
	}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("failed calls = %v, want %v", failed, want)
		}
	}
	if st := inj.Stats()["link"]; st.Blackouts != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLatencySpikesAccumulateOnSimClock(t *testing.T) {
	inj := NewInjector(Config{Seed: 3, LatencyRate: 1, LatencySpikeMs: 10})
	total := 0.0
	for i := 0; i < 50; i++ {
		f := inj.Decide("op")
		if f.Err != nil {
			t.Fatalf("unexpected error: %v", f.Err)
		}
		if f.LatencyMs < 5 || f.LatencyMs > 15 {
			t.Fatalf("spike %v outside [5ms, 15ms]", f.LatencyMs)
		}
		total += f.LatencyMs
	}
	st := inj.Stats()["op"]
	if st.LatencySpikes != 50 || st.LatencyMs != total {
		t.Fatalf("stats = %+v (total %v)", st, total)
	}
}

func TestFlakySinkAndBus(t *testing.T) {
	inj := NewInjector(Config{Seed: 4, ErrorRate: 1})
	delivered := 0
	sink := NewFlakySink("sink", flume.FuncSink(func(ev []flume.Event) error {
		delivered += len(ev)
		return nil
	}), inj)
	if err := sink.Deliver([]flume.Event{{}}); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if delivered != 0 {
		t.Fatal("inner sink reached despite injection")
	}

	broker, err := stream.NewCluster(stream.ClusterConfig{Nodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.CreateTopic("t", 1); err != nil {
		t.Fatal(err)
	}
	bus := NewFlakyBus(broker, NewInjector(Config{Seed: 5, ErrorRate: 1}))
	if _, _, err := bus.Produce("t", "k", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("produce err = %v", err)
	}
	if _, err := bus.Poll("g", "t", 10); !errors.Is(err, ErrInjected) {
		t.Fatalf("poll err = %v", err)
	}
	// A clean injector passes calls through untouched.
	clean := NewFlakyBus(broker, NewInjector(Config{Seed: 6}))
	if _, _, err := clean.Produce("t", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	recs, err := clean.Poll("g", "t", 10)
	if err != nil || len(recs) != 1 {
		t.Fatalf("poll = %v, %v", recs, err)
	}
}

func TestHooksChargeNamespacedOps(t *testing.T) {
	inj := NewInjector(Config{Seed: 7, ErrorRate: 1})
	if err := inj.HDFSHook()("read", "dn-0"); !errors.Is(err, ErrInjected) {
		t.Fatalf("hdfs hook err = %v", err)
	}
	if err := inj.HBaseHook()("wal"); !errors.Is(err, ErrInjected) {
		t.Fatalf("hbase hook err = %v", err)
	}
	if err := inj.StoreHook()(); !errors.Is(err, ErrInjected) {
		t.Fatalf("store hook err = %v", err)
	}
	stats := inj.Stats()
	for _, op := range []string{"hdfs.read", "hbase.wal", "store.insert"} {
		if stats[op].Errors != 1 {
			t.Fatalf("op %s stats = %+v", op, stats[op])
		}
	}
	totals := inj.Totals()
	if totals.Calls != 3 || totals.Errors != 3 {
		t.Fatalf("totals = %+v", totals)
	}
}

// The burn seam spins real wall-clock CPU on the targeted op only, so a
// continuous profiler localizes the hot spot to the code path that called
// the injector.
func TestBurnTargetsOneOp(t *testing.T) {
	inj := NewInjector(Config{Seed: 3, BurnOp: "store.insert", BurnMs: 2})
	hook := inj.StoreHook()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := hook(); err != nil {
			t.Fatalf("burn-only config must not inject errors: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("5 burned calls took %v, want >= 10ms", elapsed)
	}
	// A non-targeted op must not burn.
	if f := inj.Decide("bus.produce"); f.BurnMs != 0 {
		t.Fatalf("untargeted op burned %v ms", f.BurnMs)
	}
	st := inj.Stats()["store.insert"]
	if st.Burns != 5 || st.BurnMs != 10 {
		t.Fatalf("burn stats = %+v", st)
	}
	if tot := inj.Totals(); tot.Burns != 5 || tot.BurnMs != 10 {
		t.Fatalf("totals = %+v", tot)
	}
}

// An empty BurnOp burns every operation.
func TestBurnAllOps(t *testing.T) {
	inj := NewInjector(Config{Seed: 3, BurnMs: 0.1})
	for _, op := range []string{"a", "b"} {
		if f := inj.Decide(op); f.BurnMs != 0.1 {
			t.Fatalf("op %s burn = %v", op, f.BurnMs)
		}
	}
	if tot := inj.Totals(); tot.Burns != 2 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestTargetOpsScopeInjection(t *testing.T) {
	// A hard partition targeted at bus.* must fail every bus call and none
	// of the storage calls, regardless of rates.
	cfg := Config{
		Seed: 3, ErrorRate: 1, BlackoutEvery: 1, BlackoutLen: 1,
		LatencyRate: 1, LatencySpikeMs: 10,
		TargetOps: []string{"bus."},
	}
	inj := NewInjector(cfg)
	for i := 0; i < 50; i++ {
		if f := inj.Decide("bus.produce"); f.Err == nil {
			t.Fatalf("call %d: targeted op escaped the partition", i)
		}
		if f := inj.Decide("hdfs.write"); f.Err != nil || f.LatencyMs != 0 {
			t.Fatalf("call %d: untargeted op injected: %+v", i, f)
		}
		if f := inj.Decide("hbase.wal"); f.Err != nil {
			t.Fatalf("call %d: untargeted op injected: %+v", i, f)
		}
	}
	st := inj.Stats()
	if st["bus.produce"].Errors != 50 || st["hdfs.write"].Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Untargeted ops still count calls, so blackout phase survives
	// retargeting.
	if st["hdfs.write"].Calls != 50 {
		t.Fatalf("untargeted calls = %d, want 50", st["hdfs.write"].Calls)
	}
}

func TestTargetOpsPrefixMatch(t *testing.T) {
	cfg := Config{Seed: 5, ErrorRate: 1, TargetOps: []string{"hdfs.", "cluster.replicate"}}
	inj := NewInjector(cfg)
	cases := []struct {
		op   string
		want bool
	}{
		{"hdfs.write", true},
		{"hdfs.read", true},
		{"cluster.replicate", true},
		{"cluster.catchup", false},
		{"bus.produce", false},
		{"store.insert", false},
	}
	for _, c := range cases {
		got := inj.Decide(c.op).Err != nil
		if got != c.want {
			t.Errorf("%s: injected=%v, want %v", c.op, got, c.want)
		}
	}
	// Burns keep their own BurnOp targeting, independent of TargetOps.
	binj := NewInjector(Config{Seed: 6, BurnMs: 0.01, BurnOp: "bus.poll", TargetOps: []string{"hdfs."}})
	if f := binj.Decide("bus.poll"); f.BurnMs == 0 {
		t.Error("BurnOp ignored under TargetOps")
	}
	if f := binj.Decide("hdfs.write"); f.BurnMs != 0 {
		t.Error("burn leaked past BurnOp")
	}
}

func TestTargetKeysScopeProduceInjection(t *testing.T) {
	broker, err := stream.NewCluster(stream.ClusterConfig{Nodes: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.CreateTopic("frames", 1); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(Config{
		Seed: 9, BlackoutEvery: 1, BlackoutLen: 1,
		TargetOps: []string{"bus.produce"}, TargetKeys: []string{"cam-007"},
	})
	bus := NewFlakyBus(broker, inj)
	// Healthy-fleet produces pass through untouched, every time.
	for i := 0; i < 20; i++ {
		if _, _, err := bus.Produce("frames", "cam-001", []byte("v")); err != nil {
			t.Fatalf("untargeted camera produce %d: %v", i, err)
		}
	}
	// The targeted camera is hard-partitioned.
	if _, _, err := bus.Produce("frames", "cam-007", []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted camera err = %v, want injected", err)
	}
	// Healthy traffic interleaving must not perturb the targeted schedule:
	// the per-op call counter only advances for targeted keys.
	st := inj.Stats()["bus.produce"]
	if st.Calls != 1 || st.Blackouts != 1 {
		t.Fatalf("bus.produce stats = %+v, want exactly the targeted camera's call", st)
	}
	// Keyless seams ignore the filter entirely.
	if f := inj.DecideKey("bus.produce", "cam-001"); f.Err != nil {
		t.Fatalf("untargeted key drew a fault: %v", f.Err)
	}
	// With no TargetKeys, DecideKey behaves exactly like Decide.
	plain := NewInjector(Config{Seed: 9, BlackoutEvery: 2, BlackoutLen: 1, TargetOps: []string{"bus.produce"}})
	if f := plain.DecideKey("bus.produce", "anything"); f.Err != nil {
		t.Fatalf("call 1 should be clean: %v", f.Err)
	}
	if f := plain.DecideKey("bus.produce", "anything"); f.Err == nil {
		t.Fatal("call 2 should hit the blackout cadence")
	}
}
