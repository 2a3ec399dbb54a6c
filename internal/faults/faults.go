// Package faults is a deterministic, seeded fault-injection substrate for
// the ingestion and storage tiers. A single Injector decides, per named
// operation, whether a call fails (with per-call error probability, error
// bursts, and partition/blackout windows) or suffers a latency spike on the
// simulated millisecond clock — the same virtual timeline the fog simulator
// and the retry package use, so no test ever sleeps on the wall clock.
//
// The package decorates no seam itself: the infrastructure's pipeline bus
// calls Decide/DecideKey on the broker's produce/poll surface, and plain
// hook functions adapt the injector to hdfs datanode I/O, hbase WAL/flush,
// replication and docstore inserts (those packages declare structurally
// identical hook types so they need not import this one). Everything is
// reproducible for a given Config.Seed.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// ErrInjected marks every failure produced by an Injector, so callers can
// distinguish injected chaos from real bugs.
var ErrInjected = errors.New("faults: injected fault")

// Config tunes an injector. All probabilities are per call.
type Config struct {
	// Seed drives every random decision; equal seeds replay identical
	// fault schedules.
	Seed int64
	// ErrorRate is the probability a call starts a failure burst.
	ErrorRate float64
	// BurstLen is how many consecutive calls (per op) fail once a burst
	// starts (<=1 means single failures).
	BurstLen int
	// LatencyRate is the probability a successful call suffers a spike.
	LatencyRate float64
	// LatencySpikeMs is the spike magnitude on the simulated clock.
	LatencySpikeMs float64
	// BlackoutEvery starts a partition/blackout window every Nth call to
	// an op (0 disables): the next BlackoutLen calls to that op all fail,
	// modeling a flaky fog uplink or a partitioned broker.
	BlackoutEvery int
	// BlackoutLen is the length of each blackout window in calls.
	BlackoutLen int
	// TargetOps restricts error, burst, blackout, and latency injection to
	// operations whose name starts with one of these prefixes (e.g. "bus."
	// partitions only the broker while storage stays healthy). Empty means
	// every op. CPU burns keep their own BurnOp targeting.
	TargetOps []string
	// TargetKeys further restricts injection on key-carrying seams (broker
	// produces route a record key — the camera id on the frames topic) to
	// exact key matches: a single camera's uplink can be blacked out while
	// the other 200+ stay healthy. Empty means every key. Seams without a
	// key ignore the filter.
	TargetKeys []string
	// BurnOp names the single operation whose calls burn real CPU for
	// BurnMs wall-clock milliseconds each ("" burns every op). Unlike
	// LatencySpikeMs — bookkeeping on the simulated clock — a burn
	// busy-spins the calling goroutine, so the continuous profiler sees the
	// hot region exactly where the fault landed.
	BurnOp string
	// BurnMs is the wall-clock milliseconds each burned call spins (0
	// disables burning).
	BurnMs float64
}

// Fault is one injection decision.
type Fault struct {
	Err       error
	LatencyMs float64
	// BurnMs asks the caller to spin for that much wall-clock time via
	// Burn(); the decision is made under the injector lock but the spin must
	// happen outside it.
	BurnMs float64
}

// Burn busy-spins the calling goroutine for BurnMs of wall-clock time. It
// is a no-op for BurnMs <= 0, and must be called after the injector lock is
// released so concurrent fault decisions don't serialize behind the spin.
func (f Fault) Burn() {
	if f.BurnMs <= 0 {
		return
	}
	deadline := time.Now().Add(time.Duration(f.BurnMs * float64(time.Millisecond)))
	for time.Now().Before(deadline) {
	}
}

// OpStats counts injections for one named operation.
type OpStats struct {
	Calls         int
	Errors        int
	Blackouts     int // errors attributable to blackout windows
	LatencySpikes int
	LatencyMs     float64
	Burns         int
	BurnMs        float64 // wall-clock CPU burned, not simulated latency
}

// Injector makes deterministic fault decisions. Safe for concurrent use.
type Injector struct {
	mu           sync.Mutex
	cfg          Config
	rng          *rand.Rand
	burstLeft    map[string]int
	blackoutLeft map[string]int
	stats        map[string]*OpStats
}

// NewInjector builds an injector from cfg.
func NewInjector(cfg Config) *Injector {
	if cfg.BurstLen < 1 {
		cfg.BurstLen = 1
	}
	if cfg.BlackoutLen < 1 {
		cfg.BlackoutLen = 1
	}
	return &Injector{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		burstLeft:    make(map[string]int),
		blackoutLeft: make(map[string]int),
		stats:        make(map[string]*OpStats),
	}
}

// Decide returns the fault (if any) for the next call to op.
func (in *Injector) Decide(op string) Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.decideLocked(op, in.rng)
}

// DecideKey is Decide for seams that route a record key (the camera id on
// broker produces). When TargetKeys is set, non-matching keys stay
// fault-free and draw nothing from the random stream — their op call
// counters don't advance either, so a blackout cadence of "every Nth call"
// means every Nth call **by the targeted cameras**, which keeps single-
// camera fault schedules identical no matter how much healthy fleet traffic
// interleaves. With no TargetKeys it is exactly Decide.
func (in *Injector) DecideKey(op, key string) Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.cfg.TargetKeys) > 0 && !in.targetedKey(key) {
		return Fault{}
	}
	return in.decideLocked(op, in.rng)
}

// targetedKey reports whether key passes the TargetKeys exact-match filter.
func (in *Injector) targetedKey(key string) bool {
	for _, k := range in.cfg.TargetKeys {
		if key == k {
			return true
		}
	}
	return false
}

// decideLocked is Decide's body, parameterized over the random stream so op
// families can draw from independent sequences. Callers hold in.mu.
func (in *Injector) decideLocked(op string, rng *rand.Rand) Fault {
	st, ok := in.stats[op]
	if !ok {
		st = &OpStats{}
		in.stats[op] = st
	}
	st.Calls++

	// A CPU burn rides along with whatever else is decided — the spin
	// happens in the caller, after the lock is released.
	var burn float64
	if in.cfg.BurnMs > 0 && (in.cfg.BurnOp == "" || in.cfg.BurnOp == op) {
		burn = in.cfg.BurnMs
		st.Burns++
		st.BurnMs += burn
	}

	// Untargeted ops stay fault-free and draw nothing from the random
	// stream; their call counters still advance so blackout phase survives
	// retargeting.
	if !in.targeted(op) {
		return Fault{BurnMs: burn}
	}

	if in.cfg.BlackoutEvery > 0 && st.Calls%in.cfg.BlackoutEvery == 0 {
		in.blackoutLeft[op] = in.cfg.BlackoutLen
	}
	if in.blackoutLeft[op] > 0 {
		in.blackoutLeft[op]--
		st.Errors++
		st.Blackouts++
		return Fault{Err: fmt.Errorf("%w: blackout window on %s (call %d)", ErrInjected, op, st.Calls), BurnMs: burn}
	}
	if in.burstLeft[op] > 0 {
		in.burstLeft[op]--
		st.Errors++
		return Fault{Err: fmt.Errorf("%w: burst failure on %s (call %d)", ErrInjected, op, st.Calls), BurnMs: burn}
	}
	if in.cfg.ErrorRate > 0 && rng.Float64() < in.cfg.ErrorRate {
		in.burstLeft[op] = in.cfg.BurstLen - 1
		st.Errors++
		return Fault{Err: fmt.Errorf("%w: failure on %s (call %d)", ErrInjected, op, st.Calls), BurnMs: burn}
	}
	f := Fault{BurnMs: burn}
	if in.cfg.LatencyRate > 0 && rng.Float64() < in.cfg.LatencyRate {
		f.LatencyMs = in.cfg.LatencySpikeMs * (0.5 + rng.Float64())
		st.LatencySpikes++
		st.LatencyMs += f.LatencyMs
	}
	return f
}

// targeted reports whether op falls under the TargetOps prefix filter.
func (in *Injector) targeted(op string) bool {
	if len(in.cfg.TargetOps) == 0 {
		return true
	}
	for _, prefix := range in.cfg.TargetOps {
		if strings.HasPrefix(op, prefix) {
			return true
		}
	}
	return false
}

// Stats returns a snapshot of per-op counters.
func (in *Injector) Stats() map[string]OpStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]OpStats, len(in.stats))
	for op, st := range in.stats {
		out[op] = *st
	}
	return out
}

// Totals aggregates counters across every op.
func (in *Injector) Totals() OpStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	var t OpStats
	for _, st := range in.stats {
		t.Calls += st.Calls
		t.Errors += st.Errors
		t.Blackouts += st.Blackouts
		t.LatencySpikes += st.LatencySpikes
		t.LatencyMs += st.LatencyMs
		t.Burns += st.Burns
		t.BurnMs += st.BurnMs
	}
	return t
}

// ClusterHook adapts the injector to stream.Cluster.SetFaultHook: one
// decision per follower per replication round, charged to "cluster.<op>"
// ("cluster.replicate" for leader fan-out during produce — a failure drops
// the follower from the ISR — and "cluster.catchup" for follower fetches
// during Tick, a failure delaying rejoin by a tick). This is the
// replication-lag seam E22 leans on.
//
// Cluster ops draw from their own seeded stream: replication fan-out makes
// a hook decision per follower per produce, and letting those draws consume
// the shared sequence would reshuffle the fault schedule every pre-existing
// op sees under the same seed.
func (in *Injector) ClusterHook() func(op string, node int) error {
	rng := rand.New(rand.NewSource(in.cfg.Seed ^ 0x636c7573746572)) // "cluster"
	return func(op string, node int) error {
		in.mu.Lock()
		f := in.decideLocked("cluster."+op, rng)
		in.mu.Unlock()
		f.Burn()
		if f.Err != nil {
			return fmt.Errorf("broker node %d: %w", node, f.Err)
		}
		return nil
	}
}

// HDFSHook adapts the injector to hdfs.Cluster.SetFaultHook: one decision
// per replica I/O, charged to "hdfs.<op>".
func (in *Injector) HDFSHook() func(op, node string) error {
	return func(op, node string) error {
		f := in.Decide("hdfs." + op)
		f.Burn()
		if f.Err != nil {
			return fmt.Errorf("datanode %s: %w", node, f.Err)
		}
		return nil
	}
}

// HBaseHook adapts the injector to hbase.Table.SetFaultHook: one decision
// per WAL append or flush, charged to "hbase.<op>".
func (in *Injector) HBaseHook() func(op string) error {
	return func(op string) error {
		f := in.Decide("hbase." + op)
		f.Burn()
		if f.Err != nil {
			return f.Err
		}
		return nil
	}
}

// StoreHook adapts the injector to the document-store drain ("store" op),
// modeling transient NoSQL write failures.
func (in *Injector) StoreHook() func() error {
	return func() error {
		f := in.Decide("store.insert")
		f.Burn()
		if f.Err != nil {
			return f.Err
		}
		return nil
	}
}
