package fog

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

func TestTopologyConstructionErrors(t *testing.T) {
	topo := NewTopology()
	if err := topo.AddNode("a", Edge, 0); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("zero ops err = %v", err)
	}
	if err := topo.AddNode("a", Edge, 10); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddNode("a", Edge, 10); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("dup err = %v", err)
	}
	if err := topo.AddLink("a", "ghost", 1, 10); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing node err = %v", err)
	}
	if _, err := topo.Link("a", "ghost"); !errors.Is(err, ErrNoLink) {
		t.Fatalf("missing link err = %v", err)
	}
}

func TestSingleJobLatencyArithmetic(t *testing.T) {
	topo := NewTopology()
	if err := topo.AddNode("e", Edge, 10); err != nil { // 10 ops/ms
		t.Fatal(err)
	}
	if err := topo.AddNode("s", Server, 100); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("e", "s", 5, 100); err != nil { // 5ms + bytes/100
		t.Fatal(err)
	}
	jobs := []Job{{
		ID: "j1",
		Steps: []Step{
			ComputeStep{NodeID: "e", Ops: 50},             // 5 ms
			TransferStep{From: "e", To: "s", Bytes: 1000}, // 5 + 10 = 15 ms
			ComputeStep{NodeID: "s", Ops: 200},            // 2 ms
		},
	}}
	res, err := topo.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0 + 15.0 + 2.0
	if math.Abs(res.Jobs[0].LatencyMs-want) > 1e-9 {
		t.Fatalf("latency = %g, want %g", res.Jobs[0].LatencyMs, want)
	}
	if res.BytesByLink["e→s"] != 1000 {
		t.Fatalf("bytes = %v", res.BytesByLink)
	}
	if res.BusyByTier[Edge] != 5 || res.BusyByTier[Server] != 2 {
		t.Fatalf("tier busy = %g %g", res.BusyByTier[Edge], res.BusyByTier[Server])
	}
}

func TestQueueingSerializesSharedNode(t *testing.T) {
	topo := NewTopology()
	if err := topo.AddNode("n", Fog, 1); err != nil { // 1 op/ms
		t.Fatal(err)
	}
	jobs := []Job{
		{ID: "a", Steps: []Step{ComputeStep{NodeID: "n", Ops: 10}}},
		{ID: "b", Steps: []Step{ComputeStep{NodeID: "n", Ops: 10}}},
	}
	res, err := topo.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// One of them must wait for the other: latencies 10 and 20.
	ls := []float64{res.Jobs[0].LatencyMs, res.Jobs[1].LatencyMs}
	if !(ls[0] == 10 && ls[1] == 20) && !(ls[0] == 20 && ls[1] == 10) {
		t.Fatalf("latencies = %v", ls)
	}
	if res.MakespanMs != 20 {
		t.Fatalf("makespan = %g", res.MakespanMs)
	}
}

func TestReleaseTimesRespected(t *testing.T) {
	topo := NewTopology()
	_ = topo.AddNode("n", Fog, 1)
	jobs := []Job{
		{ID: "late", ReleaseMs: 100, Steps: []Step{ComputeStep{NodeID: "n", Ops: 5}}},
	}
	res, err := topo.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].StartMs != 100 || res.Jobs[0].FinishMs != 105 {
		t.Fatalf("job = %+v", res.Jobs[0])
	}
	if res.Jobs[0].LatencyMs != 5 {
		t.Fatalf("latency = %g", res.Jobs[0].LatencyMs)
	}
}

func TestRunErrors(t *testing.T) {
	topo := NewTopology()
	_ = topo.AddNode("n", Fog, 1)
	if _, err := topo.Run([]Job{{ID: "x"}}); !errors.Is(err, ErrBadJob) {
		t.Fatalf("empty job err = %v", err)
	}
	if _, err := topo.Run([]Job{{ID: "x", Steps: []Step{ComputeStep{NodeID: "ghost", Ops: 1}}}}); !errors.Is(err, ErrNoNode) {
		t.Fatalf("ghost node err = %v", err)
	}
	if _, err := topo.Run([]Job{{ID: "x", Steps: []Step{TransferStep{From: "n", To: "n2", Bytes: 1}}}}); !errors.Is(err, ErrNoLink) {
		t.Fatalf("ghost link err = %v", err)
	}
}

func TestNewDeploymentShape(t *testing.T) {
	d := NewDeployment()
	if len(d.Edges) != 8 || len(d.FogIDs) != 4 || len(d.Servers) != 2 {
		t.Fatalf("deployment = %d/%d/%d", len(d.Edges), len(d.FogIDs), len(d.Servers))
	}
	for tier, ids := range map[Tier][]string{Edge: d.Edges, Fog: d.FogIDs, Server: d.Servers, Cloud: {d.CloudID}} {
		for _, id := range ids {
			n, err := d.Topo.Node(id)
			if err != nil || n.Tier != tier {
				t.Fatalf("node %s: %+v, %v; want tier %v", id, n, err, tier)
			}
		}
	}
	// Every edge has a link to its fog parent.
	for i, e := range d.Edges {
		if _, err := d.Topo.Link(e, d.FogOf(i)); err != nil {
			t.Fatalf("edge %s: %v", e, err)
		}
	}
}

func makeItems(n int, rng *rand.Rand) []InferenceItem {
	items := make([]InferenceItem, n)
	for i := range items {
		items[i] = InferenceItem{
			ID:           fmt.Sprintf("item-%03d", i),
			EdgeIdx:      i % 8,
			ReleaseMs:    float64(i) * 2,
			Confidence:   rng.Float64(),
			RawBytes:     20000,
			FeatureBytes: 4000,
			LocalOps:     200,
			ServerOps:    2000,
			FullOps:      2500,
		}
	}
	return items
}

func TestEarlyExitPolicyReducesUpstreamBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDeployment()
	items := makeItems(200, rng)

	run := func(p Policy) *Results {
		jobs, err := p.JobsFor(d, items)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Topo.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Early exit at threshold 0 exits every item: local-only.
	local := run(Policy{Kind: PolicyEarlyExit})
	cloud := run(Policy{Kind: PolicyCloudOnly})
	early := run(Policy{Kind: PolicyEarlyExit, Exit: nn.ExitPolicy{Threshold: 0.5}})

	// The edge→fog hop carries raw bytes for everyone; what matters is the
	// fog→server traffic.
	upBytes := func(r *Results) int {
		total := 0
		for key, b := range r.BytesByLink {
			for _, f := range d.FogIDs {
				if len(key) > len(f) && key[:len(f)] == f {
					total += b
				}
			}
		}
		return total
	}
	lb, cb, eb := upBytes(local), upBytes(cloud), upBytes(early)
	if lb != 0 {
		t.Fatalf("local-only sent %d upstream bytes", lb)
	}
	if eb >= cb {
		t.Fatalf("early-exit bytes %d not less than server-only %d", eb, cb)
	}
	// ~50%% of items offload 4000-byte features vs 100%% raw 20000: expect
	// roughly a 10x reduction.
	if ratio := float64(cb) / float64(eb); ratio < 5 {
		t.Fatalf("bytes reduction ratio = %g, want >= 5", ratio)
	}
	if early.MeanMs >= cloud.MeanMs {
		t.Fatalf("early-exit mean %g not faster than server-only %g", early.MeanMs, cloud.MeanMs)
	}
}

func TestEarlyExitThresholdMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDeployment()
	items := makeItems(150, rng)
	items[0].Confidence = 0.5 // on a swept threshold: a score equal to it exits
	prevBytes := -1
	for _, th := range []float64{0.0, 0.25, 0.5, 0.75, 1.01} {
		jobs, err := Policy{Kind: PolicyEarlyExit, Exit: nn.ExitPolicy{Threshold: th}}.JobsFor(d, items)
		if err != nil {
			t.Fatal(err)
		}
		offloaded, below := 0, 0
		for i, j := range jobs {
			if len(j.Steps) > 2 {
				offloaded++
			}
			if items[i].Confidence < th {
				below++
			}
		}
		if offloaded != below {
			t.Fatalf("threshold %g offloads %d items, want the %d with confidence below it", th, offloaded, below)
		}
		res, err := d.Topo.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		fogUp := 0
		for key, b := range res.BytesByLink {
			for _, f := range d.FogIDs {
				if len(key) > len(f) && key[:len(f)] == f {
					fogUp += b
				}
			}
		}
		if fogUp < prevBytes {
			t.Fatalf("upstream bytes decreased as threshold rose: %d < %d at %g", fogUp, prevBytes, th)
		}
		prevBytes = fogUp
	}
}

func TestPolicyJobsErrors(t *testing.T) {
	d := NewDeployment()
	bad := []InferenceItem{{ID: "x", EdgeIdx: 99}}
	if _, err := (Policy{Kind: PolicyEarlyExit}).JobsFor(d, bad); !errors.Is(err, ErrBadJob) {
		t.Fatalf("edge idx err = %v", err)
	}
	if _, err := (Policy{Kind: PolicyKind(99)}).JobsFor(d, makeItems(1, rand.New(rand.NewSource(1)))); !errors.Is(err, ErrBadJob) {
		t.Fatalf("bad policy err = %v", err)
	}
}

func TestTierAndPolicyStrings(t *testing.T) {
	if Edge.String() != "edge" || Cloud.String() != "cloud" || Tier(0).String() != "unknown" {
		t.Fatal("tier strings")
	}
	if PolicyEarlyExit.String() != "early-exit" || PolicyKind(0).String() != "unknown" {
		t.Fatal("policy strings")
	}
}

// Property: per-tier busy time equals the sum of compute durations of the
// jobs routed to that tier, and total bytes equal the sum of transfer sizes
// — conservation laws of the simulator.
func TestSimulatorConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		topo := NewTopology()
		nodeOps := map[string]float64{"e": 5 + rng.Float64()*20, "s": 50 + rng.Float64()*100}
		_ = topo.AddNode("e", Edge, nodeOps["e"])
		_ = topo.AddNode("s", Server, nodeOps["s"])
		_ = topo.AddLink("e", "s", rng.Float64()*10, 10+rng.Float64()*100)

		nJobs := 1 + rng.Intn(20)
		jobs := make([]Job, nJobs)
		wantEdgeBusy, wantServerBusy := 0.0, 0.0
		wantBytes := 0
		for i := range jobs {
			eOps := 1 + rng.Float64()*50
			sOps := 1 + rng.Float64()*50
			bytes := 1 + rng.Intn(5000)
			wantEdgeBusy += eOps / nodeOps["e"]
			wantServerBusy += sOps / nodeOps["s"]
			wantBytes += bytes
			jobs[i] = Job{
				ID:        fmt.Sprintf("j%02d", i),
				ReleaseMs: rng.Float64() * 100,
				Steps: []Step{
					ComputeStep{NodeID: "e", Ops: eOps},
					TransferStep{From: "e", To: "s", Bytes: bytes},
					ComputeStep{NodeID: "s", Ops: sOps},
				},
			}
		}
		res, err := topo.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.BusyByTier[Edge]-wantEdgeBusy) > 1e-6 {
			t.Fatalf("trial %d: edge busy %g, want %g", trial, res.BusyByTier[Edge], wantEdgeBusy)
		}
		if math.Abs(res.BusyByTier[Server]-wantServerBusy) > 1e-6 {
			t.Fatalf("trial %d: server busy %g, want %g", trial, res.BusyByTier[Server], wantServerBusy)
		}
		if res.BytesByLink["e→s"] != wantBytes {
			t.Fatalf("trial %d: bytes %d, want %d", trial, res.BytesByLink["e→s"], wantBytes)
		}
		if len(res.Jobs) != nJobs {
			t.Fatalf("trial %d: %d job results", trial, len(res.Jobs))
		}
		// Latency is never below the uncontended service time.
		for _, jr := range res.Jobs {
			if jr.LatencyMs < 0 {
				t.Fatalf("negative latency %g", jr.LatencyMs)
			}
		}
	}
}
