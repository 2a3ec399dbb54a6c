package fog

import (
	"fmt"
	"strconv"

	"repro/internal/nn"
)

// Deployment is the standard four-tier pipeline of Fig. 3: cameras attach to
// edge devices, each edge device reports to a fog node, fog nodes to an
// analysis server, and the server to the cloud.
type Deployment struct {
	Topo    *Topology
	Edges   []string
	FogIDs  []string
	Servers []string
	CloudID string
}

// The deployment resembles the paper's hardware: Raspberry-Pi-class edges,
// Jetson-class fog nodes, GPU analysis servers, regional links (LONI)
// between lower tiers, and Internet2 to the cloud. Compute is in ops/ms,
// latency in ms and bandwidth in bytes/ms.
const (
	deployEdges, deployFogNodes, deployServers               = 8, 4, 2
	edgeOpsPerMs, fogOpsPerMs, serverOpsPerMs, cloudOpsPerMs = 50, 400, 5000, 20000
	edgeFogLatency, fogServerLatency, serverCloudLatency     = 2, 5, 20
	edgeFogBW, fogServerBW, serverCloudBW                    = 1250, 12500, 125000 // 10 Mbps / 100 Mbps / 1 Gbps
)

// NewDeployment constructs the 4-tier topology with round-robin parenting.
func NewDeployment() *Deployment {
	topo := NewTopology()
	d := &Deployment{Topo: topo, CloudID: "cloud-0"}
	must := func(err error) {
		if err != nil {
			panic(err) // the constants above are valid
		}
	}
	for i := 0; i < deployEdges; i++ {
		id := "edge-" + strconv.Itoa(i)
		must(topo.AddNode(id, Edge, edgeOpsPerMs))
		d.Edges = append(d.Edges, id)
	}
	for i := 0; i < deployFogNodes; i++ {
		id := "fog-" + strconv.Itoa(i)
		must(topo.AddNode(id, Fog, fogOpsPerMs))
		d.FogIDs = append(d.FogIDs, id)
	}
	for i := 0; i < deployServers; i++ {
		id := "server-" + strconv.Itoa(i)
		must(topo.AddNode(id, Server, serverOpsPerMs))
		d.Servers = append(d.Servers, id)
	}
	must(topo.AddNode(d.CloudID, Cloud, cloudOpsPerMs))
	for i, e := range d.Edges {
		must(topo.AddLink(e, d.FogOf(i), edgeFogLatency, edgeFogBW))
	}
	for i, f := range d.FogIDs {
		must(topo.AddLink(f, d.ServerOf(i), fogServerLatency, fogServerBW))
	}
	for _, s := range d.Servers {
		must(topo.AddLink(s, d.CloudID, serverCloudLatency, serverCloudBW))
	}
	return d
}

// FogOf returns the fog node parenting an edge device.
func (d *Deployment) FogOf(edgeIdx int) string { return d.FogIDs[edgeIdx%len(d.FogIDs)] }

// ServerOf returns the server parenting a fog node.
func (d *Deployment) ServerOf(fogIdx int) string { return d.Servers[fogIdx%len(d.Servers)] }

// InferenceItem is one unit of analysis work (e.g. one video frame) arriving
// at an edge device, annotated with the local model's confidence so offload
// policies can gate on it (Figs. 5 and 7).
type InferenceItem struct {
	ID        string
	EdgeIdx   int
	ReleaseMs float64
	// Confidence of the local (tiny/exit-1) model for this item in [0,1].
	Confidence float64
	// RawBytes is the size of the raw input (frame); FeatureBytes the size
	// of the intermediate feature map shipped on an early-exit miss.
	RawBytes     int
	FeatureBytes int
	// LocalOps is the cost of the tiny/exit-1 model; ServerOps the cost of
	// the remaining layers on the analysis server; FullOps the cost of
	// running the entire model from raw input on the server.
	LocalOps  float64
	ServerOps float64
	FullOps   float64
}

// PolicyKind selects an offload strategy for the E3 sweep.
type PolicyKind int

const (
	// PolicyCloudOnly ships every raw input to the analysis server.
	PolicyCloudOnly PolicyKind = iota + 1
	// PolicyEarlyExit runs the local model on the fog node and ships only
	// low-confidence feature maps upstream — the paper's architecture.
	PolicyEarlyExit
)

// String names the policy.
func (p PolicyKind) String() string {
	switch p {
	case PolicyCloudOnly:
		return "server-only"
	case PolicyEarlyExit:
		return "early-exit"
	default:
		return "unknown"
	}
}

// Policy turns inference items into simulator jobs.
type Policy struct {
	Kind PolicyKind
	// Exit gates PolicyEarlyExit on each item's Confidence.
	Exit nn.ExitPolicy
}

// JobsFor builds the step sequences for items under the policy on the given
// deployment. Every item first incurs an edge→fog transfer of its raw input
// (cameras are attached to edge devices; models run on fog nodes and up).
func (p Policy) JobsFor(d *Deployment, items []InferenceItem) ([]Job, error) {
	jobs := make([]Job, 0, len(items))
	for _, it := range items {
		if it.EdgeIdx < 0 || it.EdgeIdx >= len(d.Edges) {
			return nil, fmt.Errorf("%w: item %s edge %d", ErrBadJob, it.ID, it.EdgeIdx)
		}
		edge := d.Edges[it.EdgeIdx]
		fogNode := d.FogOf(it.EdgeIdx)
		fogIdx := it.EdgeIdx % len(d.FogIDs)
		server := d.ServerOf(fogIdx)

		steps := []Step{
			TransferStep{From: edge, To: fogNode, Bytes: it.RawBytes},
		}
		switch p.Kind {
		case PolicyCloudOnly:
			steps = append(steps,
				TransferStep{From: fogNode, To: server, Bytes: it.RawBytes},
				ComputeStep{NodeID: server, Ops: it.FullOps},
			)
		case PolicyEarlyExit:
			steps = append(steps, ComputeStep{NodeID: fogNode, Ops: it.LocalOps})
			if !p.Exit.Exits(it.Confidence) {
				steps = append(steps,
					TransferStep{From: fogNode, To: server, Bytes: it.FeatureBytes},
					ComputeStep{NodeID: server, Ops: it.ServerOps},
				)
			}
		default:
			return nil, fmt.Errorf("%w: policy %d", ErrBadJob, p.Kind)
		}
		jobs = append(jobs, Job{ID: it.ID, ReleaseMs: it.ReleaseMs, Steps: steps})
	}
	return jobs, nil
}
