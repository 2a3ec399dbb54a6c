package fog

import (
	"fmt"
	"strconv"
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

// DeploymentConfig sizes the standard pipeline.
type DeploymentConfig struct {
	Edges          int
	FogNodes       int
	Servers        int
	EdgeOpsPerMs   float64
	FogOpsPerMs    float64
	ServerOpsPerMs float64
	CloudOpsPerMs  float64
	EdgeFogLatency float64 // ms
	FogServerLat   float64
	ServerCloudLat float64
	EdgeFogBW      float64 // bytes/ms
	FogServerBW    float64
	ServerCloudBW  float64
}

// DefaultDeploymentConfig resembles the paper's hardware: Raspberry-Pi-class
// edges, Jetson-class fog nodes, GPU analysis servers, regional links (LONI)
// between lower tiers, and Internet2 to the cloud.
func DefaultDeploymentConfig() DeploymentConfig {
	return DeploymentConfig{
		Edges: 8, FogNodes: 4, Servers: 2,
		EdgeOpsPerMs: 50, FogOpsPerMs: 400, ServerOpsPerMs: 5000, CloudOpsPerMs: 20000,
		EdgeFogLatency: 2, FogServerLat: 5, ServerCloudLat: 20,
		EdgeFogBW: 1250, FogServerBW: 12500, ServerCloudBW: 125000, // 10 Mbps / 100 Mbps / 1 Gbps
	}
}

// BuildDeployment constructs the 4-tier topology with round-robin parenting.
func BuildDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if cfg.Edges <= 0 || cfg.FogNodes <= 0 || cfg.Servers <= 0 {
		return nil, fmt.Errorf("%w: deployment needs at least one node per tier", ErrBadCapacity)
	}
	topo := NewTopology()
	d := &Deployment{Topo: topo, CloudID: "cloud-0"}
	for i := 0; i < cfg.Edges; i++ {
		id := "edge-" + strconv.Itoa(i)
		if err := topo.AddNode(id, Edge, cfg.EdgeOpsPerMs); err != nil {
			return nil, err
		}
		d.Edges = append(d.Edges, id)
	}
	for i := 0; i < cfg.FogNodes; i++ {
		id := "fog-" + strconv.Itoa(i)
		if err := topo.AddNode(id, Fog, cfg.FogOpsPerMs); err != nil {
			return nil, err
		}
		d.FogIDs = append(d.FogIDs, id)
	}
	for i := 0; i < cfg.Servers; i++ {
		id := "server-" + strconv.Itoa(i)
		if err := topo.AddNode(id, Server, cfg.ServerOpsPerMs); err != nil {
			return nil, err
		}
		d.Servers = append(d.Servers, id)
	}
	if err := topo.AddNode(d.CloudID, Cloud, cfg.CloudOpsPerMs); err != nil {
		return nil, err
	}
	for i, e := range d.Edges {
		f := d.FogIDs[i%len(d.FogIDs)]
		if err := topo.AddLink(e, f, cfg.EdgeFogLatency, cfg.EdgeFogBW); err != nil {
			return nil, err
		}
	}
	for i, f := range d.FogIDs {
		s := d.Servers[i%len(d.Servers)]
		if err := topo.AddLink(f, s, cfg.FogServerLat, cfg.FogServerBW); err != nil {
			return nil, err
		}
	}
	for _, s := range d.Servers {
		if err := topo.AddLink(s, d.CloudID, cfg.ServerCloudLat, cfg.ServerCloudBW); err != nil {
			return nil, err
		}
	}
	return d, nil
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
	// Headers carry propagated trace context into the jobs built for this
	// item, so the simulated timeline stays attached to the releasing trace.
	Headers map[string]string
}

// PolicyKind selects an offload strategy for the E3 sweep.
type PolicyKind int

const (
	// PolicyLocalOnly runs everything on the fog node and never offloads.
	PolicyLocalOnly PolicyKind = iota + 1
	// PolicyCloudOnly ships every raw input to the analysis server.
	PolicyCloudOnly
	// PolicyEarlyExit runs the local model on the fog node and ships only
	// low-confidence feature maps upstream — the paper's architecture.
	PolicyEarlyExit
)

// String names the policy.
func (p PolicyKind) String() string {
	switch p {
	case PolicyLocalOnly:
		return "local-only"
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
	Kind      PolicyKind
	Threshold float64 // early-exit confidence threshold
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
		case PolicyLocalOnly:
			steps = append(steps, ComputeStep{NodeID: fogNode, Ops: it.LocalOps})
		case PolicyCloudOnly:
			steps = append(steps,
				TransferStep{From: fogNode, To: server, Bytes: it.RawBytes},
				ComputeStep{NodeID: server, Ops: it.FullOps},
			)
		case PolicyEarlyExit:
			steps = append(steps, ComputeStep{NodeID: fogNode, Ops: it.LocalOps})
			if it.Confidence < p.Threshold {
				steps = append(steps,
					TransferStep{From: fogNode, To: server, Bytes: it.FeatureBytes},
					ComputeStep{NodeID: server, Ops: it.ServerOps},
				)
			}
		default:
			return nil, fmt.Errorf("%w: policy %d", ErrBadJob, p.Kind)
		}
		jobs = append(jobs, Job{ID: it.ID, ReleaseMs: it.ReleaseMs, Steps: steps, Headers: it.Headers})
	}
	return jobs, nil
}
