// Package yarn simulates a YARN-style cluster resource manager: node
// managers advertise capacity, applications request containers, and one
// FIFO queue grants them first come, first served, each on the best-fitting
// node. A head request that fits no node holds back the requests behind it
// until a release frees room. The dataproc engine (the Spark analog)
// acquires containers from this package for its task slots, mirroring the
// paper's "Apache Hadoop YARN ... as the resource scheduler".
package yarn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Sentinel errors.
var (
	ErrNodeExists    = errors.New("yarn: node already registered")
	ErrNoApplication = errors.New("yarn: application not found")
	ErrNoContainer   = errors.New("yarn: container not found")
	ErrOverCapacity  = errors.New("yarn: request exceeds the largest node's cores or memory")
)

// Resources describes cores and memory.
type Resources struct {
	Cores int
	MemMB int
}

// fits reports whether r fits into free.
func (r Resources) fits(free Resources) bool {
	return r.Cores <= free.Cores && r.MemMB <= free.MemMB
}

type node struct {
	id    string
	total Resources
	used  Resources
}

func (n *node) free() Resources {
	return Resources{Cores: n.total.Cores - n.used.Cores, MemMB: n.total.MemMB - n.used.MemMB}
}

// ApplicationID identifies a submitted application.
type ApplicationID int64

// ContainerID identifies a granted container.
type ContainerID int64

// Container is a granted resource lease on a node.
type Container struct {
	ID     ContainerID
	NodeID string
	Res    Resources
}

type pendingRequest struct {
	res Resources
	ch  chan<- ContainerID
}

// ResourceManager is the cluster scheduler. Safe for concurrent use.
type ResourceManager struct {
	mu         sync.Mutex
	nodes      map[string]*node
	apps       map[ApplicationID]string // id → name
	pending    []pendingRequest         // the FIFO queue, head first
	containers map[ContainerID]*Container
	nextApp    ApplicationID
	nextCont   ContainerID
}

// NewResourceManager creates a manager with no nodes and an empty queue.
func NewResourceManager() *ResourceManager {
	return &ResourceManager{
		nodes:      make(map[string]*node),
		apps:       make(map[ApplicationID]string),
		containers: make(map[ContainerID]*Container),
	}
}

// AddNode registers a node manager with its capacity.
func (rm *ResourceManager) AddNode(id string, res Resources) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if _, ok := rm.nodes[id]; ok {
		return fmt.Errorf("%w: %s", ErrNodeExists, id)
	}
	rm.nodes[id] = &node{id: id, total: res}
	return nil
}

// TotalCapacity sums capacity across nodes.
func (rm *ResourceManager) TotalCapacity() Resources {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	var t Resources
	for _, n := range rm.nodes {
		t.Cores += n.total.Cores
		t.MemMB += n.total.MemMB
	}
	return t
}

// Submit registers an application and returns its id.
func (rm *ResourceManager) Submit(name string) ApplicationID {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	rm.nextApp++
	rm.apps[rm.nextApp] = name
	return rm.nextApp
}

// Request asks for one container. If resources are free it is granted
// immediately; otherwise it is queued and granted by a later Release. The
// returned channel receives the container id exactly once.
func (rm *ResourceManager) Request(app ApplicationID, res Resources) (<-chan ContainerID, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if _, ok := rm.apps[app]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoApplication, app)
	}
	if res.Cores > maxNodeCores(rm.nodes) || res.MemMB > maxNodeMem(rm.nodes) {
		return nil, fmt.Errorf("%w: %+v", ErrOverCapacity, res)
	}
	ch := make(chan ContainerID, 1)
	rm.pending = append(rm.pending, pendingRequest{res: res, ch: ch})
	rm.scheduleLocked()
	return ch, nil
}

func maxNodeCores(nodes map[string]*node) int {
	m := 0
	for _, n := range nodes {
		if n.total.Cores > m {
			m = n.total.Cores
		}
	}
	return m
}

func maxNodeMem(nodes map[string]*node) int {
	m := 0
	for _, n := range nodes {
		if n.total.MemMB > m {
			m = n.total.MemMB
		}
	}
	return m
}

// scheduleLocked grants the head of the queue while some node fits it, and
// stops at the first head that fits none.
func (rm *ResourceManager) scheduleLocked() {
	for len(rm.pending) > 0 {
		n := rm.findNodeFor(rm.pending[0].res)
		if n == nil {
			return
		}
		rm.grantLocked(n)
	}
}

func (rm *ResourceManager) findNodeFor(res Resources) *node {
	// Best-fit: fewest free cores that still fit, for packing.
	var best *node
	ids := make([]string, 0, len(rm.nodes))
	for id := range rm.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := rm.nodes[id]
		if res.fits(n.free()) {
			if best == nil || n.free().Cores < best.free().Cores {
				best = n
			}
		}
	}
	return best
}

// grantLocked places the head request on n.
func (rm *ResourceManager) grantLocked(n *node) {
	req := rm.pending[0]
	rm.pending = rm.pending[1:]
	rm.nextCont++
	c := &Container{ID: rm.nextCont, NodeID: n.id, Res: req.res}
	rm.containers[c.ID] = c
	n.used.Cores += req.res.Cores
	n.used.MemMB += req.res.MemMB
	req.ch <- c.ID
}

// Release frees a container and triggers scheduling of pending requests.
func (rm *ResourceManager) Release(id ContainerID) error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	c, ok := rm.containers[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoContainer, id)
	}
	delete(rm.containers, id)
	if n := rm.nodes[c.NodeID]; n != nil {
		n.used.Cores -= c.Res.Cores
		n.used.MemMB -= c.Res.MemMB
	}
	rm.scheduleLocked()
	return nil
}

// Running returns the number of live containers.
func (rm *ResourceManager) Running() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return len(rm.containers)
}

// Pending returns the number of queued (ungranted) requests.
func (rm *ResourceManager) Pending() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return len(rm.pending)
}
