// Package hdfs simulates a Hadoop-style distributed file system: a namenode
// tracking file→block mappings, datanodes storing fixed-size block replicas,
// and the replication machinery that keeps data available when datanodes
// fail. It is the long-term storage substrate of the paper's software layer
// ("HDFS provides reliability and availability by replicating data blocks
// across multiple machines so, even though some machines may fail, we can
// still access the data").
package hdfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/profile"
)

// Sentinel errors.
var (
	ErrNotFound       = errors.New("hdfs: file not found")
	ErrExists         = errors.New("hdfs: file already exists")
	ErrNoDataNode     = errors.New("hdfs: datanode not found")
	ErrNotEnoughNodes = errors.New("hdfs: not enough live datanodes for replication")
	ErrDataLoss       = errors.New("hdfs: all replicas lost")
	ErrNodeExists     = errors.New("hdfs: datanode already registered")
)

// Config sets cluster-wide parameters.
type Config struct {
	BlockSize   int // bytes per block
	Replication int // replicas per block
}

// DefaultConfig mirrors HDFS defaults scaled down for simulation.
func DefaultConfig() Config { return Config{BlockSize: 4096, Replication: 3} }

// BlockID identifies a block cluster-wide.
type BlockID int64

type dataNode struct {
	id     string
	alive  bool
	blocks map[BlockID][]byte
	bytes  int // Σ len over blocks, kept by put and drop
}

func (n *dataNode) put(bid BlockID, data []byte) {
	n.blocks[bid] = data
	n.bytes += len(data)
}

func (n *dataNode) drop(bid BlockID) {
	n.bytes -= len(n.blocks[bid])
	delete(n.blocks, bid)
}

type blockMeta struct {
	id       BlockID
	length   int
	replicas map[string]struct{} // datanode ids
}

type fileMeta struct {
	path   string
	blocks []BlockID
	size   int
}

// FaultHook lets chaos experiments inject datanode I/O failures: it is
// consulted once per replica operation ("read", "write", "replicate") with
// the target node id; a non-nil error makes that replica operation fail.
type FaultHook func(op, node string) error

// Cluster is the simulated HDFS deployment. All methods are safe for
// concurrent use.
type Cluster struct {
	mu        sync.Mutex
	cfg       Config
	rng       *rand.Rand
	nextBlock BlockID
	nodes     map[string]*dataNode
	files     map[string]*fileMeta
	blocks    map[BlockID]*blockMeta
	hook      FaultHook
	counters  Counters

	// Blocks in c.blocks with fewer than cfg.Replication replicas, and with
	// none. register, deregister and dropBlock are the only places a
	// registered block's replica set changes, and they keep both counts, so
	// Status and UnderReplicated never walk the block map.
	under, lost int

	// Continuous-profiling regions, resolved once by SetProfiler.
	profWrite *profile.Region
	profRead  *profile.Region
}

// Counters accumulates block-level I/O activity across the cluster's
// lifetime, for exposition as telemetry counters.
type Counters struct {
	BlockReads      int64 // block replicas successfully read
	BlockWrites     int64 // blocks successfully placed at full replication
	ReplicasCreated int64 // replicas created by re-replication healing
}

// NewCluster creates an empty cluster. rng drives replica placement
// tie-breaking and must not be nil.
func NewCluster(cfg Config, rng *rand.Rand) *Cluster {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultConfig().BlockSize
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultConfig().Replication
	}
	return &Cluster{
		cfg:    cfg,
		rng:    rng,
		nodes:  make(map[string]*dataNode),
		files:  make(map[string]*fileMeta),
		blocks: make(map[BlockID]*blockMeta),
	}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// SetFaultHook installs (or clears, with nil) the datanode I/O fault hook.
func (c *Cluster) SetFaultHook(h FaultHook) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hook = h
}

// SetProfiler attributes block writes ("hdfs/write") and reads
// ("hdfs/read") to continuous-profiling regions. nil detaches.
func (c *Cluster) SetProfiler(p *profile.Profiler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p == nil {
		c.profWrite, c.profRead = nil, nil
		return
	}
	c.profWrite = p.Region("hdfs/write")
	c.profRead = p.Region("hdfs/read")
}

// faultLocked consults the hook; callers hold c.mu.
func (c *Cluster) faultLocked(op, node string) error {
	if c.hook == nil {
		return nil
	}
	return c.hook(op, node)
}

// register records node id as a holder of a block in c.blocks.
func (c *Cluster) register(meta *blockMeta, id string) {
	if len(meta.replicas) == 0 {
		c.lost--
	}
	meta.replicas[id] = struct{}{}
	if len(meta.replicas) == c.cfg.Replication {
		c.under--
	}
}

// deregister removes node id, if it is one, from the holders of a block in
// c.blocks.
func (c *Cluster) deregister(meta *blockMeta, id string) {
	if _, has := meta.replicas[id]; !has {
		return
	}
	if len(meta.replicas) == c.cfg.Replication {
		c.under++
	}
	delete(meta.replicas, id)
	if len(meta.replicas) == 0 {
		c.lost++
	}
}

// AddDataNode registers a datanode.
func (c *Cluster) AddDataNode(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[id]; ok {
		return fmt.Errorf("%w: %s", ErrNodeExists, id)
	}
	c.nodes[id] = &dataNode{id: id, alive: true, blocks: make(map[BlockID][]byte)}
	return nil
}

// liveNodes returns live datanodes sorted by ascending block count with
// random tie-breaking, which is the placement order.
func (c *Cluster) liveNodes() []*dataNode {
	var ns []*dataNode
	for _, n := range c.nodes {
		if n.alive {
			ns = append(ns, n)
		}
	}
	// Canonical order before the seeded shuffle: feeding map-iteration
	// order into the shuffle would make placement (and which node's error
	// surfaces on a failed write) differ across runs of the same seed.
	sort.Slice(ns, func(i, j int) bool { return ns[i].id < ns[j].id })
	c.rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
	sort.SliceStable(ns, func(i, j int) bool { return len(ns[i].blocks) < len(ns[j].blocks) })
	return ns
}

// Write creates a file from data, splitting it into blocks and placing
// Replication replicas of each block on distinct live datanodes.
func (c *Cluster) Write(path string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := c.profWrite.Start()
	defer sp.End()
	if _, ok := c.files[path]; ok {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	nBlocks := (len(data) + c.cfg.BlockSize - 1) / c.cfg.BlockSize
	if nBlocks == 0 {
		nBlocks = 1 // empty file still gets one empty block for uniformity
	}
	f := &fileMeta{path: path, size: len(data)}
	for i := 0; i < nBlocks; i++ {
		lo := i * c.cfg.BlockSize
		hi := lo + c.cfg.BlockSize
		if hi > len(data) {
			hi = len(data)
		}
		var chunk []byte
		if lo < len(data) {
			chunk = data[lo:hi]
		}
		bid, err := c.placeBlock(chunk)
		if err != nil {
			// Roll back already-placed blocks of this file.
			for _, b := range f.blocks {
				c.dropBlock(b)
			}
			return fmt.Errorf("write %s block %d: %w", path, i, err)
		}
		f.blocks = append(f.blocks, bid)
	}
	c.files[path] = f
	return nil
}

func (c *Cluster) placeBlock(chunk []byte) (BlockID, error) {
	targets := c.liveNodes()
	if len(targets) < c.cfg.Replication {
		return 0, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughNodes, len(targets), c.cfg.Replication)
	}
	bid := c.nextBlock
	c.nextBlock++
	meta := &blockMeta{id: bid, length: len(chunk), replicas: make(map[string]struct{}, c.cfg.Replication)}
	var lastFault error
	for _, n := range targets {
		if len(meta.replicas) >= c.cfg.Replication {
			break
		}
		// A faulted replica write skips the node and tries the next
		// candidate, as the real write pipeline re-forms around a bad
		// datanode.
		if err := c.faultLocked("write", n.id); err != nil {
			lastFault = err
			continue
		}
		buf := make([]byte, len(chunk))
		copy(buf, chunk)
		n.put(bid, buf)
		meta.replicas[n.id] = struct{}{}
	}
	if len(meta.replicas) < c.cfg.Replication {
		// Undo partial placements; the caller retries the whole block.
		for nid := range meta.replicas {
			c.nodes[nid].drop(bid)
		}
		if lastFault != nil {
			return 0, fmt.Errorf("%w: %d/%d replicas placed (%v)", ErrNotEnoughNodes, len(meta.replicas), c.cfg.Replication, lastFault)
		}
		return 0, fmt.Errorf("%w: %d/%d replicas placed", ErrNotEnoughNodes, len(meta.replicas), c.cfg.Replication)
	}
	// A block enters the map at full replication: neither tally moves.
	c.blocks[bid] = meta
	c.counters.BlockWrites++
	return bid, nil
}

func (c *Cluster) dropBlock(bid BlockID) {
	meta, ok := c.blocks[bid]
	if !ok {
		return
	}
	for nid := range meta.replicas {
		if n, ok := c.nodes[nid]; ok {
			n.drop(bid)
		}
	}
	if len(meta.replicas) < c.cfg.Replication {
		c.under--
	}
	if len(meta.replicas) == 0 {
		c.lost--
	}
	delete(c.blocks, bid)
}

// Read reassembles a file from any live replica of each block.
func (c *Cluster) Read(path string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := c.profRead.Start()
	defer sp.End()
	f, ok := c.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([]byte, 0, f.size)
	for i, bid := range f.blocks {
		meta := c.blocks[bid]
		var chunk []byte
		found := false
		var lastFault error
		for nid := range meta.replicas {
			n := c.nodes[nid]
			if n == nil || !n.alive {
				continue
			}
			// A faulted replica read fails over to the next replica.
			if err := c.faultLocked("read", nid); err != nil {
				lastFault = err
				continue
			}
			chunk = n.blocks[bid]
			found = true
			c.counters.BlockReads++
			break
		}
		if !found {
			if lastFault != nil {
				// Replicas exist but every read faulted: transient, the
				// caller's retry policy re-reads.
				return nil, fmt.Errorf("read %s block %d: %w", path, i, lastFault)
			}
			return nil, fmt.Errorf("%w: %s block %d", ErrDataLoss, path, i)
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// Delete removes a file and all its block replicas.
func (c *Cluster) Delete(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	for _, bid := range f.blocks {
		c.dropBlock(bid)
	}
	delete(c.files, path)
	return nil
}

// Exists reports whether the path is a file in the namespace.
func (c *Cluster) Exists(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.files[path]
	return ok
}

// List returns all file paths, sorted.
func (c *Cluster) List() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.files))
	for p := range c.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// FileInfo describes one file.
type FileInfo struct {
	Path   string
	Size   int
	Blocks int
}

// Stat returns file metadata.
func (c *Cluster) Stat(path string) (FileInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return FileInfo{Path: path, Size: f.size, Blocks: len(f.blocks)}, nil
}

// FailDataNode marks a node dead. Its replicas become unreachable (and are
// deregistered from every block) until either ReplicateMissing restores
// them elsewhere or ReviveDataNode brings the node — data intact — back.
func (c *Cluster) FailDataNode(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDataNode, id)
	}
	n.alive = false
	for bid := range n.blocks {
		// A copy of a block whose file was deleted while the node was down
		// (the node failing twice with no revive between) has no entry.
		if meta, ok := c.blocks[bid]; ok {
			c.deregister(meta, id)
		}
	}
	// The node keeps its block data: a failed machine is unreachable, not
	// wiped. ReviveDataNode reconciles the surviving copies via a block
	// report.
	return nil
}

// ReviveDataNode brings a failed node back and processes its block report:
// stale copies of deleted blocks are discarded, copies of blocks that were
// already re-replicated back to full strength elsewhere are discarded (a
// replica must never be double-counted), and copies of still
// under-replicated blocks are re-registered. It returns how many replicas
// the report restored.
func (c *Cluster) ReviveDataNode(id string) (restored int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoDataNode, id)
	}
	n.alive = true
	for bid := range n.blocks {
		meta, live := c.blocks[bid]
		if !live {
			// The file was deleted while the node was down.
			n.drop(bid)
			continue
		}
		if _, has := meta.replicas[id]; has {
			continue
		}
		if len(meta.replicas) >= c.cfg.Replication {
			// ReplicateMissing already healed this block elsewhere; the
			// revived copy is redundant and dropped.
			n.drop(bid)
			continue
		}
		c.register(meta, id)
		restored++
	}
	return restored, nil
}

// UnderReplicated returns the number of blocks with fewer live replicas than
// the configured replication factor, and how many have zero live replicas.
func (c *Cluster) UnderReplicated() (under, lost int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.under, c.lost
}

// ReplicateMissing copies under-replicated blocks to additional live
// datanodes until every block reaches the replication factor (or no more
// targets exist). It returns the number of new replicas created.
func (c *Cluster) ReplicateMissing() (created int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []BlockID
	for bid := range c.blocks {
		ids = append(ids, bid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, bid := range ids {
		meta := c.blocks[bid]
		if len(meta.replicas) == 0 {
			return created, fmt.Errorf("%w: block %d", ErrDataLoss, bid)
		}
		for len(meta.replicas) < c.cfg.Replication {
			// Source: any live replica holder.
			var src *dataNode
			for nid := range meta.replicas {
				if n := c.nodes[nid]; n != nil && n.alive {
					src = n
					break
				}
			}
			if src == nil {
				return created, fmt.Errorf("%w: block %d has no live source", ErrDataLoss, bid)
			}
			// Target: least-loaded live node without this block whose
			// replica write does not fault.
			var target *dataNode
			for _, n := range c.liveNodes() {
				if _, has := meta.replicas[n.id]; has {
					continue
				}
				if c.faultLocked("replicate", n.id) != nil {
					continue
				}
				target = n
				break
			}
			if target == nil {
				// Cluster too small (or every target faulted) — stop trying
				// for this block; it stays under-replicated but available,
				// and the supervisor's next pass retries.
				break
			}
			buf := make([]byte, len(src.blocks[bid]))
			copy(buf, src.blocks[bid])
			target.put(bid, buf)
			c.register(meta, target.id)
			created++
			c.counters.ReplicasCreated++
		}
	}
	return created, nil
}

// Counters returns a snapshot of cumulative block I/O counters.
func (c *Cluster) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Report summarizes cluster state.
type Report struct {
	Files           int
	Blocks          int
	LiveNodes       int
	DeadNodes       int
	UnderReplicated int
	LostBlocks      int
	StoredBytes     int
}

// Status returns a consistent snapshot of cluster health. It costs one step
// per datanode, whatever the cluster stores.
func (c *Cluster) Status() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{Files: len(c.files), Blocks: len(c.blocks), UnderReplicated: c.under, LostBlocks: c.lost}
	for _, n := range c.nodes {
		if n.alive {
			r.LiveNodes++
			r.StoredBytes += n.bytes
		} else {
			// Unreachable bytes on dead nodes don't count as stored.
			r.DeadNodes++
		}
	}
	return r
}
