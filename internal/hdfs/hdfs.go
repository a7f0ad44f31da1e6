package hdfs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"hiway/internal/cluster"
)

// Config controls block layout.
type Config struct {
	BlockSizeMB float64 // default 128, matching Hadoop 2.x
	Replication int     // default 3
	// ExcludeNodes never receive replicas — master nodes running only the
	// NameNode/ResourceManager, as in the paper's EC2 experiments.
	ExcludeNodes []string `json:"excludeNodes,omitempty"`
}

func (c *Config) setDefaults() {
	if c.BlockSizeMB <= 0 {
		c.BlockSizeMB = 128
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
}

// Block is one replicated chunk of a file.
type Block struct {
	SizeMB   float64
	Replicas []string // node IDs holding the block
}

// File is namenode metadata for one file.
type File struct {
	Path     string
	SizeMB   float64
	External bool // lives in the external source (S3), not on cluster disks
	Blocks   []Block
}

// FS is the simulated namenode plus datanode I/O model.
type FS struct {
	cfg      Config
	cluster  *cluster.Cluster
	rng      *rand.Rand
	files    map[string]*File
	dead     map[string]bool // decommissioned/crashed nodes
	excluded map[string]bool // non-datanode (master) nodes
	epoch    uint64          // bumped whenever existing files' locality can change

	liveOwned    []string // liveNodes' result buffer while a node is dead or excluded
	placeScratch []string // reusable candidate buffer for placeReplicas
	candScratch  []string // CandidateNodes' result buffer

	// readFault, when set, is consulted before each Read; a non-nil error
	// fails that read as a transient I/O error (the chaos harness's model
	// of flaky datanode reads). The caller is expected to retry.
	readFault func(nodeID string, paths []string) error
}

// New creates an empty filesystem over the cluster. The seed makes replica
// placement deterministic for a given experiment.
func New(c *cluster.Cluster, cfg Config, seed int64) *FS {
	cfg.setDefaults()
	datanodes := c.Size() - len(cfg.ExcludeNodes)
	if datanodes < 1 {
		datanodes = 1
	}
	if cfg.Replication > datanodes {
		cfg.Replication = datanodes
	}
	fs := &FS{
		cfg:      cfg,
		cluster:  c,
		rng:      rand.New(rand.NewSource(seed)),
		files:    make(map[string]*File),
		dead:     make(map[string]bool),
		excluded: make(map[string]bool),
	}
	for _, id := range cfg.ExcludeNodes {
		fs.excluded[id] = true
	}
	return fs
}

// LocalityEpoch is a counter that advances whenever the locality of an
// already-registered file can have changed: node death, decommission or
// departure, re-replication, or overwrites. Registering a brand-new file
// does not advance it — a task only becomes ready once its inputs exist, so
// new files cannot affect queued tasks. Schedulers cache locality lookups
// and invalidate when the epoch moves.
func (fs *FS) LocalityEpoch() uint64 { return fs.epoch }

// CandidateNodes returns every node holding a live replica of any block of
// the given paths — exactly the nodes where LocalFraction can be positive.
// The data-aware scheduler uses it to bucket queued tasks by node instead
// of scoring every queued task against every freed container. The order is
// deterministic (path, block, replica order). The result is an FS-owned
// buffer, valid until the next call; duplicates are found by scanning it,
// since a task's inputs hold a handful of replicas.
func (fs *FS) CandidateNodes(paths []string) []string {
	out := fs.candScratch[:0]
	for _, p := range paths {
		f, ok := fs.files[p]
		if !ok || f.External {
			continue
		}
		for _, b := range f.Blocks {
			for _, r := range b.Replicas {
				if !fs.dead[r] && !slices.Contains(out, r) {
					out = append(out, r)
				}
			}
		}
	}
	fs.candScratch = out
	return out
}

// Stat returns file metadata.
func (fs *FS) Stat(path string) (*File, bool) {
	f, ok := fs.files[path]
	return f, ok
}

// Exists reports whether the path is known.
func (fs *FS) Exists(path string) bool {
	_, ok := fs.files[path]
	return ok
}

// Files returns all paths in sorted order.
func (fs *FS) Files() []string {
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Put creates file metadata without simulating any I/O — used to stage
// initial input data. If writerNode is non-empty the first replica of each
// block lands there; remaining replicas go to distinct random live nodes.
func (fs *FS) Put(path string, sizeMB float64, writerNode string) (*File, error) {
	f, err := fs.buildFile(path, sizeMB, writerNode)
	if err != nil {
		return nil, err
	}
	fs.register(path, f)
	return f, nil
}

// register installs file metadata, advancing the locality epoch only on
// overwrite (see LocalityEpoch).
func (fs *FS) register(path string, f *File) {
	if _, ok := fs.files[path]; ok {
		fs.epoch++
	}
	fs.files[path] = f
}

// buildFile lays out blocks and replica placement without registering the
// file, so Write can simulate exactly the traffic the final metadata shows.
func (fs *FS) buildFile(path string, sizeMB float64, writerNode string) (*File, error) {
	if sizeMB < 0 {
		return nil, fmt.Errorf("hdfs: negative size for %q", path)
	}
	if writerNode != "" && fs.cluster.Node(writerNode) == nil {
		return nil, fmt.Errorf("hdfs: unknown writer node %q", writerNode)
	}
	f := &File{Path: path, SizeMB: sizeMB}
	for off := 0.0; off < sizeMB || (sizeMB == 0 && off == 0); off += fs.cfg.BlockSizeMB {
		sz := fs.cfg.BlockSizeMB
		if off+sz > sizeMB {
			sz = sizeMB - off
		}
		f.Blocks = append(f.Blocks, Block{SizeMB: sz, Replicas: fs.placeReplicas(writerNode)})
		if sizeMB == 0 {
			break
		}
	}
	return f, nil
}

// PutExternal registers a file that lives in the external source (S3).
func (fs *FS) PutExternal(path string, sizeMB float64) *File {
	f := &File{Path: path, SizeMB: sizeMB, External: true}
	fs.register(path, f)
	return f
}

// placeReplicas picks replica nodes: first on the writer (if live), the
// rest on distinct random live nodes. The candidate buffer is reused
// across calls; the full shuffle is kept (rather than a partial draw) so
// the placement rng stream matches the original implementation exactly.
func (fs *FS) placeReplicas(writerNode string) []string {
	live := fs.liveNodes()
	reps := make([]string, 0, fs.cfg.Replication)
	if writerNode != "" && !fs.dead[writerNode] && !fs.excluded[writerNode] {
		reps = append(reps, writerNode)
	}
	cands := fs.placeScratch[:0]
	for _, id := range live {
		if len(reps) > 0 && id == reps[0] {
			continue
		}
		cands = append(cands, id)
	}
	fs.placeScratch = cands
	fs.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	for _, id := range cands {
		if len(reps) >= fs.cfg.Replication {
			break
		}
		reps = append(reps, id)
	}
	return reps
}

// liveNodes returns the IDs of nodes that can hold new replicas, in ID
// order. With every node live it is the cluster's read-only NodeIDs slice;
// otherwise it is an FS-owned buffer, valid until the next call.
func (fs *FS) liveNodes() []string {
	ids := fs.cluster.NodeIDs()
	if len(fs.dead) == 0 && len(fs.excluded) == 0 {
		return ids
	}
	out := fs.liveOwned[:0]
	for _, id := range ids {
		if !fs.dead[id] && !fs.excluded[id] {
			out = append(out, id)
		}
	}
	fs.liveOwned = out
	return out
}

// KillNode marks a node as crashed: its replicas become unreadable and it
// receives no new replicas. Files survive as long as one live replica per
// block remains — the redundancy property of §3.1.
func (fs *FS) KillNode(nodeID string) {
	fs.dead[nodeID] = true
	fs.epoch++
}

// DecommissionNode marks a node as decommissioning, mirroring HDFS graceful
// decommission: it receives no new replicas and its existing replicas no
// longer count toward the replication factor — so Rereplicate evacuates its
// blocks — but it keeps serving reads until it actually departs. Call
// Rereplicate after this to start the evacuation copies.
func (fs *FS) DecommissionNode(nodeID string) {
	fs.excluded[nodeID] = true
	fs.epoch++
}

// ForgetNode erases a departed node from the namespace: every replica it
// held is dropped from block metadata and its dead-marker is cleared. Use it
// when a node leaves for good (spot reclaim, decommission complete): a node
// re-added after ForgetNode is a blank machine, so a same-ID rejoin does not
// resurrect data that physically went away with the old instance.
func (fs *FS) ForgetNode(nodeID string) {
	for _, f := range fs.files {
		for i := range f.Blocks {
			reps := f.Blocks[i].Replicas
			kept := reps[:0]
			for _, r := range reps {
				if r != nodeID {
					kept = append(kept, r)
				}
			}
			f.Blocks[i].Replicas = kept
		}
	}
	delete(fs.dead, nodeID)
	delete(fs.excluded, nodeID)
	fs.epoch++
}

// Readable reports whether every block of the file has at least one live
// replica (external files are always readable).
func (fs *FS) Readable(path string) bool {
	f, ok := fs.files[path]
	if !ok {
		return false
	}
	if f.External {
		return true
	}
	for _, b := range f.Blocks {
		if fs.liveReplica(b, "") == "" {
			return false
		}
	}
	return true
}

// liveReplica returns a live replica node for the block, preferring the
// given node if it holds one; "" if none is live.
func (fs *FS) liveReplica(b Block, prefer string) string {
	for _, r := range b.Replicas {
		if r == prefer && !fs.dead[r] {
			return r
		}
	}
	for _, r := range b.Replicas {
		if !fs.dead[r] {
			return r
		}
	}
	return ""
}

// LocalMB returns how many of the file's megabytes have a live replica on
// the given node. External files are never local.
func (fs *FS) LocalMB(path, nodeID string) float64 {
	f, ok := fs.files[path]
	if !ok || f.External || fs.dead[nodeID] {
		return 0
	}
	var local float64
	for _, b := range f.Blocks {
		for _, r := range b.Replicas {
			if r == nodeID {
				local += b.SizeMB
				break
			}
		}
	}
	return local
}

// LocalFraction returns locally available MB / total MB over a set of
// paths from the perspective of one node — the quantity Hi-WAY's
// data-aware scheduler maximizes. Missing files contribute zero local
// bytes; an empty or zero-size input set yields 0.
func (fs *FS) LocalFraction(paths []string, nodeID string) float64 {
	var local, total float64
	for _, p := range paths {
		if f, ok := fs.files[p]; ok {
			total += f.SizeMB
			local += fs.LocalMB(p, nodeID)
		}
	}
	if total <= 0 {
		return 0
	}
	return local / total
}

func (fs *FS) replicationTarget() int {
	target := fs.cfg.Replication
	if live := len(fs.liveNodes()); target > live {
		target = live
	}
	return target
}

// Rereplicate restores the replication factor of under-replicated blocks —
// the NameNode's recovery behaviour after a datanode loss. Each missing
// replica is copied from a surviving holder to a fresh live node over the
// switch; done(copies) fires when all transfers finished (copies may be 0).
// Blocks with no live replica at all are lost and skipped.
func (fs *FS) Rereplicate(done func(copies int)) {
	target := fs.replicationTarget()
	type job struct {
		b      *Block
		src    string
		dst    string
		sizeMB float64
	}
	var jobs []job
	paths := fs.Files()
	for _, p := range paths {
		f := fs.files[p]
		if f.External {
			continue
		}
		for i := range f.Blocks {
			b := &f.Blocks[i]
			src := fs.liveReplica(*b, "")
			if src == "" {
				continue // block lost
			}
			// Decommissioning (excluded) holders still serve reads but no
			// longer count toward the factor, so their blocks evacuate.
			holders, counted := map[string]bool{}, 0
			for _, r := range b.Replicas {
				if !fs.dead[r] {
					holders[r] = true
					if !fs.excluded[r] {
						counted++
					}
				}
			}
			// Candidates: live datanodes not yet holding the block.
			var cands []string
			for _, id := range fs.liveNodes() {
				if !holders[id] {
					cands = append(cands, id)
				}
			}
			fs.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			for counted < target && len(cands) > 0 {
				dst := cands[0]
				cands = cands[1:]
				holders[dst] = true
				counted++
				jobs = append(jobs, job{b: b, src: src, dst: dst, sizeMB: b.SizeMB})
			}
		}
	}
	if len(jobs) == 0 {
		fs.cluster.Engine.Schedule(0, func() { done(0) })
		return
	}
	pending := len(jobs)
	for _, j := range jobs {
		j := j
		fs.cluster.Transfer(fs.cluster.Node(j.src), fs.cluster.Node(j.dst), j.sizeMB, func() {
			// The destination may have departed (spot reclaim, decommission)
			// while the copy was in flight; registering it as a replica
			// holder would resurrect a machine that no longer exists.
			if fs.cluster.Node(j.dst) != nil && !fs.dead[j.dst] {
				j.b.Replicas = append(j.b.Replicas, j.dst)
				fs.epoch++
			}
			pending--
			if pending == 0 {
				done(len(jobs))
			}
		})
	}
}

// SetReadFault installs (or clears, with nil) a hook consulted at the start
// of every Read. A non-nil return fails the read with that error after an
// instant, modeling transient datanode flakiness for fault injection.
func (fs *FS) SetReadFault(hook func(nodeID string, paths []string) error) {
	fs.readFault = hook
}

// Read simulates reading the file set onto the node: local bytes via the
// node's disk, remote bytes via the switch from replica holders, external
// bytes via the NIC. done(err) fires once everything has arrived.
func (fs *FS) Read(nodeID string, paths []string, done func(error)) {
	if fs.readFault != nil {
		if err := fs.readFault(nodeID, paths); err != nil {
			fs.cluster.Engine.Schedule(0, func() { done(err) })
			return
		}
	}
	node := fs.cluster.Node(nodeID)
	if node == nil {
		fs.cluster.Engine.Schedule(0, func() { done(fmt.Errorf("hdfs: unknown node %q", nodeID)) })
		return
	}
	// Gather per-source remote bytes so each (src→dst) pair is one flow.
	remote := make(map[string]float64)
	var localMB, externalMB float64
	var firstErr error
	for _, p := range paths {
		f, ok := fs.files[p]
		if !ok {
			firstErr = fmt.Errorf("hdfs: file not found: %s", p)
			break
		}
		if f.External {
			externalMB += f.SizeMB
			continue
		}
		for _, b := range f.Blocks {
			src := fs.liveReplica(b, nodeID)
			switch src {
			case "":
				firstErr = fmt.Errorf("hdfs: no live replica for a block of %s", p)
			case nodeID:
				localMB += b.SizeMB
			default:
				remote[src] += b.SizeMB
			}
		}
		if firstErr != nil {
			break
		}
	}
	if firstErr != nil {
		err := firstErr
		fs.cluster.Engine.Schedule(0, func() { done(err) })
		return
	}
	pending := 0
	finish := func() {
		pending--
		if pending == 0 {
			done(nil)
		}
	}
	if localMB > 0 {
		pending++
	}
	if externalMB > 0 {
		pending++
	}
	pending += len(remote)
	if pending == 0 {
		fs.cluster.Engine.Schedule(0, func() { done(nil) })
		return
	}
	if localMB > 0 {
		fs.cluster.ReadLocal(node, localMB, finish)
	}
	if externalMB > 0 {
		fs.cluster.FetchExternal(node, externalMB, finish)
	}
	// Deterministic iteration order over sources.
	srcs := make([]string, 0, len(remote))
	for s := range remote {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		fs.cluster.Transfer(fs.cluster.Node(s), node, remote[s], finish)
	}
}

// Write simulates creating a file of sizeMB from the node: a local disk
// write plus pipelined replication of (replication-1) copies through the
// switch. Metadata is registered when the write completes.
func (fs *FS) Write(nodeID, path string, sizeMB float64, done func(error)) {
	node := fs.cluster.Node(nodeID)
	if node == nil {
		fs.cluster.Engine.Schedule(0, func() { done(fmt.Errorf("hdfs: unknown node %q", nodeID)) })
		return
	}
	if sizeMB < 0 {
		fs.cluster.Engine.Schedule(0, func() { done(fmt.Errorf("hdfs: negative size for %q", path)) })
		return
	}
	// Lay the file out now so the simulated replication traffic matches
	// the metadata registered on completion.
	f, err := fs.buildFile(path, sizeMB, nodeID)
	if err != nil {
		fs.cluster.Engine.Schedule(0, func() { done(err) })
		return
	}
	register := func() {
		fs.register(path, f)
		done(nil)
	}
	if sizeMB == 0 {
		fs.cluster.Engine.Schedule(0, register)
		return
	}
	// Sum per-peer replica bytes over all blocks.
	perPeer := make(map[string]float64)
	for _, b := range f.Blocks {
		for _, r := range b.Replicas {
			if r != nodeID {
				perPeer[r] += b.SizeMB
			}
		}
	}
	pending := 1 + len(perPeer)
	finish := func() {
		pending--
		if pending == 0 {
			register()
		}
	}
	fs.cluster.WriteLocal(node, sizeMB, finish)
	peers := make([]string, 0, len(perPeer))
	for p := range perPeer {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		fs.cluster.Transfer(node, fs.cluster.Node(p), perPeer[p], finish)
	}
}
