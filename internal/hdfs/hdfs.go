package hdfs

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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
	// NameNode/ResourceManager, as in the paper's EC2 experiments. The
	// names are resolved once, against the members New finds.
	ExcludeNodes []string `json:"excludeNodes,omitempty"`
}

// MaxBlocksPerFile bounds a file's block layout, so that a huge size or a
// tiny block size is refused instead of running the process out of memory
// in block metadata. The largest file the repository's examples, workloads
// and experiments stage is /ref/hg38.idx, 3,500 MB in 128 MB blocks: 28
// blocks.
const MaxBlocksPerFile = 1 << 16

// CheckSize refuses a file of sizeMB that c would lay out in more than
// MaxBlocksPerFile blocks, or whose size is negative or not a number.
func (c Config) CheckSize(sizeMB float64) error {
	c.setDefaults()
	if sizeMB < 0 {
		return errors.New("negative size")
	}
	if blocks := math.Ceil(sizeMB / c.BlockSizeMB); !(blocks <= MaxBlocksPerFile) {
		return fmt.Errorf("%g MB is over %d blocks of %g MB", sizeMB, MaxBlocksPerFile, c.BlockSizeMB)
	}
	return nil
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
	Replicas []int32 // slots of the nodes holding the block (cluster.Node.Slot)
}

// File is namenode metadata for one file.
type File struct {
	SizeMB   float64
	External bool // lives in the external source (S3), not on cluster disks
	Blocks   []Block
}

// Marks a node's slot can carry in FS.marks.
const (
	dead     uint8 = 1 << iota // crashed: replicas unreadable, no new replicas
	excluded                   // master or decommissioning: no new replicas
)

// FS is the simulated namenode plus datanode I/O model. Below its
// name-keyed methods (Put, LocalFraction, CandidateNodes, the membership
// calls) a node is its cluster slot: replica lists, marks and flows hold
// slots, and a name is looked up once per call at most.
type FS struct {
	cfg     Config
	cluster *cluster.Cluster
	rng     *rand.Rand
	files   map[string]*File
	marks   []uint8 // by slot: dead | excluded; a slot past the end has none
	marked  int     // slots with a mark
	epoch   uint64  // bumped whenever existing files' locality can change

	liveOwned   []int32  // liveNodes' result buffer while a slot is marked
	perm        []int32  // draw's permutation buffer
	candSlots   []int32  // CandidateNodes' slots, for deduplication
	candScratch []string // CandidateNodes' result buffer

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
		cfg:     cfg,
		cluster: c,
		rng:     rand.New(rand.NewSource(seed)),
		files:   make(map[string]*File),
	}
	for _, id := range cfg.ExcludeNodes {
		if n := c.Node(id); n != nil {
			fs.mark(n.Slot, excluded)
		}
	}
	return fs
}

// has reports whether the slot carries the mark.
func (fs *FS) has(slot int32, m uint8) bool {
	return int(slot) < len(fs.marks) && fs.marks[slot]&m != 0
}

// mark sets a mark on the slot.
func (fs *FS) mark(slot int32, m uint8) {
	for int(slot) >= len(fs.marks) {
		fs.marks = append(fs.marks, 0)
	}
	if fs.marks[slot] == 0 {
		fs.marked++
	}
	fs.marks[slot] |= m
}

// holder returns the node in a replica's slot when it can serve reads: a
// member not marked dead. Otherwise nil.
func (fs *FS) holder(slot int32) *cluster.Node {
	if fs.has(slot, dead) {
		return nil
	}
	return fs.cluster.NodeAt(slot)
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
// buffer, valid until the next call; duplicates are found by scanning the
// slots already taken, since a task's inputs hold a handful of replicas.
func (fs *FS) CandidateNodes(paths []string) []string {
	seen, out := fs.candSlots[:0], fs.candScratch[:0]
	for _, p := range paths {
		f, ok := fs.files[p]
		if !ok || f.External {
			continue
		}
		for _, b := range f.Blocks {
			for _, r := range b.Replicas {
				if slices.Contains(seen, r) {
					continue
				}
				if n := fs.holder(r); n != nil {
					seen = append(seen, r)
					out = append(out, n.ID)
				}
			}
		}
	}
	fs.candSlots, fs.candScratch = seen, out
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
	writer := int32(-1)
	if writerNode != "" {
		n := fs.cluster.Node(writerNode)
		if n == nil {
			return nil, fmt.Errorf("hdfs: unknown writer node %q", writerNode)
		}
		writer = n.Slot
	}
	f, err := fs.buildFile(path, sizeMB, writer)
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
// writer is the writing member's slot, or -1.
func (fs *FS) buildFile(path string, sizeMB float64, writer int32) (*File, error) {
	if err := fs.cfg.CheckSize(sizeMB); err != nil {
		return nil, fmt.Errorf("hdfs: %v for %q", err, path)
	}
	f := &File{SizeMB: sizeMB}
	for off := 0.0; off < sizeMB || (sizeMB == 0 && off == 0); off += fs.cfg.BlockSizeMB {
		sz := fs.cfg.BlockSizeMB
		if off+sz > sizeMB {
			sz = sizeMB - off
		}
		f.Blocks = append(f.Blocks, Block{SizeMB: sz, Replicas: fs.placeReplicas(writer)})
		if sizeMB == 0 {
			break
		}
	}
	return f, nil
}

// PutExternal registers a file that lives in the external source (S3).
func (fs *FS) PutExternal(path string, sizeMB float64) *File {
	f := &File{SizeMB: sizeMB, External: true}
	fs.register(path, f)
	return f
}

// placeReplicas picks replica slots: first the writer's (a member's slot,
// or -1) if it may hold one, the rest on distinct random live nodes. The
// candidates are the live nodes other than the writer, in ID order; they
// are never copied out: a drawn candidate index at or past the writer's
// position in live is shifted by one. draw consumes the rng exactly as a
// full shuffle of the candidates would, so placements depend only on the
// seed and the membership history.
func (fs *FS) placeReplicas(writer int32) []int32 {
	live := fs.liveNodes()
	reps := make([]int32, 0, fs.cfg.Replication)
	skip, n := len(live), len(live) // skip: the writer's index in live, if it is there
	if writer >= 0 && !fs.has(writer, dead|excluded) {
		reps = append(reps, writer)
		at := fs.cluster.Index(writer)
		if i, ok := slices.BinarySearchFunc(live, at, func(s, at int32) int { return cmp.Compare(fs.cluster.Index(s), at) }); ok {
			skip, n = i, n-1
		}
	}
	for _, k := range fs.draw(n, min(n, fs.cfg.Replication-len(reps))) {
		if int(k) >= skip {
			k++
		}
		reps = append(reps, live[k])
	}
	return reps
}

// draw returns the first k positions of the permutation of 0..n-1 that
// fs.rng.Shuffle(n, swap) would produce, and consumes exactly the rng
// values Shuffle consumes: Fisher–Yates from n-1 down, each j drawn by
// math/rand's int31n (Lemire's multiply-and-reject on one Uint32). Only
// int32 indices move. The result is an FS-owned buffer, valid until the
// next call.
func (fs *FS) draw(n, k int) []int32 {
	perm := fs.perm[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, int32(i))
	}
	for i := n - 1; i > 0; i-- {
		bound := uint32(i + 1)
		prod := uint64(fs.rng.Uint32()) * uint64(bound)
		if low := uint32(prod); low < bound {
			for thresh := -bound % bound; low < thresh; low = uint32(prod) {
				prod = uint64(fs.rng.Uint32()) * uint64(bound)
			}
		}
		j := prod >> 32
		perm[i], perm[j] = perm[j], perm[i]
	}
	fs.perm = perm
	return perm[:k]
}

// liveNodes returns the slots of nodes that can hold new replicas, in ID
// order. With no slot marked it is the cluster's read-only Slots slice;
// otherwise it is an FS-owned buffer, valid until the next call.
func (fs *FS) liveNodes() []int32 {
	slots := fs.cluster.Slots()
	if fs.marked == 0 {
		return slots
	}
	out := fs.liveOwned[:0]
	for _, s := range slots {
		if !fs.has(s, dead|excluded) {
			out = append(out, s)
		}
	}
	fs.liveOwned = out
	return out
}

// markNode sets a mark on a member's slot; a name that is no member has
// no slot and nothing to mark. The locality epoch advances either way.
func (fs *FS) markNode(nodeID string, m uint8) {
	if n := fs.cluster.Node(nodeID); n != nil {
		fs.mark(n.Slot, m)
	}
	fs.epoch++
}

// KillNode marks a node as crashed: its replicas become unreadable and it
// receives no new replicas. Files survive as long as one live replica per
// block remains — the redundancy property of §3.1. The mark stays with the
// node's slot: a killed node that stays a member stays dead.
func (fs *FS) KillNode(nodeID string) { fs.markNode(nodeID, dead) }

// DecommissionNode marks a node as decommissioning, mirroring HDFS graceful
// decommission: it receives no new replicas and its existing replicas no
// longer count toward the replication factor — so Rereplicate evacuates its
// blocks — but it keeps serving reads until it actually departs. Call
// Rereplicate after this to start the evacuation copies.
func (fs *FS) DecommissionNode(nodeID string) { fs.markNode(nodeID, excluded) }

// ForgetNode erases a departing node from the namespace: every replica it
// held is dropped from block metadata and its marks are cleared. Use it
// when a node leaves for good (spot reclaim, decommission complete), before
// the cluster removes it. A node that rejoins under the same ID is a new
// member with a new slot, so it never holds the old instance's data.
func (fs *FS) ForgetNode(nodeID string) {
	fs.epoch++
	n := fs.cluster.Node(nodeID)
	if n == nil {
		return
	}
	for _, f := range fs.files {
		for i := range f.Blocks {
			f.Blocks[i].Replicas = slices.DeleteFunc(f.Blocks[i].Replicas, func(r int32) bool { return r == n.Slot })
		}
	}
	if fs.has(n.Slot, dead|excluded) {
		fs.marks[n.Slot] = 0
		fs.marked--
	}
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
		if fs.liveReplica(b, -1) == nil {
			return false
		}
	}
	return true
}

// liveReplica returns a node that can serve the block, preferring the one
// in slot prefer if it holds a replica; nil if none can.
func (fs *FS) liveReplica(b Block, prefer int32) *cluster.Node {
	if slices.Contains(b.Replicas, prefer) {
		if n := fs.holder(prefer); n != nil {
			return n
		}
	}
	for _, r := range b.Replicas {
		if n := fs.holder(r); n != nil {
			return n
		}
	}
	return nil
}

// LocalFraction returns locally available MB / total MB over a set of
// paths from the perspective of one node — the quantity Hi-WAY's
// data-aware scheduler maximizes. A file's local MB are the sizes of its
// blocks with a replica on the node; external files and dead nodes hold
// none, and so do names that are no member. Missing files contribute zero
// local bytes; an empty or zero-size input set yields 0.
func (fs *FS) LocalFraction(paths []string, nodeID string) float64 {
	var local, total float64
	slot, none := int32(-1), true
	if n := fs.cluster.Node(nodeID); n != nil {
		slot, none = n.Slot, fs.has(n.Slot, dead)
	}
	for _, p := range paths {
		f, ok := fs.files[p]
		if !ok {
			continue
		}
		total += f.SizeMB
		if f.External || none {
			continue
		}
		var fileLocal float64 // added to local whole, which fixes the scores' rounding
		for _, b := range f.Blocks {
			if slices.Contains(b.Replicas, slot) {
				fileLocal += b.SizeMB
			}
		}
		local += fileLocal
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
		src    *cluster.Node
		dst    int32
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
			src := fs.liveReplica(*b, -1)
			if src == nil {
				continue // block lost
			}
			// Decommissioning (excluded) holders still serve reads but no
			// longer count toward the factor, so their blocks evacuate.
			counted := 0
			for _, r := range b.Replicas {
				if !fs.has(r, dead|excluded) {
					counted++
				}
			}
			// Candidates: live datanodes not yet holding the block.
			var cands []int32
			for _, s := range fs.liveNodes() {
				if !slices.Contains(b.Replicas, s) {
					cands = append(cands, s)
				}
			}
			for _, k := range fs.draw(len(cands), min(len(cands), max(target-counted, 0))) {
				jobs = append(jobs, job{b: b, src: src, dst: cands[k], sizeMB: b.SizeMB})
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
		fs.cluster.Transfer(j.src, fs.cluster.NodeAt(j.dst), j.sizeMB, func() {
			// The destination may have departed (spot reclaim, decommission)
			// while the copy was in flight; registering it as a replica
			// holder would resurrect a machine that no longer exists.
			if fs.holder(j.dst) != nil {
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
// bytes via the NIC. done(err) fires once everything has arrived. A nil
// node (a container on a node the cluster does not hold) fails the read.
func (fs *FS) Read(node *cluster.Node, paths []string, done func(error)) {
	if node == nil {
		fs.cluster.Engine.Schedule(0, func() { done(errors.New("hdfs: read onto a node that is not a member")) })
		return
	}
	if fs.readFault != nil {
		if err := fs.readFault(node.ID, paths); err != nil {
			fs.cluster.Engine.Schedule(0, func() { done(err) })
			return
		}
	}
	var buf [8]peerMB
	remote, localMB, externalMB, err := fs.readFlows(buf[:0], node, paths)
	if err != nil {
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
	for _, s := range remote {
		fs.cluster.Transfer(s.node, node, s.mb, finish)
	}
}

// readFlows plans a Read of paths onto node: the MB of blocks with a live
// replica on the node, the MB of external files, and one flow per remote
// source, appended to remote with the MB of its blocks added in path and
// block order.
func (fs *FS) readFlows(remote []peerMB, node *cluster.Node, paths []string) (_ []peerMB, localMB, externalMB float64, err error) {
	for _, p := range paths {
		f, ok := fs.files[p]
		if !ok {
			return nil, 0, 0, fmt.Errorf("hdfs: file not found: %s", p)
		}
		if f.External {
			externalMB += f.SizeMB
			continue
		}
		for _, b := range f.Blocks {
			switch src := fs.liveReplica(b, node.Slot); src {
			case nil:
				err = fmt.Errorf("hdfs: no live replica for a block of %s", p)
			case node:
				localMB += b.SizeMB
			default:
				remote = fs.addPeerMB(remote, src, b.SizeMB)
			}
		}
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return remote, localMB, externalMB, nil
}

// writeFlows plans the replication of a file just laid out for a write
// from node: one flow per other replica holder, appended to peers with the
// MB of its blocks added in block order.
func (fs *FS) writeFlows(peers []peerMB, f *File, node *cluster.Node) []peerMB {
	for _, b := range f.Blocks {
		for _, r := range b.Replicas {
			if r != node.Slot {
				peers = fs.addPeerMB(peers, fs.cluster.NodeAt(r), b.SizeMB)
			}
		}
	}
	return peers
}

// peerMB is the bytes one flow carries between a node and one peer; rank is
// the peer's cluster.ByteRank.
type peerMB struct {
	node *cluster.Node
	rank int32
	mb   float64
}

// addPeerMB adds mb to node's entry of peers, which is kept in bytewise ID
// order (by ByteRank), so Read and Write start their flows in that order.
// A call has a handful of peers, so the entry is found by a linear scan.
func (fs *FS) addPeerMB(peers []peerMB, node *cluster.Node, mb float64) []peerMB {
	rank := fs.cluster.ByteRank(node.Slot)
	i := 0
	for ; i < len(peers) && peers[i].rank < rank; i++ {
	}
	if i < len(peers) && peers[i].node == node {
		peers[i].mb += mb
		return peers
	}
	return slices.Insert(peers, i, peerMB{node, rank, mb})
}

// Write simulates creating a file of sizeMB from the node: a local disk
// write plus pipelined replication of (replication-1) copies through the
// switch. Metadata is registered when the write completes. A nil node fails
// the write, as Read does.
func (fs *FS) Write(node *cluster.Node, path string, sizeMB float64, done func(error)) {
	if node == nil {
		fs.cluster.Engine.Schedule(0, func() { done(errors.New("hdfs: write from a node that is not a member")) })
		return
	}
	// Lay the file out now so the simulated replication traffic matches
	// the metadata registered on completion.
	f, err := fs.buildFile(path, sizeMB, node.Slot)
	if err != nil {
		fs.cluster.Engine.Schedule(0, func() { done(err) })
		return
	}
	// The metadata registers once the local write and every replica flow
	// have finished: one shared count, one closure.
	pending := 1
	finish := func() {
		pending--
		if pending == 0 {
			fs.register(path, f)
			done(nil)
		}
	}
	if sizeMB == 0 {
		fs.cluster.Engine.Schedule(0, finish)
		return
	}
	var buf [8]peerMB
	perPeer := fs.writeFlows(buf[:0], f, node)
	pending += len(perPeer)
	fs.cluster.WriteLocal(node, sizeMB, finish)
	for _, p := range perPeer {
		fs.cluster.Transfer(node, p.node, p.mb, finish)
	}
}
