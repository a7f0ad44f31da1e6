package hdfs

// Test-only views of namenode state. Production code reads locality through
// LocalFraction/CandidateNodes and moves bytes through Read, which
// classifies blocks exactly as Plan does.

// Config returns the effective configuration.
func (fs *FS) Config() Config { return fs.cfg }

// TotalMB sums sizes of the given paths (missing files count zero).
func (fs *FS) TotalMB(paths []string) float64 {
	var total float64
	for _, p := range paths {
		if f, ok := fs.files[p]; ok {
			total += f.SizeMB
		}
	}
	return total
}

// UnderReplicated returns the number of blocks whose live replica count is
// below the effective replication target.
func (fs *FS) UnderReplicated() int {
	target := fs.replicationTarget()
	n := 0
	for _, f := range fs.files {
		if f.External {
			continue
		}
		for _, b := range f.Blocks {
			live := 0
			for _, r := range b.Replicas {
				if !fs.has(r, dead) {
					live++
				}
			}
			if live < target {
				n++
			}
		}
	}
	return n
}

// ReadPlan describes the I/O needed to read a file set from a node.
type ReadPlan struct {
	LocalMB    float64
	RemoteMB   float64 // read from other live datanodes through the switch
	ExternalMB float64 // fetched from the external source over the NIC
	Missing    []string
	Broken     []string // files with a block that has no live replica
}

// Plan computes the read plan for paths from nodeID.
func (fs *FS) Plan(paths []string, nodeID string) ReadPlan {
	var plan ReadPlan
	n := fs.cluster.Node(nodeID)
	slot := int32(-1)
	if n != nil {
		slot = n.Slot
	}
	for _, p := range paths {
		f, ok := fs.files[p]
		if !ok {
			plan.Missing = append(plan.Missing, p)
			continue
		}
		if f.External {
			plan.ExternalMB += f.SizeMB
			continue
		}
		for _, b := range f.Blocks {
			switch src := fs.liveReplica(b, slot); {
			case src == nil:
				plan.Broken = append(plan.Broken, p)
			case src == n:
				plan.LocalMB += b.SizeMB
			default:
				plan.RemoteMB += b.SizeMB
			}
		}
	}
	return plan
}
