package hdfs

import (
	"fmt"
	"testing"
)

// BenchmarkPutExcluded writes files on Table 2's shape — 34 nodes, the two
// masters excluded from the datanodes — so every replica placement takes
// liveNodes' filtering path. Each op puts one 300 MB file (five 64 MB
// blocks, replication 3) from a rotating worker.
func BenchmarkPutExcluded(b *testing.B) {
	_, c := newTestCluster(b, 34)
	fs := New(c, Config{BlockSizeMB: 64, Replication: 3, ExcludeNodes: []string{"node-00", "node-01"}}, 1)
	nodes := c.NodeIDs()
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/out/part-%02d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Put(paths[i%len(paths)], 300, nodes[2+i%32]); err != nil {
			b.Fatal(err)
		}
	}
}
