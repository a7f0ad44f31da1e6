// Package yarn simulates the Hadoop YARN resource management layer as seen
// by an application master (AM): a ResourceManager that tracks per-node
// capacity through NodeManagers, allocates containers (a fixed bundle of
// virtual cores and memory) against queued requests, honors node placement
// hints (relaxed or strict, the latter used by static workflow schedulers),
// and notifies applications when nodes are lost.
//
// Hi-WAY is "yet another application master for YARN"; this package is the
// counterpart protocol it talks to. One application is submitted per
// workflow, mirroring the paper's one-AM-per-workflow design (§3.1).
//
// Each application queues its own requests, and every allocation round
// serves them in one fair order: weighted tenants in name order, each
// tenant's applications round-robin in ID order. With one application that
// order is its arrival order, so its queue is the round. The nodes live in
// one table sorted by ID, and a container points at its node.
//
// A request is strict exactly when it carries OnUnplaceable. Strict
// placement is one rule in the round: before the quota check, a strict
// request whose hinted node is out of the table, dead or draining is
// withdrawn with the round's grants, and its OnUnplaceable runs among the
// grant callbacks in round order. So a request made after its node left is
// withdrawn like one pending when the node left, at most one heartbeat
// later.
//
// When observability is enabled (RM.SetObs), the ResourceManager emits a
// container span per allocation on the hosting node's track and maintains
// the hiway_yarn_* metric family: request/allocation/loss counters,
// per-node allocation counts, and an allocation-latency histogram in
// virtual seconds. With no observer attached every hook is a nil-receiver
// no-op.
//
// # Concurrency contract
//
// A ResourceManager is NOT goroutine-safe, and deliberately so: it advances
// in lockstep with one discrete-event engine (internal/sim), whose virtual
// clock is serial by definition — interleaving two goroutines through one
// RM would have no meaningful event order. Concurrent layers must therefore
// shard rather than lock: give each concurrently executing workflow run its
// own RM (plus engine, cluster, and HDFS namespace), as internal/shard's
// parallel -w shards and internal/service's Server (one substrate per
// admitted run, seeded from the run ID) both do. This is what keeps the
// service tier race-clean without a single mutex in this package, and what
// makes a run's outcome a pure function of its submission.
package yarn
