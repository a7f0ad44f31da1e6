// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel consists of an Engine that maintains a virtual clock and an
// ordered event queue, and a SharedResource that models contended,
// processor-sharing resources such as network switches, NICs, disks, and
// multi-core CPUs using a fluid-flow (max-min fair) model.
//
// All higher-level substrates in this repository (the simulated HDFS and
// YARN, the cluster hardware model) are built on this package. Determinism
// is guaranteed: events scheduled for the same instant fire in scheduling
// order, and no wall-clock time or global randomness is consulted.
//
// The queue is one position-indexed 4-ary heap and there is one kind of
// Event. Cancel removes its event on the spot, so the heap holds exactly the
// events that will fire; canceling an event that has fired or was canceled
// before is always a no-op. A timer that moves far more often than it fires
// is created once with Engine.NewEvent and moved with Engine.Rearm, which
// orders exactly like Cancel plus a fresh At but allocates nothing.
//
// The kernel keeps its own lightweight instrumentation — processed-event
// and queue-depth high-water counters (Engine.Processed, Engine.MaxQueueDepth)
// and per-resource reshare counts (SharedResource.Reshares) — as plain
// integer bumps with no dependency on internal/obs, so the hot path stays
// allocation-free. cluster.RecordMetrics snapshots them into a metrics
// registry after a run.
package sim
