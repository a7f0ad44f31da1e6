// Package obs is the execution observability layer: a structured span and
// event tracer, a counter/gauge/histogram metrics registry, and a scheduler
// decision log, with exporters for the Chrome trace_event JSON format
// (loadable in chrome://tracing and Perfetto) and Prometheus-style text.
//
// The layer is threaded through the whole execution path — the simulation
// kernel (internal/sim), the YARN model (internal/yarn), the workflow
// scheduler policies (internal/scheduler), the application master
// (internal/core), and the provenance manager (internal/provenance) — and
// surfaces through `hiway sim -trace out.json -metrics out.prom`.
//
// # Span taxonomy
//
// Spans form a causal tree via parent IDs:
//
//	workflow                 one per AM, track "workflow"
//	└─ task                  ready → completed, async (tasks overlap freely)
//	   └─ attempt            one container execution, track = hosting node
//	      ├─ stage-in        HDFS reads of the attempt's inputs
//	      ├─ exec            the compute phase
//	      └─ stage-out       HDFS writes of the produced files
//	container                allocate → release, track = hosting node
//
// Container spans live on the same per-node track as the attempts they
// host, so the attempt nests visually inside its container in a trace
// viewer even though containers are allocated by YARN before the scheduler
// binds a task to them.
//
// # Zero-overhead off switch
//
// Every handle in this package — *Obs, *Tracer, *Registry, *DecisionLog,
// *Counter, *Gauge, *Histogram — is safe to use as nil: all methods are
// no-ops on nil receivers, and the no-op paths neither allocate nor format.
// Instrumented components therefore call the layer unconditionally; an
// execution with observability off (the default) pays only a nil check per
// event. TestTracerOffZeroAlloc pins this down.
//
// Tracer.Sample keeps every point; `hiway sim -trace-sample N` bounds a long
// run's trace by recording only every Nth tick of its counter sampler.
package obs
