package service

// fifoGate is the admission state machine shared by the simulated service
// tier (Service) and the network front-end (Server): a bounded FIFO queue
// feeding a concurrency-capped set of running workflows. Admission never
// skips the queue head — head-of-line blocking is what preserves
// intra-tenant admission order, one of the audited service invariants —
// and beyond maxQueue the caller rejects instead of buffering, which is
// what keeps tail queue wait bounded at overload.
//
// The gate itself is not goroutine-safe: Service drives it from the
// single-threaded simulation loop, Server guards it with its own mutex.
// Routing both tiers through one state machine is what keeps `hiway load`
// and `hiway serve` admission semantics identical by construction.
type fifoGate[T any] struct {
	maxConcurrent int
	maxQueue      int
	queue         []T
	running       int
}

// newFifoGate returns a gate admitting at most maxConcurrent concurrent
// workflows and queueing at most maxQueue behind them.
func newFifoGate[T any](maxConcurrent, maxQueue int) *fifoGate[T] {
	return &fifoGate[T]{maxConcurrent: maxConcurrent, maxQueue: maxQueue}
}

// Full reports whether the queue is at the backpressure threshold: the
// caller must reject (with a retry-after hint) instead of enqueueing.
func (g *fifoGate[T]) Full() bool { return len(g.queue) >= g.maxQueue }

// Enqueue appends x to the queue tail. The caller has already checked Full.
func (g *fifoGate[T]) Enqueue(x T) { g.queue = append(g.queue, x) }

// Next pops the queue head and charges the concurrency budget, or reports
// false when the budget is spent or the queue is empty.
func (g *fifoGate[T]) Next() (T, bool) {
	var zero T
	if g.running >= g.maxConcurrent || len(g.queue) == 0 {
		return zero, false
	}
	x := g.queue[0]
	g.queue[0] = zero // the backing array must not keep what was admitted
	g.queue = g.queue[1:]
	g.running++
	return x, true
}

// Requeue puts x back at the queue head and uncharges the budget: the head
// could not launch yet (AM capacity) and must stay the head until resources
// free — never admit around it.
func (g *fifoGate[T]) Requeue(x T) {
	g.queue = append([]T{x}, g.queue...)
	g.running--
}

// Finish uncharges the concurrency budget for a workflow that reached a
// terminal state (or failed to launch with nothing else running).
func (g *fifoGate[T]) Finish() { g.running-- }

// Depth returns the number of queued workflows.
func (g *fifoGate[T]) Depth() int { return len(g.queue) }

// Running returns the number of charged (admitted, unfinished) workflows.
func (g *fifoGate[T]) Running() int { return g.running }
