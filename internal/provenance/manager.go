package provenance

import (
	"fmt"
	"sync"

	"hiway/internal/obs"
	"hiway/internal/wf"
)

// flushEvery is the buffered-append high-water mark: Record hands events to
// the store in batches of this size (or earlier, at an explicit Flush).
const flushEvery = 128

// Manager gathers, stores, and serves provenance (§3.5). It appends every
// event to the configured Store and keeps a hot index of exactly what is
// read while workflows run: per task signature, the latest observed runtime
// on each compute node and their mean (the Workflow Scheduler's estimates),
// a version that moves with every observation, and the recent successful
// durations behind the p95 attempt deadline. File sizes and transfer times
// are not indexed here — they stay in every event, and provenance.Index is
// what lineage queries read them from.
//
// Following the paper's estimation strategy, the runtime estimate for a
// (signature, node) pair is always the latest observation, so the scheduler
// adapts quickly to performance changes in the infrastructure.
type Manager struct {
	mu    sync.Mutex
	store Store
	buf   []Event // recorded but not yet handed to the store

	hist history // signature → what has been observed of it

	taskCount     int64
	workflowCount int64

	// observability (nil handles until SetObs — no-ops)
	eventsC  *obs.Counter
	flushesC *obs.Counter
}

// SetObs registers provenance throughput counters with the registry:
// events recorded and store flushes performed.
func (m *Manager) SetObs(o *obs.Obs) {
	reg := o.M()
	m.eventsC = reg.Counter("hiway_prov_events_total", "provenance events recorded")
	m.flushesC = reg.Counter("hiway_prov_flushes_total", "buffered provenance batches handed to the store")
}

// NewManager creates a manager over the given store. Existing events in the
// store are loaded into the indexes, so provenance from earlier workflow
// runs immediately informs adaptive scheduling (the mechanism behind the
// paper's Fig. 9).
func NewManager(store Store) (*Manager, error) {
	m := &Manager{store: store, hist: make(history)}
	if err := scanEvents(store, m.index); err != nil {
		return nil, fmt.Errorf("provenance: loading prior events: %w", err)
	}
	return m, nil
}

// Store exposes the underlying store (e.g. to re-read a trace). Buffered
// events are flushed first so the store always reflects everything recorded.
func (m *Manager) Store() Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.flushLocked()
	return m.store
}

// Record updates the indexes immediately (so scheduling estimates never lag)
// and buffers the event for the store; the buffer is handed over in batches
// of flushEvery, or at an explicit Flush. Persistence errors surface at the
// flush that hits them.
func (m *Manager) Record(ev Event) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.index(&ev)
	m.eventsC.Inc()
	m.buf = append(m.buf, ev)
	if len(m.buf) >= flushEvery {
		return m.flushLocked()
	}
	return nil
}

// Flush persists all buffered events to the store. Callers invoke it at
// durability boundaries: workflow completion, AM kill, and resume — the
// points crash recovery reads the store back from.
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushLocked()
}

func (m *Manager) flushLocked() error {
	if len(m.buf) == 0 {
		return nil
	}
	m.flushesC.Inc()
	buf := m.buf
	m.buf = m.buf[:0]
	if ba, ok := m.store.(BatchAppender); ok {
		return ba.AppendBatch(buf)
	}
	for _, ev := range buf {
		if err := m.store.Append(ev); err != nil {
			return err
		}
	}
	return nil
}

// RecordWorkflowStart emits a workflow-start event.
func (m *Manager) RecordWorkflowStart(wfID, wfName string, at float64) error {
	return m.Record(Event{
		ID: wfID + "-start", Type: WorkflowStart, Timestamp: at,
		WorkflowID: wfID, WorkflowName: wfName,
	})
}

// RecordWorkflowEnd emits a workflow-end event with the total makespan.
func (m *Manager) RecordWorkflowEnd(wfID, wfName string, at, makespan float64, ok bool) error {
	return m.Record(Event{
		ID: wfID + "-end", Type: WorkflowEnd, Timestamp: at,
		WorkflowID: wfID, WorkflowName: wfName,
		DurationSec: makespan, Succeeded: ok,
	})
}

// RecordTaskStart emits a task-start event for one attempt of a task.
// Retries and speculative duplicates pass attempt > 0 and get distinct IDs.
func (m *Manager) RecordTaskStart(wfID, wfName string, t *wf.Task, node string, attempt int, at float64) error {
	return m.Record(Event{
		ID:   taskEventID(wfID, t.ID, "-start", attempt),
		Type: TaskStart, Timestamp: at,
		WorkflowID: wfID, WorkflowName: wfName,
		TaskID: t.ID, Attempt: attempt, Signature: t.Name, Command: t.Command, Node: node,
	})
}

// RecordWorkflowResume emits a workflow-resumed event: an AM recovered the
// workflow from this store's provenance, reconstructing recovered completed
// tasks instead of re-running them.
func (m *Manager) RecordWorkflowResume(wfID, wfName string, at float64, recovered int) error {
	return m.Record(Event{
		ID: fmt.Sprintf("%s-resume-%g", wfID, at), Type: WorkflowResumed, Timestamp: at,
		WorkflowID: wfID, WorkflowName: wfName, Recovered: recovered,
	})
}

// RecordTaskEnd emits the task-end event (with file-level records) for a
// completed result.
func (m *Manager) RecordTaskEnd(wfID, wfName string, res *wf.TaskResult, inputSizes map[string]float64) error {
	return m.Record(TaskEndEvent(wfID, wfName, res, inputSizes))
}

// index updates the hot index from one event.
func (m *Manager) index(ev *Event) {
	switch ev.Type {
	case TaskEnd:
		m.taskCount++
		if ev.Signature == "" {
			return
		}
		if ev.Node != "" {
			m.hist.observe(ev.Signature, ev.Node, ev.DurationSec)
		}
		// Only successful attempts feed the runtime distribution; a crashed
		// or killed attempt's duration says nothing about how long the task
		// legitimately takes, and a memo-spliced completion (duration 0)
		// reflects no execution at all.
		if ev.ExitCode == 0 && ev.Error == "" && ev.DurationSec > 0 {
			m.hist.add(ev.Signature, ev.DurationSec)
		}
	case WorkflowEnd:
		m.workflowCount++
	}
}

// LastRuntime returns the latest observed duration of signature on node.
// Per the paper, unobserved pairs report ok=false and the scheduler assumes
// a default of zero to encourage trying out new assignments.
func (m *Manager) LastRuntime(signature, node string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.hist[signature]
	if r == nil {
		return 0, false
	}
	d, ok := r.byNode[node]
	return d, ok
}

// MeanRuntime returns the mean of the latest observations of signature
// across nodes — HEFT's node-independent ranking input. O(1): the sum of
// latest observations is maintained incrementally by index.
func (m *Manager) MeanRuntime(signature string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.hist[signature]
	if r == nil || len(r.byNode) == 0 {
		return 0, false
	}
	return r.sum / float64(len(r.byNode)), true
}

// EstimateVersion returns a counter that advances with every new runtime
// observation for the signature (scheduler.EstimateVersioner). No policy
// reads it; the benchmark's estimator wrapper still forwards it.
func (m *Manager) EstimateVersion(signature string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r := m.hist[signature]; r != nil {
		return r.ver
	}
	return 0
}

// RuntimeP95 returns the 95th-percentile duration over the bounded window
// of recent successful observations of signature (any node). The
// fault-tolerance layer derives attempt deadlines from it: deadline =
// p95 × slack. ok is false when the signature has never completed
// successfully. The distribution lives in the signature's duration ring (the
// last 256 observations), so memory stays bounded under soak and the sorted
// window is cached between observations instead of re-sorted per query.
func (m *Manager) RuntimeP95(signature string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hist.quantile(signature, 0.95)
}

// Counts returns the number of indexed task-end and workflow-end events.
func (m *Manager) Counts() (tasks, workflows int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.taskCount, m.workflowCount
}
