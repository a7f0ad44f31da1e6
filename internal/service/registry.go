package service

import "sync"

// runRegistry is the server's run table, keyed by run ID
// ("<tenant>-<name>"). Each run is stored once, under s.mu in submit, and
// read many times afterwards (status, SSE subscriptions, the
// completed-multiset walk) — the case sync.Map is made for. The zero value
// is an empty registry.
type runRegistry struct{ m sync.Map }

// Load returns the run registered under id, or nil.
func (r *runRegistry) Load(id string) *Run {
	if v, ok := r.m.Load(id); ok {
		return v.(*Run)
	}
	return nil
}

// Store registers run under id, reporting false if the id is taken.
func (r *runRegistry) Store(id string, run *Run) bool {
	_, taken := r.m.LoadOrStore(id, run)
	return !taken
}

// All returns every registered run in unspecified order.
func (r *runRegistry) All() []*Run {
	var out []*Run
	r.m.Range(func(_, v any) bool {
		out = append(out, v.(*Run))
		return true
	})
	return out
}
