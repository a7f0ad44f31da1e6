package scheduler

import "sort"

// Blacklisted returns the currently blacklisted nodes, sorted — the whole
// blacklist at once, where production asks Healthy one node at a time.
func (h *NodeHealthTracker) Blacklisted() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for n, st := range h.nodes {
		if h.now() < st.until {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
