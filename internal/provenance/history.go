package provenance

import "sort"

// historyWindow is how many of a signature's most recent durations are kept.
const historyWindow = 256

// history is the Manager's hot index: one record per task signature holding
// everything that is read about it while workflows run. Its memory is bounded
// under soak by signatures × (nodes + historyWindow).
type history map[string]*sigRecord

// sigRecord is what has been observed of one task signature.
type sigRecord struct {
	byNode map[string]float64 // node → latest duration, any outcome
	sum    float64            // Σ byNode values, so the mean is O(1)
	ver    uint64             // advances with every observe; only EstimateVersion reads it
	durationRing
}

// durationRing is a sliding window over a signature's successful durations.
// It grows with its samples up to historyWindow and then wraps: most
// signatures of a short-lived Manager see a handful.
type durationRing struct {
	buf    []float64
	next   int // the oldest sample, once the window is full
	n      int
	sorted []float64
	dirty  bool
}

// record returns the signature's record, creating it on first sight.
func (h history) record(sig string) *sigRecord {
	r := h[sig]
	if r == nil {
		r = &sigRecord{byNode: make(map[string]float64)}
		h[sig] = r
	}
	return r
}

// observe makes v the latest duration of the signature on node.
func (h history) observe(sig, node string, v float64) {
	r := h.record(sig)
	r.sum += v - r.byNode[node]
	r.byNode[node] = v
	r.ver++
}

// add records one successful duration for the signature, displacing the
// oldest sample once the window is full.
func (h history) add(sig string, v float64) {
	r := h.record(sig)
	if r.n < historyWindow {
		r.buf = append(r.buf, v)
		r.n++
	} else {
		r.buf[r.next] = v
		r.next = (r.next + 1) % historyWindow
	}
	r.dirty = true
}

// quantile returns the nearest-rank q-quantile of the signature's current
// window. The sorted window is cached between calls and rebuilt only after
// new samples arrive, so repeated estimate queries between task completions
// are O(1).
func (h history) quantile(sig string, q float64) (float64, bool) {
	r := h[sig]
	if r == nil || r.n == 0 {
		return 0, false
	}
	if r.dirty {
		r.sorted = append(r.sorted[:0], r.buf...)
		sort.Float64s(r.sorted)
		r.dirty = false
	}
	idx := int(float64(float64(r.n)*q)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= r.n {
		idx = r.n - 1
	}
	return r.sorted[idx], true
}
