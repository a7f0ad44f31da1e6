package provenance

import "sort"

// historyWindow is how many of a signature's most recent durations are kept.
const historyWindow = 256

// history keeps a bounded ring of observed durations per task signature:
// the Manager's memory stays bounded under soak (historyWindow ×
// signatures), and quantiles are served from a cached sorted window instead
// of copying and sorting the full history on every call.
type history map[string]*durationRing

// durationRing is one signature's sliding window.
type durationRing struct {
	buf    []float64
	next   int
	n      int
	sorted []float64
	dirty  bool
}

// add records one observed duration for the signature, displacing the
// oldest sample once the window is full.
func (h history) add(sig string, v float64) {
	r := h[sig]
	if r == nil {
		r = &durationRing{buf: make([]float64, historyWindow)}
		h[sig] = r
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
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
		r.sorted = append(r.sorted[:0], r.buf[:r.n]...)
		sort.Float64s(r.sorted)
		r.dirty = false
	}
	idx := int(float64(r.n)*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= r.n {
		idx = r.n - 1
	}
	return r.sorted[idx], true
}
