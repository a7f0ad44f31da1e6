package obs

// Test-only accessors: production code reads histograms and the tracer
// clock through the exporters, never directly.

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Now returns the tracer's current time, 0 on a nil tracer.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}
