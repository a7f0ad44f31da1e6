package cuneiform

// Lookups exposes the invocation-table lookup counter to the external test
// package, which (unlike this one) may import internal/workloads.
func (d *Driver) Lookups() int { return d.lookups }
