package cuneiform

// Lookups exposes the invocation-table lookup counter to the external test
// package, which (unlike this one) may import internal/workloads.
func (d *Driver) Lookups() int { return d.lookups }

// Pending returns the number of unresolved invocations; the differential
// tests compare it against a scan and against the reference evaluator.
func (d *Driver) Pending() int { return d.unresolved }
