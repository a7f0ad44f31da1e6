package verify

// Violations returns everything recorded so far; production reads the list
// once, from FinalCheck.
func (a *TenantAuditor) Violations() []Violation { return a.violations }
