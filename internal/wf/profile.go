package wf

import "cmp"

// Profile supplies a resource profile for tasks parsed from workflow
// languages that do not annotate resource demands themselves (DAX without
// runtime attributes, Galaxy). The simulated substrate needs CPU seconds
// and data volumes in place of running the real tool; the local executor
// ignores profiles entirely.
type Profile struct {
	CPUSeconds   float64 // reference core-seconds of compute
	Threads      int     // maximum useful parallelism
	MemMB        int     // memory demand
	OutputSizeMB float64 // size for declared outputs without an explicit size
}

// ApplyTo fills zero-valued resource fields of the task from the profile.
// Explicit annotations from the workflow text win over the profile.
func (p Profile) ApplyTo(t *Task) {
	t.CPUSeconds = cmp.Or(t.CPUSeconds, p.CPUSeconds)
	t.Threads = cmp.Or(t.Threads, p.Threads, 1)
	t.MemMB = cmp.Or(t.MemMB, p.MemMB)
	for _, fis := range t.Declared {
		for i := range fis {
			if p.OutputSizeMB > 0 {
				fis[i].SizeMB = cmp.Or(fis[i].SizeMB, p.OutputSizeMB)
			}
		}
	}
}
