package wf

// Remaining returns the number of tasks not yet completed.
func (d *DAG) Remaining() int { return len(d.tasks) - d.done }
