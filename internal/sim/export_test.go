package sim

// Test-only accessors: production code observes jobs and resources through
// their callbacks and meters, never through these.

// Time returns the virtual time at which the event fires (or last fired).
func (ev *Event) Time() float64 { return ev.at }

// Active reports whether the job is still submitted to its resource.
func (j *Job) Active() bool { return j != nil && j.active }

// Remaining returns the job's remaining work in resource units as of the
// current virtual time. Progress is tracked lazily — a job's stored state is
// only synced when its rate changes — so the live value is derived here.
func (j *Job) Remaining() float64 {
	if j == nil {
		return 0
	}
	if !j.active || j.infinite || j.res == nil {
		return j.remaining
	}
	rem := j.remaining - j.rate*(j.res.eng.Now()-j.syncT)
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Active returns the number of jobs currently sharing the resource.
func (r *SharedResource) Active() int { return len(r.jobs) }
