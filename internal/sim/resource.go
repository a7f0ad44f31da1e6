package sim

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// workEps is the tolerance below which a job's remaining work counts as
// finished, absorbing floating-point drift from repeated rate updates.
const workEps = 1e-9

// Job is a unit of work submitted to a SharedResource. Its progress rate is
// recomputed by max-min fair sharing whenever the resource's job set changes.
type Job struct {
	res       *SharedResource
	remaining float64 // work left as of syncT
	syncT     float64 // virtual time remaining refers to
	cap       float64 // maximum rate this job can absorb; 0 means unlimited
	rate      float64 // current allocated rate
	eta       float64 // projected finish, syncT + remaining/rate; +Inf while it never finishes
	done      func()
	active    bool
	infinite  bool   // background load (hogs): never completes
	zero      *Event // pending completion event of a zero-work job
	seq       int64
}

// Cancel withdraws the job from its resource without invoking its done
// callback. Canceling a finished or already-canceled job is a no-op. This is
// what makes task attempts killable: a timed-out or superseded attempt's
// compute job is withdrawn so it stops contending for capacity.
func (j *Job) Cancel() {
	if j == nil || j.res == nil {
		return
	}
	j.res.Remove(j)
}

// SharedResource models a contended resource (switch, NIC, disk, CPU) with a
// fixed aggregate capacity in units per second. Concurrent jobs share the
// capacity max-min fairly, honoring per-job rate caps: jobs whose cap is
// below the fair share release their surplus to the others.
//
// This fluid-flow model reproduces the congestion phenomena the paper
// observes (a saturated 1 GbE switch, EBS-volume contention, CPU/IO stress)
// without simulating individual packets or context switches.
//
// Rates only change when the job set changes, so all bookkeeping is
// incremental: jobs live in a cap-sorted slice maintained by binary
// insertion, per-event meter accrual is O(1) from running totals, and the
// single O(n) pass in reshare runs only on membership changes. The resource
// owns one wake event for its lifetime and re-arms it in place, and only
// when the earliest projected completion actually moves (coalescing).
type SharedResource struct {
	eng       *Engine
	capacity  float64
	jobs      []*Job  // active finite+background jobs, ascending (effCap, seq)
	capSum    float64 // Σ effCap over jobs (demand meter)
	totalRate float64 // Σ allocated rates (throughput meter)
	last      float64 // virtual time of the last meter update
	wake      *Event  // earliest-completion event, re-armed in place
	wakeAt    float64 // time wake was last armed for, before the engine's clamp to now
	seq       int64
	reshares  int64  // rate recomputations, exported by the observability layer
	finished  []*Job // reshare's buffer of drained jobs, detached while their callbacks run

	// meters (time integrals since creation)
	meterStart   float64
	rateIntegral float64 // ∫ Σrates dt → throughput / utilization
	demandInt    float64 // ∫ Σcaps dt → "load" in the uptime sense
	busyInt      float64 // ∫ [n>0] dt → busy fraction
}

// NewSharedResource creates a resource with the given aggregate capacity
// (units/sec). The name is used in diagnostics only.
func NewSharedResource(eng *Engine, name string, capacity float64) *SharedResource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	r := &SharedResource{
		eng:        eng,
		capacity:   capacity,
		last:       eng.Now(),
		meterStart: eng.Now(),
	}
	r.wake = eng.NewEvent(func() {
		r.advance()
		r.reshare()
	})
	return r
}

// Submit enqueues work units to be processed, calling done on completion.
// rateCap bounds the job's share (0 = unbounded). Zero or negative work
// completes at the current instant via a scheduled event, preserving
// callback ordering; until that event fires the returned Job is a
// first-class handle — it is active and Cancel() withdraws the pending
// callback — but it never contends for capacity.
func (r *SharedResource) Submit(work, rateCap float64, done func()) *Job {
	r.seq++
	if work <= 0 {
		j := &Job{res: r, cap: rateCap, done: done, active: true, seq: r.seq}
		j.zero = r.eng.Schedule(0, func() {
			j.zero = nil
			j.active = false
			if j.done != nil {
				j.done()
			}
		})
		return j
	}
	r.advance()
	j := &Job{res: r, remaining: work, syncT: r.eng.Now(), cap: rateCap, done: done, active: true, seq: r.seq, eta: math.Inf(1)}
	r.insert(j)
	r.reshare()
	return j
}

// SubmitBackground adds a permanent load of rateCap units/sec that competes
// for capacity but never completes — the model of the paper's synthetic
// `stress` processes. It returns the job so callers can remove it later.
func (r *SharedResource) SubmitBackground(rateCap float64) *Job {
	if rateCap <= 0 {
		panic("sim: background load must have a positive cap")
	}
	r.advance()
	r.seq++
	j := &Job{res: r, remaining: math.Inf(1), syncT: r.eng.Now(), cap: rateCap, active: true, infinite: true, seq: r.seq, eta: math.Inf(1)}
	r.insert(j)
	r.reshare()
	return j
}

// Remove withdraws a job (finished or not) from the resource. Its done
// callback will not be invoked. Removing an inactive job is a no-op.
func (r *SharedResource) Remove(j *Job) {
	if j == nil || !j.active {
		return
	}
	if j.zero != nil {
		r.eng.Cancel(j.zero)
		j.zero = nil
		j.active = false
		return
	}
	r.advance()
	if i := r.find(j); i >= 0 {
		r.removeAt(i)
	}
	j.active = false
	j.rate = 0
	r.reshare()
}

// insert places j into the cap-sorted job slice and accrues its demand.
func (r *SharedResource) insert(j *Job) {
	c := j.effCap(r.capacity)
	i := sort.Search(len(r.jobs), func(k int) bool {
		ck := r.jobs[k].effCap(r.capacity)
		if ck != c {
			return ck > c
		}
		return r.jobs[k].seq > j.seq
	})
	r.jobs = append(r.jobs, nil)
	copy(r.jobs[i+1:], r.jobs[i:])
	r.jobs[i] = j
	r.capSum += c
}

// find locates j in the cap-sorted slice by binary search on (effCap, seq).
func (r *SharedResource) find(j *Job) int {
	c := j.effCap(r.capacity)
	i := sort.Search(len(r.jobs), func(k int) bool {
		ck := r.jobs[k].effCap(r.capacity)
		if ck != c {
			return ck > c
		}
		return r.jobs[k].seq >= j.seq
	})
	if i < len(r.jobs) && r.jobs[i] == j {
		return i
	}
	return -1
}

// removeAt deletes the job at index i, niling the vacated tail slot.
func (r *SharedResource) removeAt(i int) {
	j := r.jobs[i]
	copy(r.jobs[i:], r.jobs[i+1:])
	r.jobs[len(r.jobs)-1] = nil
	r.jobs = r.jobs[:len(r.jobs)-1]
	r.capSum -= j.effCap(r.capacity)
}

// advance accrues the meter integrals up to the current virtual time in
// O(1) from the running totals. Per-job progress is NOT touched here: a
// job's remaining work is derived lazily from (remaining, syncT, rate),
// which stay exact because rates only change inside reshare.
func (r *SharedResource) advance() {
	now := r.eng.Now()
	dt := now - r.last
	if dt <= 0 {
		r.last = now
		return
	}
	r.rateIntegral += float64(r.totalRate * dt)
	r.demandInt += float64(r.capSum * dt)
	if len(r.jobs) > 0 {
		r.busyInt += dt
	}
	r.last = now
}

// sync accrues j's progress at its current rate up to now, so the rate can
// change without losing work done at the old rate.
func (r *SharedResource) sync(j *Job, now float64) {
	if !j.infinite {
		j.remaining -= float64(j.rate * (now - j.syncT))
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
	j.syncT = now
}

// reshare is the single O(n) step, run only on membership changes (submit,
// remove, completion wake). It fuses three passes over the cap-sorted job
// list: completing drained jobs, recomputing max-min fair rates, and
// picking the next wake time.
func (r *SharedResource) reshare() {
	r.reshares++
	now := r.eng.Now()

	// Collect jobs whose work is exhausted, keeping the rest in order. The
	// buffer is detached until the callbacks have run, so a callback that
	// re-enters this resource collects into a buffer of its own.
	finished := r.finished
	r.finished = nil
	kept := 0
	for i, j := range r.jobs {
		if !j.infinite && j.remaining-float64(j.rate*(now-j.syncT)) <= workEps {
			finished = append(finished, j)
			continue
		}
		if kept != i {
			r.jobs[kept] = j
		}
		kept++
	}
	if len(finished) > 0 {
		clear(r.jobs[kept:])
		r.jobs = r.jobs[:kept]
		for _, j := range finished {
			r.capSum -= j.effCap(r.capacity)
			j.remaining = 0
			j.syncT = now
			j.active = false
			j.rate = 0
		}
		// Callbacks fire in submission order; finished was collected in
		// (cap, seq) order.
		slices.SortFunc(finished, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	}

	// Max-min fair shares: ascending by cap, each job takes min(cap, equal
	// split of what remains); surplus flows to later, less constrained jobs.
	// Jobs whose rate actually changes are synced first so prior progress is
	// accrued at the old rate, and get a new projected finish. That is the
	// only place syncT and remaining move, so a job whose rate holds keeps
	// its eta bit for bit, and the earliest completion is the least eta.
	n := len(r.jobs)
	left := r.capacity
	total := 0.0
	soonest := math.Inf(1)
	for i, j := range r.jobs {
		share := left / float64(n-i)
		rate := j.effCap(r.capacity)
		if rate > share {
			rate = share
		}
		if rate != j.rate {
			r.sync(j, now)
			j.rate = rate
			j.eta = math.Inf(1)
			if !j.infinite && rate > 0 {
				j.eta = j.syncT + j.remaining/rate
			}
		}
		left -= rate
		total += rate
		if j.eta < soonest {
			soonest = j.eta
		}
	}
	r.totalRate = total

	// Re-arm the wake event only if its target moved (coalescing). When no
	// rate changed, soonest is computed from the same floats as last time,
	// so the comparison is exact.
	if math.IsInf(soonest, 1) {
		r.eng.Cancel(r.wake)
	} else if !r.wake.pending() || r.wakeAt != soonest {
		r.wakeAt = soonest
		r.eng.Rearm(r.wake, soonest)
	}

	// Fire completion callbacks after internal state is consistent, so a
	// callback may immediately submit new work to this same resource.
	for _, j := range finished {
		if j.done != nil {
			j.done()
		}
	}
	clear(finished)
	r.finished = finished[:0]
}

// effCap returns the job's effective rate cap, treating 0 as "capacity".
func (j *Job) effCap(capacity float64) float64 {
	if j.cap == 0 || j.cap > capacity {
		return capacity
	}
	return j.cap
}

// Load returns the average demand on the resource in capacity units — the
// analogue of the Unix load average the paper reports for worker CPUs
// (e.g. ~2.0 on a two-core node under full multithreaded load).
func (r *SharedResource) Load() float64 {
	r.advance()
	dur := r.eng.Now() - r.meterStart
	if dur <= 0 {
		return 0
	}
	return r.demandInt / dur
}

// Throughput returns average processed units/sec since creation — for a
// network resource, bytes (MB) per second of actual transfer.
func (r *SharedResource) Throughput() float64 {
	r.advance()
	dur := r.eng.Now() - r.meterStart
	if dur <= 0 {
		return 0
	}
	return r.rateIntegral / dur
}

// BusyFraction returns the fraction of elapsed time with at least one job —
// the iostat-style device utilization the paper reports for disks.
func (r *SharedResource) BusyFraction() float64 {
	r.advance()
	dur := r.eng.Now() - r.meterStart
	if dur <= 0 {
		return 0
	}
	return r.busyInt / dur
}

// Reshares returns how many times the resource recomputed its max-min fair
// rates — the kernel's dominant O(n) cost, counted for the observability
// layer. One reshare per job-set change is the design target; a number far
// above (submits + removals + completions) signals a wake-coalescing bug.
func (r *SharedResource) Reshares() int64 { return r.reshares }
