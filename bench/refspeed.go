package main

import (
	"sort"
	"sync"
	"time"
)

// The reference box is a shared 2-vCPU virtual machine that slows for minutes
// at a time, whatever the guest does (README.md, "Drift"). Two disturbances
// were seen. One slows memory-bound work on either vCPU by up to a quarter:
// six back-to-back runs of one seed of sim-wide read 34.3k, 34.8k, 33.4k,
// 29.9k, 25.8k and 29.3k tasks/s. The other shows only when both vCPUs are
// busy and is far worse: over twelve minutes a closed-loop server segment took
// anything from 366 to 963 ms while single-threaded work moved by 7%. No
// amount of work inside a run averages either out, and both are wider than any
// bound a regression gate can use.
//
// So every run also times a fixed reference kernel, interleaved with the work
// it measures, and reports its timings at reference speed: multiplied by the
// kernel's nominal wall ÷ its median wall in this run. The simulator
// workloads, which run on one goroutine, time the kernel on one; the server
// workloads, which keep every core busy, time one copy per core at once.
//
// The kernel uses only the standard library — no code of this repository —
// so a change to the repository cannot move it, while a change in the
// machine's speed moves it and the workload together. It was picked by
// logging candidate kernels next to sim-wide iterations and closed-loop
// server segments for four to fifteen minutes at a time: an ALU loop does not
// see the drift at all; a pointer chase and a sort track the iterations
// (correlation 0.88 and 0.92 over 8-second windows) and dividing by them cut
// the spread of window medians from 9–15% to 4–6%; only kernels run on both
// cores at once track the server, and dividing by them cut the spread of its
// window medians from 22% to 3–5%; a streaming copy reacts to the milder
// drift about as strongly as the workloads do, where the chase and the sort
// react half as much.

// refNominalMs is the kernel's wall on the reference box, by the number of
// copies running at once: its medians over the 80 runs of the baseline A/A
// (36.1 ms alone, 35.9 ms per copy for two). Timings are reported at the speed
// the box ran at then.
var refNominalMs = map[int]float64{1: 36, 2: 36}

// refState is one copy's working set, built once: the kernel itself
// allocates nothing, so the collector's pacing cannot move it.
type refState struct {
	perm []int32 // one cycle through 32 MB, in scattered order
	dst  []int32 // 16 MB that perm is streamed into
	vals []float64
	tmp  []float64
	sink float64 // keeps the compiler from dropping the work
}

// refStates are the working sets already built, shared by every refSpeed of
// the process.
var refStates []*refState

func newRefState() *refState {
	st := &refState{perm: make([]int32, 8<<20), dst: make([]int32, 4<<20), vals: make([]float64, 1<<15), tmp: make([]float64, 1<<15)}
	x := uint32(1)
	next := func() uint32 {
		x = x*1664525 + 1013904223
		return x >> 4
	}
	for i := range st.vals {
		st.vals[i] = float64(next())
	}
	order := make([]int32, len(st.perm))
	for i := range order {
		order[i] = int32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(next()) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for i := range order {
		st.perm[order[i]] = order[(i+1)%len(order)]
	}
	return st
}

// run does the memory-bound kinds of work the simulator and the collector
// do, on a working set far larger than any cache: it chases pointers (memory
// latency), streams 32 MB through copy (memory bandwidth) and sorts a slice.
func (st *refState) run() time.Duration {
	t0 := time.Now()
	at := int32(0)
	for i := 0; i < 1<<17; i++ {
		at = st.perm[at]
	}
	for half := 0; half < 2; half++ {
		copy(st.dst, st.perm[half*len(st.dst):])
		for i := 0; i < len(st.dst); i += 16 {
			at += st.dst[i] & 1
		}
	}
	for round := 0; round < 2; round++ {
		copy(st.tmp, st.vals)
		sort.Float64s(st.tmp)
	}
	st.sink = float64(at) + st.tmp[len(st.tmp)/2]
	return time.Since(t0)
}

// refSpeed collects the kernel's walls over a run.
type refSpeed struct {
	copies []*refState
	walls  []float64 // ms; the mean over the copies of one sample
}

// newRefSpeed prepares a kernel that runs `copies` copies at once.
func newRefSpeed(copies int) *refSpeed {
	if _, ok := refNominalMs[copies]; !ok {
		copies = 2 // calibrated for the reference box's two cores only
	}
	for len(refStates) < copies {
		refStates = append(refStates, newRefState())
	}
	return &refSpeed{copies: refStates[:copies]}
}

// sample times the kernel once. Callers interleave it with the work they
// measure, outside every timed region and with the collector idle.
func (r *refSpeed) sample() {
	walls := make([]time.Duration, len(r.copies))
	var wg sync.WaitGroup
	for i, st := range r.copies[1:] {
		wg.Add(1)
		go func(i int, st *refState) {
			defer wg.Done()
			walls[i+1] = st.run()
		}(i, st)
	}
	walls[0] = r.copies[0].run()
	wg.Wait()
	sum := time.Duration(0)
	for _, w := range walls {
		sum += w
	}
	r.walls = append(r.walls, ms(sum)/float64(len(walls)))
}

func (r *refSpeed) nominal() float64 { return refNominalMs[len(r.copies)] }

// factor converts a time measured in this run to reference speed; divide a
// rate by it.
func (r *refSpeed) factor() float64 {
	if len(r.walls) == 0 {
		return 1
	}
	return r.nominal() / median(r.walls)
}

// describe notes the run's speed next to its results, so the measured
// timings can be recovered from the reported ones.
func (r *refSpeed) describe(res *result) {
	q1, med, q3 := quartiles(r.walls)
	res.note("reference kernel, %d at once: %d samples, median %.2f ms [%.2f, %.2f], nominal %.1f ms: timings are reported × %.4f, rates ÷ it",
		len(r.copies), len(r.walls), med, q1, q3, r.nominal(), r.factor())
}
