package sim

import "testing"

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%17), func() {})
		}
		e.Run()
	}
}

func BenchmarkSharedResourceChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		r := NewSharedResource(e, "bench", 100)
		for j := 0; j < 200; j++ {
			delay := float64(j) * 0.1
			e.Schedule(delay, func() {
				r.Submit(float64(j%7)+1, 0, nil)
			})
		}
		e.Run()
	}
}

func BenchmarkSharedResourceManyConcurrentFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		r := NewSharedResource(e, "switch", 1000)
		for j := 0; j < 100; j++ {
			r.Submit(50, 10, nil)
		}
		e.Run()
	}
}

// BenchmarkSharedResourceLargeChurn models the switch of a large cluster
// mid-experiment: thousands of capped flows arriving staggered over time,
// a third of the in-flight ones canceled (killed attempts, speculation
// losers), everything contending for one aggregate capacity. This is the
// membership-churn regime that dominates large-cluster simulations.
func BenchmarkSharedResourceLargeChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		r := NewSharedResource(e, "switch", 10000)
		live := make([]*Job, 0, 2000)
		for j := 0; j < 2000; j++ {
			j := j
			e.Schedule(float64(j)*0.01, func() {
				live = append(live, r.Submit(float64(j%31+5), float64(j%13+1), nil))
				if j%3 == 2 {
					live[len(live)/2].Cancel()
				}
			})
		}
		e.Run()
	}
}

// BenchmarkEngineTimerChurn measures schedule/cancel churn: the pattern of
// per-attempt deadline timers, most of which are canceled before firing.
func BenchmarkEngineTimerChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 5000; j++ {
			ev := e.Schedule(float64(j%97)+1, func() {})
			if j%4 != 0 {
				e.Cancel(ev)
			}
		}
		e.Run()
	}
}

// BenchmarkEngineChurn100k holds a hundred thousand events pending at once —
// staggered timers, half of them canceled and replaced, drained in time
// order. That is some 390 times deeper than any queue the repository's
// benchmark or scale ladder reaches (257), and the one regime where the
// calendar queue this heap replaced was faster (38–40 against 45–48 ms per
// op, EXPERIMENTS.md); it is kept for the record, not as a target.
func BenchmarkEngineChurn100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		evs := make([]*Event, 0, 100000)
		for j := 0; j < 100000; j++ {
			evs = append(evs, e.Schedule(float64(j%977)+float64(j)*1e-4, func() {}))
		}
		for j := 0; j < len(evs); j += 2 {
			e.Cancel(evs[j])
			e.Schedule(float64(j%977)+0.5, func() {})
		}
		e.Run()
	}
}
