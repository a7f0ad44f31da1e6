package cuneiform_test

import (
	"fmt"
	"runtime"
	"testing"

	"hiway/internal/lang/cuneiform"
	"hiway/internal/wf"
	"hiway/internal/workloads"
)

// driveSNV runs the paper's SNV-calling workflow (Table 2's configuration:
// 11 tasks per sample) through the driver alone, completing tasks in issue
// order, and returns the driver and the number of tasks it issued.
func driveSNV(tb testing.TB, samples int) (*cuneiform.Driver, int) {
	tb.Helper()
	d, _, behavior := workloads.SNVCuneiformDriver("snv", workloads.SNVConfig{Samples: samples})
	queue, err := d.Parse()
	if err != nil {
		tb.Fatal(err)
	}
	tasks := 0
	for ; len(queue) > 0; tasks++ {
		next, err := d.OnTaskComplete(&wf.TaskResult{Task: queue[0], Outputs: behavior(queue[0]).Outputs})
		if err != nil {
			tb.Fatal(err)
		}
		queue = append(queue[1:], next...)
	}
	if !d.Done() {
		tb.Fatalf("%d samples: not done after %d tasks", samples, tasks)
	}
	return d, tasks
}

// TestSNVLookupsPerTaskConstant is the linearity gate: on Table 2's rungs the
// driver must look an invocation up equally often per task, whatever the
// workflow's size. Re-evaluating the whole program on every completion
// doubled the figure with every rung.
func TestSNVLookupsPerTaskConstant(t *testing.T) {
	var perTask []float64
	for _, samples := range []int{32, 64, 128} {
		d, tasks := driveSNV(t, samples)
		if tasks != 11*samples {
			t.Fatalf("%d samples issued %d tasks, want %d", samples, tasks, 11*samples)
		}
		perTask = append(perTask, float64(d.Lookups())/float64(tasks))
	}
	if perTask[0] != perTask[1] || perTask[1] != perTask[2] {
		t.Fatalf("lookups per task at 32/64/128 samples = %v, want one constant", perTask)
	}
	t.Logf("%.2f invocation lookups per task", perTask[0])
}

// BenchmarkSNVCuneiform reports the evaluator's cost per task on the same
// rungs; a linear driver shows the same ns/task and B/task on all three.
func BenchmarkSNVCuneiform(b *testing.B) {
	for _, samples := range []int{32, 64, 128} {
		b.Run(fmt.Sprint(samples), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tasks := 0
			for i := 0; i < b.N; i++ {
				_, tasks = driveSNV(b, samples)
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*tasks), "B/task")
		})
	}
}
