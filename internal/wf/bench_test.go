package wf

import (
	"fmt"
	"testing"
)

// layeredTasks builds a DAG of depth layers with width tasks each, every
// task consuming one file from the previous layer.
func layeredTasks(layers, width int) ([]*Task, []string) {
	var fx fixture
	var tasks []*Task
	var prev []string
	inputs := []string{"seed"}
	prev = inputs
	for l := 0; l < layers; l++ {
		var outs []string
		for w := 0; w < width; w++ {
			out := fmt.Sprintf("f-%d-%d", l, w)
			tasks = append(tasks, fx.mkTask("t", []string{prev[w%len(prev)]}, out))
			outs = append(outs, out)
		}
		prev = outs
	}
	return tasks, inputs
}

func BenchmarkNewDAG(b *testing.B) {
	tasks, inputs := layeredTasks(10, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDAG(tasks, inputs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDAGExecution(b *testing.B) {
	tasks, inputs := layeredTasks(10, 100)
	for i := 0; i < b.N; i++ {
		d, err := NewDAG(tasks, inputs, nil)
		if err != nil {
			b.Fatal(err)
		}
		queue := d.Ready()
		for len(queue) > 0 {
			t := queue[0]
			queue = queue[1:]
			queue = append(queue, d.Complete(t)...)
		}
		if !d.Done() {
			b.Fatal("not done")
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	tasks, inputs := layeredTasks(10, 100)
	d, err := NewDAG(tasks, inputs, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Analyze(d)
		if a.Tasks != 1000 {
			b.Fatal("bad analysis")
		}
	}
}
