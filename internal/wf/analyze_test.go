package wf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// analyzeFixture: a diamond with a heavy branch.
//
//	prep → heavy → final
//	     ↘ light ↗
func analyzeFixture(t *testing.T) *DAG {
	t.Helper()
	var fx fixture
	prep := fx.mkTask("prep", []string{"in"}, "x")
	prep.CPUSeconds = 10
	heavy := fx.mkTask("heavy", []string{"x"}, "y1")
	heavy.CPUSeconds = 100
	heavy.MemMB = 4096
	light := fx.mkTask("light", []string{"x"}, "y2")
	light.CPUSeconds = 5
	final := fx.mkTask("final", []string{"y1", "y2"}, "z")
	final.CPUSeconds = 20
	d, err := NewDAG([]*Task{prep, heavy, light, final}, []string{"in"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAnalyzeStructure(t *testing.T) {
	a := Analyze(analyzeFixture(t))
	if a.Tasks != 4 || a.Edges != 4 {
		t.Fatalf("tasks=%d edges=%d", a.Tasks, a.Edges)
	}
	if a.Depth != 3 {
		t.Fatalf("depth = %d, want 3", a.Depth)
	}
	if a.MaxParallelism != 2 {
		t.Fatalf("parallelism = %d, want 2", a.MaxParallelism)
	}
	if len(a.LevelWidths) != 3 || a.LevelWidths[0] != 1 || a.LevelWidths[1] != 2 || a.LevelWidths[2] != 1 {
		t.Fatalf("level widths = %v", a.LevelWidths)
	}
	if a.TotalCPUSeconds != 135 {
		t.Fatalf("total cpu = %g", a.TotalCPUSeconds)
	}
	// Critical path: prep(10) + heavy(100) + final(20) = 130.
	if a.CriticalPathCPUSeconds != 130 {
		t.Fatalf("critical path = %g, want 130", a.CriticalPathCPUSeconds)
	}
	if a.MaxMemMB != 4096 {
		t.Fatalf("max mem = %d", a.MaxMemMB)
	}
	if a.InitialInputs != 1 {
		t.Fatalf("inputs = %d", a.InitialInputs)
	}
	if a.Signatures["heavy"] != 1 || len(a.Signatures) != 4 {
		t.Fatalf("signatures = %v", a.Signatures)
	}
	// Output volume: 4 × 1 MB from mkTask.
	if a.TotalOutputMB != 4 {
		t.Fatalf("output MB = %g", a.TotalOutputMB)
	}
}

func TestAnalyzeRender(t *testing.T) {
	out := Analyze(analyzeFixture(t)).Render()
	for _, want := range []string{"tasks:", "critical path:", "130 core-seconds", "heavy", "max parallelism:  2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeEmptyDAG(t *testing.T) {
	d, err := NewDAG(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(d)
	if a.Tasks != 0 || a.Depth != 0 || a.MaxParallelism != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
}

func TestAnalyzeWideFanOut(t *testing.T) {
	var fx fixture
	var tasks []*Task
	for i := 0; i < 20; i++ {
		task := fx.mkTask("w", nil, "o"+string(rune('a'+i)))
		task.CPUSeconds = 1
		tasks = append(tasks, task)
	}
	d, _ := NewDAG(tasks, nil, nil)
	a := Analyze(d)
	if a.Depth != 1 || a.MaxParallelism != 20 {
		t.Fatalf("fan-out analysis = %+v", a)
	}
	if a.CriticalPathCPUSeconds != 1 {
		t.Fatalf("critical path = %g", a.CriticalPathCPUSeconds)
	}
}

// Property over random layered DAGs: level widths sum to the task count,
// depth never exceeds the task count, and the critical path never exceeds
// the total CPU demand.
func TestAnalyzeInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		var fx fixture
		rng := rand.New(rand.NewSource(seed))
		layers := rng.Intn(5) + 1
		var tasks []*Task
		prev := []string{"seed"}
		for l := 0; l < layers; l++ {
			width := rng.Intn(5) + 1
			var outs []string
			for w := 0; w < width; w++ {
				out := fmt.Sprintf("o-%d-%d", l, w)
				task := fx.mkTask("t", []string{prev[rng.Intn(len(prev))]}, out)
				task.CPUSeconds = rng.Float64() * 50
				tasks = append(tasks, task)
				outs = append(outs, out)
			}
			prev = outs
		}
		d, err := NewDAG(tasks, []string{"seed"}, nil)
		if err != nil {
			return false
		}
		a := Analyze(d)
		sum := 0
		for _, w := range a.LevelWidths {
			sum += w
		}
		return sum == a.Tasks &&
			a.Depth <= a.Tasks &&
			a.MaxParallelism <= a.Tasks &&
			a.CriticalPathCPUSeconds <= a.TotalCPUSeconds+1e-9 &&
			a.Depth == layers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
