package dax

import (
	"strings"
	"testing"

	"hiway/internal/wf"
)

const sampleDAX = `<?xml version="1.0" encoding="UTF-8"?>
<adag xmlns="http://pegasus.isi.edu/schema/DAX" name="diamond" version="2.1">
  <job id="ID0001" namespace="montage" name="mProject" runtime="30" threads="2" memMB="512">
    <argument>-X region.hdr</argument>
    <uses file="region.hdr" link="input" sizeMB="0.5"/>
    <uses file="img1.fits" link="input" size="104857600"/>
    <uses file="proj1.fits" link="output" sizeMB="120"/>
  </job>
  <job id="ID0002" name="mProject" runtime="30">
    <uses file="region.hdr" link="input" sizeMB="0.5"/>
    <uses file="img2.fits" link="input" size="104857600"/>
    <uses file="proj2.fits" link="output" sizeMB="120"/>
  </job>
  <job id="ID0003" name="mAdd" runtime="60">
    <uses file="proj1.fits" link="input"/>
    <uses file="proj2.fits" link="input"/>
    <uses file="mosaic.fits" link="output" sizeMB="200"/>
  </job>
  <child ref="ID0003">
    <parent ref="ID0001"/>
    <parent ref="ID0002"/>
  </child>
</adag>`

func TestParseSampleDAX(t *testing.T) {
	d := NewDriver("diamond", sampleDAX)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 2 {
		t.Fatalf("initially ready = %d, want 2 projections", len(ready))
	}
	all := d.Graph().All()
	if len(all) != 3 {
		t.Fatalf("tasks = %d", len(all))
	}
	proj := all[0]
	if proj.Name != "mProject" || proj.CPUSeconds != 30 || proj.Threads != 2 || proj.MemMB != 512 {
		t.Fatalf("job attrs not parsed: %+v", proj)
	}
	if len(proj.Inputs) != 2 {
		t.Fatalf("inputs = %v", proj.Inputs)
	}
	if got := proj.Declared["out"][0]; got.Path != "proj1.fits" || got.SizeMB != 120 {
		t.Fatalf("output = %+v", got)
	}
	if !strings.Contains(proj.Command, "mProject") || !strings.Contains(proj.Command, "region.hdr") {
		t.Fatalf("command = %q", proj.Command)
	}
	// Byte size conversion: 104857600 B = 100 MB, recorded on the input
	// side only (inputs are paths; sizes live with the producer/staging).
	init := d.Graph().InitialInputs()
	want := []string{"img1.fits", "img2.fits", "region.hdr"}
	if len(init) != 3 {
		t.Fatalf("initial inputs = %v, want %v", init, want)
	}
	// The join waits for both parents (data edges AND explicit edges).
	add := all[2]
	if len(d.Graph().Predecessors(add)) != 2 {
		t.Fatalf("mAdd predecessors = %v", d.Graph().Predecessors(add))
	}
}

func TestExecutionOrder(t *testing.T) {
	d := NewDriver("diamond", sampleDAX)
	ready, err := d.Parse()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for len(ready) > 0 {
		task := ready[0]
		ready = ready[1:]
		done++
		res := &wf.TaskResult{Task: task, Outputs: map[string][]wf.FileInfo{"out": task.Declared["out"]}}
		next, err := d.OnTaskComplete(res)
		if err != nil {
			t.Fatal(err)
		}
		ready = append(ready, next...)
	}
	if done != 3 || !d.Done() {
		t.Fatalf("done=%d finished=%v", done, d.Done())
	}
	outs := d.Outputs()
	if len(outs) != 1 || outs[0] != "mosaic.fits" {
		t.Fatalf("outputs = %v", outs)
	}
}

func TestDefaultsWhenUnannotated(t *testing.T) {
	src := `<adag name="p">
  <job id="J1" name="anon">
    <uses file="out.dat" link="output"/>
  </job>
</adag>`
	d := NewDriver("p", src)
	if _, err := d.Parse(); err != nil {
		t.Fatal(err)
	}
	task := d.Graph().All()[0]
	if task.Threads != 1 {
		t.Fatalf("threads = %d, want default 1", task.Threads)
	}
	if task.Declared["out"][0].SizeMB != 1 {
		t.Fatalf("default output size = %+v", task.Declared["out"])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"not xml":        `{"json": true}`,
		"no jobs":        `<adag name="x"></adag>`,
		"missing id":     `<adag><job name="a"><uses file="o" link="output"/></job></adag>`,
		"missing name":   `<adag><job id="J"><uses file="o" link="output"/></job></adag>`,
		"duplicate id":   `<adag><job id="J" name="a"><uses file="o1" link="output"/></job><job id="J" name="b"><uses file="o2" link="output"/></job></adag>`,
		"bad link":       `<adag><job id="J" name="a"><uses file="o" link="sideways"/></job></adag>`,
		"empty file":     `<adag><job id="J" name="a"><uses file="" link="output"/></job></adag>`,
		"unknown child":  `<adag><job id="J" name="a"><uses file="o" link="output"/></job><child ref="NOPE"><parent ref="J"/></child></adag>`,
		"unknown parent": `<adag><job id="J" name="a"><uses file="o" link="output"/></job><child ref="J"><parent ref="NOPE"/></child></adag>`,
		"dangling input": `<adag><job id="J" name="a"><uses file="ghost-not-initial" link="input"/><uses file="o" link="output"/></job><job id="K" name="b"><uses file="o" link="input"/><uses file="ghost-not-initial" link="output"/></job></adag>`,
	}
	for name, src := range cases {
		d := NewDriver(name, src)
		if _, err := d.Parse(); err == nil {
			t.Errorf("%s: Parse should fail", name)
		}
	}
}
