package cwl

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hiway/internal/wf"
)

// TestDocumentCompiledConcurrently compiles each decoded sample document
// under two run names at once: each name gets the tasks, inputs and error a
// fresh decode of the source gives it, and the document stays as decoded —
// which is what lets a server decode a document once for all its runs.
func TestDocumentCompiledConcurrently(t *testing.T) {
	names := []string{"run-a", "run-b"}
	compiled := 0
	for _, src := range append([]string{sampleCWL}, decodeSamples...) {
		doc, err := Decode("doc", src)
		if err != nil {
			continue
		}
		decoded, _ := decode("doc", src)
		type result struct {
			tasks  []*wf.Task
			inputs []string
			err    error
		}
		got := make([]result, len(names))
		var wg sync.WaitGroup
		for i, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i].tasks, got[i].inputs, _, got[i].err = doc.Driver(name, Options{Inputs: map[string]string{"reads": "/in/r.fq"}}).Build()
			}()
		}
		wg.Wait()
		for i, name := range names {
			tasks, inputs, _, err := build(name, src, Options{Inputs: map[string]string{"reads": "/in/r.fq"}})
			if fmt.Sprint(got[i].err) != fmt.Sprint(err) || !reflect.DeepEqual(got[i].tasks, tasks) || !reflect.DeepEqual(got[i].inputs, inputs) {
				t.Fatalf("%s: compiled from the shared document: %v %v; from a fresh decode: %v %v", name, got[i].tasks, got[i].err, tasks, err)
			}
			if err == nil {
				compiled++
			}
		}
		if !reflect.DeepEqual(doc.d, decoded) {
			t.Fatalf("compiling changed the decoded document of %.80q", src)
		}
	}
	if compiled < 10 {
		t.Fatalf("only %d compiles succeeded: the samples lost their mix", compiled)
	}
}
