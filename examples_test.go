package hiway_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun builds the example programs under examples/ and runs each
// one, checking its closing line: every example is deterministic apart from
// quickstart's temporary directory, which is made under the test's own
// TMPDIR and must be gone when the program ends.
func TestExamplesRun(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, ex := range []struct{ name, last string }{
		{"quickstart", "provenance trace: 4 events in "},
		{"montage", "provenance accumulated: 234 task events over 6 workflow runs"},
		{"kmeans", "final centroids: [kmeans/update_18/centroids]"},
		{"variantcalling", "data-aware scheduling is 10% faster by keeping alignment input local"},
	} {
		t.Run(ex.name, func(t *testing.T) {
			tmp := t.TempDir()
			cmd := exec.Command(filepath.Join(bin, ex.name))
			cmd.Dir = tmp
			cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			last := lines[len(lines)-1]
			if ex.name == "quickstart" {
				want := ex.last + filepath.Join(tmp, "hiway-quickstart")
				if !strings.HasPrefix(last, want) || !strings.HasSuffix(last, "/trace.jsonl") {
					t.Fatalf("closing line %q, want %q…/trace.jsonl", last, want)
				}
			} else if last != ex.last {
				t.Fatalf("closing line %q, want %q", last, ex.last)
			}
			if left, _ := os.ReadDir(tmp); len(left) > 0 {
				t.Fatalf("left %d entries behind in %s", len(left), tmp)
			}
		})
	}
}
