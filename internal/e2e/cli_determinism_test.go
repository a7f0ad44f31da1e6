package e2e

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestCLIByteDeterminism builds the hiway binary and, for every scheduling
// policy, runs the same simulated workflow twice in separate processes with
// the same chaos plan and seed. Both the full stdout and the provenance
// trace must be byte-identical — the CLI-level form of the engine's
// determinism guarantee, in the separate processes operators get.
func TestCLIByteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hiway")
	build := exec.Command("go", "build", "-o", bin, "hiway/cmd/hiway")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// A static DAX diamond, so static planners (roundrobin, heft) can run it
	// too; the chaos plan crashes one attempt and slows one node.
	wfPath := filepath.Join(dir, "det.dax")
	dax := `<adag name="det">
  <job id="A" name="gen" runtime="20"><uses file="in.dat" link="input"/><uses file="a.dat" link="output" sizeMB="64"/></job>
  <job id="B" name="gen" runtime="25"><uses file="in.dat" link="input"/><uses file="b.dat" link="output" sizeMB="32"/></job>
  <job id="C" name="merge" runtime="10"><uses file="a.dat" link="input"/><uses file="b.dat" link="input"/><uses file="c.dat" link="output" sizeMB="8"/></job>
</adag>`
	if err := os.WriteFile(wfPath, []byte(dax), 0o644); err != nil {
		t.Fatal(err)
	}

	// Each run gets its own working directory and writes the trace to the
	// same relative path, so the echoed output lines are comparable bytes.
	run := func(policy, runDir string) []byte {
		t.Helper()
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, "sim",
			"-w", wfPath, "-nodes", "4", "-policy", policy,
			"-input", "in.dat=64", "-prov", "prov.jsonl",
			"-chaos", "crash=gen@0:1;slow=node-01@15:1", "-chaos-seed", "9")
		cmd.Dir = runDir
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s run: %v\nstderr: %s", policy, err, stderr.String())
		}
		return stdout.Bytes()
	}

	for _, policy := range []string{"fcfs", "dataaware", "roundrobin", "heft", "adaptive"} {
		dir1 := filepath.Join(dir, policy+"-1")
		dir2 := filepath.Join(dir, policy+"-2")
		out1 := run(policy, dir1)
		out2 := run(policy, dir2)
		prov1 := filepath.Join(dir1, "prov.jsonl")
		prov2 := filepath.Join(dir2, "prov.jsonl")
		if !bytes.Equal(out1, out2) {
			t.Errorf("policy %s: stdout differs between identical runs:\n--- run 1\n%s--- run 2\n%s", policy, out1, out2)
		}
		p1, err := os.ReadFile(prov1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := os.ReadFile(prov2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p1, p2) {
			t.Errorf("policy %s: provenance traces differ between identical runs", policy)
		}
		if len(p1) == 0 {
			t.Errorf("policy %s: empty provenance trace", policy)
		}
	}
}
