//go:build unix

package localexec

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"hiway/internal/lang/cuneiform"
)

// TestTimeoutKillsGrandchildren verifies the process-group kill: a task
// that backgrounds a long-running grandchild must not leave it alive after
// the timeout fires, or the "dead" task would keep consuming the machine.
func TestTimeoutKillsGrandchildren(t *testing.T) {
	dir := t.TempDir()
	// The shell (child) backgrounds a sleep (grandchild), records its pid,
	// then blocks. Killing only the shell would orphan the sleep.
	d := cuneiform.NewDriver("orphan", `
deftask spawn( out : ~x ) in bash *{ sleep 60 & echo $! > gc.pid; sync; wait }*
spawn( x: "1" );`)
	rep, err := Run(d, Config{WorkDir: dir, Timeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("timeout must fail the task")
	}
	if rep.Results[0].ExitCode != 124 {
		t.Fatalf("exit = %d, want 124", rep.Results[0].ExitCode)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "data", "gc.pid"))
	if err != nil {
		t.Fatalf("grandchild pid not recorded: %v", err)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("bad pid %q: %v", raw, err)
	}
	// The group kill is synchronous with Cancel, but give the kernel a
	// moment to reap before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		// Signal 0 probes existence. ESRCH means the grandchild is gone;
		// EPERM would mean it still exists under another uid.
		err := syscall.Kill(pid, 0)
		if err == syscall.ESRCH {
			return
		}
		if time.Now().After(deadline) {
			syscall.Kill(pid, syscall.SIGKILL) // don't actually leak it
			t.Fatalf("grandchild %d still alive after timeout (err=%v)", pid, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
