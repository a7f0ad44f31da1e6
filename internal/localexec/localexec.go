// Package localexec runs workflows with real processes on the local
// machine — the proof that Hi-WAY's black-box task model drives actual
// tools, not only the simulated substrate. It executes any wf.Driver
// (including iterative Cuneiform workflows) with a pool of parallel
// workers, a shared data directory standing in for HDFS, per-task
// environment bindings, and wall-clock provenance.
package localexec

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hiway/internal/provenance"
	"hiway/internal/wf"
)

// Config tunes local execution.
type Config struct {
	// WorkDir is the staging root; its data/ subdirectory plays the role
	// of HDFS. Required.
	WorkDir string
	// Workers is the number of tasks run in parallel (default: NumCPU,
	// capped at 8).
	Workers int
	// Timeout bounds one task's execution (0 = unbounded).
	Timeout time.Duration
	// Prov, if set, receives workflow/task events with wall-clock times,
	// under the workflow ID local-<driver name>-<process ID>.
	Prov *provenance.Manager
}

// Report summarizes a local run.
type Report struct {
	WorkflowName string
	MakespanSec  float64
	Results      []*wf.TaskResult
	Outputs      []string // absolute paths under the data directory
}

const maxCaptureBytes = 64 * 1024

// Run executes the workflow to completion.
func Run(driver wf.Driver, cfg Config) (*Report, error) {
	if cfg.WorkDir == "" {
		return nil, fmt.Errorf("localexec: WorkDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
		if cfg.Workers > 8 {
			cfg.Workers = 8
		}
	}
	dataDir := filepath.Join(cfg.WorkDir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("localexec: creating data dir: %w", err)
	}

	// Task commands run in bash, or in sh where bash is missing.
	shell := "bash"
	if _, err := exec.LookPath(shell); err != nil {
		shell = "sh"
	}
	id := fmt.Sprintf("local-%s-%d", driver.Name(), os.Getpid())
	r := &runner{cfg: cfg, driver: driver, id: id, shell: shell, dataDir: dataDir, start: time.Now()}
	return r.run()
}

type runner struct {
	cfg     Config
	driver  wf.Driver
	id      string // the workflow ID in reports and provenance
	shell   string
	dataDir string
	start   time.Time
}

func (r *runner) now() float64 { return time.Since(r.start).Seconds() }

func (r *runner) provStart() {
	if r.cfg.Prov != nil {
		_ = r.cfg.Prov.RecordWorkflowStart(r.id, r.driver.Name(), r.now())
	}
}

func (r *runner) provEnd(ok bool) {
	if r.cfg.Prov != nil {
		_ = r.cfg.Prov.RecordWorkflowEnd(r.id, r.driver.Name(), r.now(), r.now(), ok)
	}
}

func (r *runner) provTask(res *wf.TaskResult) {
	if r.cfg.Prov == nil {
		return
	}
	ev := provenance.TaskEndEvent(r.id, r.driver.Name(), res)
	for i := range ev.Inputs {
		if st, err := os.Stat(filepath.Join(r.dataDir, filepath.FromSlash(ev.Inputs[i].Path))); err == nil {
			ev.Inputs[i].SizeMB = float64(st.Size()) / (1024 * 1024)
		}
	}
	_ = r.cfg.Prov.Record(ev)
}

// run is the dispatcher loop: ready tasks go to a bounded worker pool;
// completions feed the driver, which may discover more tasks.
func (r *runner) run() (*Report, error) {
	report := &Report{WorkflowName: r.driver.Name()}
	r.provStart()
	finishErr := func(err error) (*Report, error) {
		report.MakespanSec = r.now()
		r.provEnd(err == nil)
		if err == nil {
			for _, out := range r.driver.Outputs() {
				report.Outputs = append(report.Outputs, filepath.Join(r.dataDir, filepath.FromSlash(out)))
			}
		}
		return report, err
	}

	ready, err := r.driver.Parse()
	if err != nil {
		return finishErr(fmt.Errorf("localexec: parsing: %w", err))
	}
	results := make(chan *wf.TaskResult)
	slots := make(chan struct{}, r.cfg.Workers)
	running := 0
	launch := func(t *wf.Task) {
		running++
		go func() {
			slots <- struct{}{}
			res := r.execute(t)
			<-slots
			results <- res
		}()
	}
	for _, t := range ready {
		launch(t)
	}
	for running > 0 {
		res := <-results
		running--
		report.Results = append(report.Results, res)
		r.provTask(res)
		next, err := r.driver.OnTaskComplete(res)
		if err != nil {
			// Drain remaining workers before reporting.
			for running > 0 {
				extra := <-results
				running--
				report.Results = append(report.Results, extra)
				r.provTask(extra)
			}
			return finishErr(err)
		}
		for _, t := range next {
			launch(t)
		}
	}
	if !r.driver.Done() {
		return finishErr(fmt.Errorf("localexec: workflow %s stalled after %d tasks", r.driver.Name(), len(report.Results)))
	}
	return finishErr(nil)
}

// execute runs one task as a real process in the data directory.
func (r *runner) execute(t *wf.Task) *wf.TaskResult {
	res := &wf.TaskResult{Task: t, Node: hostname(), Start: r.now()}
	fail := func(code int, format string, args ...any) *wf.TaskResult {
		res.ExitCode = code
		res.Error = fmt.Sprintf(format, args...)
		res.End = r.now()
		return res
	}

	// Stage-in check: every input must exist in the data directory.
	for _, in := range t.Inputs {
		if _, err := os.Stat(filepath.Join(r.dataDir, filepath.FromSlash(in))); err != nil {
			return fail(1, "input %s missing: %v", in, err)
		}
	}
	// Pre-create output parent directories.
	for _, fi := range t.DeclaredOutputs() {
		dir := filepath.Dir(filepath.Join(r.dataDir, filepath.FromSlash(fi.Path)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(1, "creating output dir: %v", err)
		}
	}

	if strings.TrimSpace(t.Command) != "" {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if r.cfg.Timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, r.cfg.Timeout)
		}
		defer cancel()
		cmd := exec.CommandContext(ctx, r.shell, "-c", t.Command)
		// Kill the whole process group on timeout so background
		// grandchildren die with the shell; WaitDelay is the backstop for
		// anything that still holds the output pipes.
		setupProcessGroup(cmd)
		cmd.WaitDelay = time.Second
		cmd.Dir = r.dataDir
		cmd.Env = os.Environ()
		for k, v := range t.Env {
			cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%s", k, v))
		}
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		execStart := r.now()
		err := cmd.Run()
		res.ExecSec = r.now() - execStart
		res.Stdout = clip(stdout.String())
		res.Stderr = clip(stderr.String())
		if ctx.Err() == context.DeadlineExceeded {
			return fail(124, "task timed out after %s", r.cfg.Timeout)
		}
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				return fail(ee.ExitCode(), "command failed: %v", err)
			}
			return fail(1, "launching command: %v", err)
		}
	}

	// Collect declared outputs with their real sizes.
	res.Outputs = make(map[string][]wf.FileInfo, len(t.OutputParams))
	for _, param := range t.OutputParams {
		for _, fi := range t.Declared[param] {
			abs := filepath.Join(r.dataDir, filepath.FromSlash(fi.Path))
			st, err := os.Stat(abs)
			if err != nil {
				return fail(1, "declared output %s not produced", fi.Path)
			}
			res.Outputs[param] = append(res.Outputs[param],
				wf.FileInfo{Path: fi.Path, SizeMB: float64(st.Size()) / (1024 * 1024)})
		}
	}
	res.End = r.now()
	return res
}

func clip(s string) string {
	if len(s) > maxCaptureBytes {
		return s[:maxCaptureBytes] + "\n...[truncated]"
	}
	return s
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "localhost"
	}
	return h
}

// Stage copies (or creates) an input file into the run's data directory —
// the local analogue of putting workflow input data into HDFS.
func Stage(workDir, path string, content []byte) error {
	abs := filepath.Join(workDir, "data", filepath.FromSlash(path))
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		return fmt.Errorf("localexec: staging %s: %w", path, err)
	}
	return os.WriteFile(abs, content, 0o644)
}
