package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envStamp records where a result was measured, so two results are compared
// only when that makes sense.
type envStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1_at_start"`
	// BusyCores is how many cores were busy over a 100 ms sample taken before
	// the run. Runs follow one another within seconds, so the 1-minute load
	// average still shows the previous run; the sample shows only what
	// competes with this one. A run that starts above half the cores busy is
	// marked invalid.
	BusyCores float64 `json:"busy_cores_at_start"`
}

func stampEnv() *envStamp {
	e := &envStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		e.Commit = c
	} else if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(b)); len(fields) > 0 {
			e.Load1, _ = strconv.ParseFloat(fields[0], 64)
		}
	}
	e.BusyCores = sampleBusyCores(100 * time.Millisecond)
	return e
}

// cpuJiffies reads the aggregate busy and total jiffies from /proc/stat.
func cpuJiffies() (busy, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 5 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i != 3 && i != 4 { // idle, iowait
			busy += v
		}
	}
	return busy, total, true
}

func sampleBusyCores(d time.Duration) float64 {
	b0, t0, ok := cpuJiffies()
	if !ok {
		return 0
	}
	time.Sleep(d)
	b1, t1, ok := cpuJiffies()
	if !ok || t1 <= t0 {
		return 0
	}
	return (b1 - b0) / (t1 - t0) * float64(runtime.NumCPU())
}
