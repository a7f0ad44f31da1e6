package service

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/http"
	"regexp"
	"slices"
	"strings"

	"hiway/internal/lang"
)

// Run states reported by the status API.
const (
	// StateQueued means the submission was accepted and awaits admission.
	StateQueued = "queued"
	// StateRunning means the workflow's AM goroutine is executing.
	StateRunning = "running"
	// StateSucceeded means the workflow terminated with every task done.
	StateSucceeded = "succeeded"
	// StateFailed means the workflow terminated in failure.
	StateFailed = "failed"
)

// InputSpec stages one input file into the workflow's HDFS before launch.
type InputSpec struct {
	// Path is the HDFS path of the staged file.
	Path string `json:"path"`
	// SizeMB is the simulated file size.
	SizeMB float64 `json:"sizeMB"`
}

// SubmitRequest is the JSON body of POST /v1/workflows. Exactly one of
// Source (with Lang) or Workload must be set: Source submits workflow text
// in any supported frontend language, Workload asks the server to
// instantiate one of the built-in paper DAG generators.
type SubmitRequest struct {
	// Tenant names the submitting tenant; it must be registered with the
	// server (unknown tenants are rejected with 403).
	Tenant string `json:"tenant"`
	// Name is the client-chosen run name, unique per tenant; the run ID
	// becomes "<tenant>-<name>". Letters, digits, dot, underscore, dash.
	Name string `json:"name"`
	// Lang forces the frontend language for Source: cuneiform, dax,
	// galaxy, cwl, or trace. Empty Lang sniffs the source with the shared
	// detector (CWL documents carry cwlVersion, DAX is XML, Galaxy exports
	// are tagged JSON; the fallback is cuneiform).
	Lang string `json:"lang,omitempty"`
	// Source is the workflow text, parsed by the Lang frontend.
	Source string `json:"source,omitempty"`
	// Workload instantiates a built-in DAG generator instead of Source.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Policy overrides the server's default scheduling policy for this run.
	Policy string `json:"policy,omitempty"`
	// Inputs are staged into the run's HDFS before launch.
	Inputs []InputSpec `json:"inputs,omitempty"`
	// Binds maps Galaxy workflow inputs to staged paths.
	Binds map[string]string `json:"binds,omitempty"`
}

// SubmitResponse is the JSON body of a 202 submission acceptance.
type SubmitResponse struct {
	// ID is the server-assigned run ID, "<tenant>-<name>".
	ID string `json:"id"`
	// State is the run's state at acceptance (queued).
	State string `json:"state"`
}

// ErrorResponse is the JSON body of every non-2xx API response.
type ErrorResponse struct {
	// Error describes what was rejected and why.
	Error string `json:"error"`
	// RetryAfterSec accompanies 429 responses: the client should retry
	// after this many seconds (also sent as the Retry-After header).
	RetryAfterSec float64 `json:"retryAfterSec,omitempty"`
}

// RunStatus is the JSON body of GET /v1/workflows/{id} (and, with only the
// identity and state fields populated, the elements of GET /v1/workflows).
type RunStatus struct {
	// ID is the run ID.
	ID string `json:"id"`
	// Tenant is the submitting tenant.
	Tenant string `json:"tenant"`
	// Name is the client-chosen run name.
	Name string `json:"name"`
	// State is queued, running, succeeded, or failed.
	State string `json:"state"`
	// SubmitAt is the first submission time in service seconds (wall
	// seconds since server start, or virtual seconds in deterministic
	// mode).
	SubmitAt float64 `json:"submitAt"`
	// AdmitAt is the admission time in service seconds.
	AdmitAt float64 `json:"admitAt,omitempty"`
	// EndAt is the terminal time in service seconds.
	EndAt float64 `json:"endAt,omitempty"`
	// Tasks is the task count of the parsed workflow (terminal states).
	Tasks int `json:"tasks,omitempty"`
	// CompletedTasks lists the completed tasks' signatures, sorted — the
	// per-run slice of the completed-task multiset.
	CompletedTasks []string `json:"completedTasks,omitempty"`
	// Outputs lists the workflow's output paths.
	Outputs []string `json:"outputs,omitempty"`
	// MakespanSec is the workflow's virtual makespan on its simulated
	// cluster — identical for the same submission in real and
	// deterministic mode.
	MakespanSec float64 `json:"makespanSec,omitempty"`
	// Rejections counts 429-rejected submission attempts for this run ID
	// before it was accepted.
	Rejections int `json:"rejections,omitempty"`
	// Error is the terminal error, if the run failed.
	Error string `json:"error,omitempty"`
}

// RunEvent is one Server-Sent Event on GET /v1/workflows/{id}/events.
type RunEvent struct {
	// Type is queued, admitted, progress, or finished.
	Type string `json:"type"`
	// At is the event time in service seconds.
	At float64 `json:"at"`
	// State accompanies finished events: succeeded or failed.
	State string `json:"state,omitempty"`
	// Task names the just-completed task on progress events.
	Task string `json:"task,omitempty"`
	// Completed counts completed tasks so far on progress events.
	Completed int `json:"completed,omitempty"`
}

// runName constrains client-chosen names to URL- and HDFS-safe tokens.
var runName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]*$`)

// apiError is a validation failure with an HTTP status.
type apiError struct {
	code int
	msg  string
}

func errf(code int, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...)}
}

// validate checks the request against the server's tenant set, returning an
// apiError carrying the HTTP status to reject with.
func (r *SubmitRequest) validate(tenants map[string]*TenantProfile) *apiError {
	if r.Tenant == "" {
		return errf(http.StatusBadRequest, "missing tenant")
	}
	if _, ok := tenants[r.Tenant]; !ok {
		return errf(http.StatusForbidden, "unknown tenant %q", r.Tenant)
	}
	if r.Name == "" || !runName.MatchString(r.Name) {
		return errf(http.StatusBadRequest, "run name %q must match %s", r.Name, runName)
	}
	hasSource, hasWorkload := r.Source != "", r.Workload != nil
	if hasSource == hasWorkload {
		return errf(http.StatusBadRequest, "exactly one of source or workload must be set")
	}
	if hasSource && r.Lang != "" && !lang.IsKnown(r.Lang) {
		return errf(http.StatusBadRequest, "unknown lang %q (want %s)", r.Lang, strings.Join(lang.Known(), ", "))
	}
	if hasWorkload {
		if err := r.Workload.validate(); err != nil {
			return errf(http.StatusBadRequest, "%v", err)
		}
	}
	for _, in := range r.Inputs {
		if in.Path == "" || in.SizeMB <= 0 {
			return errf(http.StatusBadRequest, "input %q needs a path and a positive sizeMB", in.Path)
		}
		if err := tierHDFS.CheckSize(in.SizeMB); err != nil {
			return errf(http.StatusBadRequest, "input %q: %v", in.Path, err)
		}
	}
	return nil
}

// TimedSubmission is one seeded arrival: the request and the virtual time
// at which the deterministic replay submits it (and at which an external
// load generator should).
type TimedSubmission struct {
	// At is the arrival time in virtual seconds from the window start.
	At float64
	// Req is the submission payload.
	Req SubmitRequest
}

// SeededSubmissions pre-generates the open-loop arrival schedule for the
// profiles over [0, durationSec): per-tenant Poisson substreams (so adding
// a tenant does not perturb the others) with per-tenant sequence-numbered
// run names wNNN. The same (seed, profiles, duration) triple always yields
// the same submission list — it is the one arrival generator: Service.Start
// schedules it, the deterministic replay submits it, and a live HTTP load
// test compares against it.
func SeededSubmissions(seed int64, profiles []TenantProfile, durationSec float64) []TimedSubmission {
	type arrival struct {
		at      float64
		profile int
	}
	var arrivals []arrival
	for i := range profiles {
		if profiles[i].RatePerSec <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed + int64(i+1)*0x9e3779b9))
		t := 0.0
		for {
			t += rng.ExpFloat64() / profiles[i].RatePerSec
			if t >= durationSec {
				break
			}
			arrivals = append(arrivals, arrival{at: t, profile: i})
		}
	}
	slices.SortStableFunc(arrivals, func(a, b arrival) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.profile, b.profile))
	})
	seq := make([]int, len(profiles))
	var out []TimedSubmission
	for _, a := range arrivals {
		p := profiles[a.profile]
		burst := p.Burst
		if burst <= 0 {
			burst = 1
		}
		for b := 0; b < burst; b++ {
			spec := p.Workload
			out = append(out, TimedSubmission{
				At: a.at,
				Req: SubmitRequest{
					Tenant:   p.Name,
					Name:     fmt.Sprintf("w%03d", seq[a.profile]),
					Workload: &spec,
				},
			})
			seq[a.profile]++
		}
	}
	return out
}
