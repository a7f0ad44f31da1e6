package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"hiway/internal/provenance"
)

// maxBodyBytes bounds a submission payload (workflow source included).
const maxBodyBytes = 4 << 20

// Route describes one registered API endpoint. Routes is the single source
// of truth: Handler registers exactly this table, and the docs tests check
// SERVICE.md documents exactly this table.
type Route struct {
	// Method is the HTTP method.
	Method string
	// Pattern is the Go 1.22 ServeMux pattern.
	Pattern string
}

// Routes returns the server's full endpoint table.
func Routes() []Route {
	return []Route{
		{Method: "POST", Pattern: "/v1/workflows"},
		{Method: "GET", Pattern: "/v1/workflows"},
		{Method: "GET", Pattern: "/v1/workflows/{id}"},
		{Method: "GET", Pattern: "/v1/workflows/{id}/events"},
		{Method: "GET", Pattern: "/v1/provenance"},
		{Method: "POST", Pattern: "/v1/drain"},
		{Method: "GET", Pattern: "/metrics"},
		{Method: "GET", Pattern: "/healthz"},
	}
}

// Handler builds the server's HTTP handler from the Routes table. Every
// route must have a registered implementation; a mismatch panics at
// construction, so the table and the mux cannot drift apart.
func (s *Server) Handler() http.Handler {
	impls := map[string]http.HandlerFunc{
		"POST /v1/workflows":            s.handleSubmit,
		"GET /v1/workflows":             s.handleList,
		"GET /v1/workflows/{id}":        s.handleStatus,
		"GET /v1/workflows/{id}/events": s.handleEvents,
		"GET /v1/provenance":            s.handleProvenance,
		"POST /v1/drain":                s.handleDrain,
		"GET /metrics":                  s.handleMetrics,
		"GET /healthz":                  s.handleHealth,
	}
	mux := http.NewServeMux()
	for _, rt := range Routes() {
		key := rt.Method + " " + rt.Pattern
		impl, ok := impls[key]
		if !ok {
			panic(fmt.Sprintf("service: route %q has no handler", key))
		}
		mux.HandleFunc(key, impl)
		delete(impls, key)
	}
	if len(impls) > 0 {
		panic(fmt.Sprintf("service: %d handlers not in the Routes table", len(impls)))
	}
	return mux
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBodyBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("reading body: %v", err)})
		return
	}
	if len(body) > maxBodyBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			ErrorResponse{Error: fmt.Sprintf("payload exceeds %d bytes", maxBodyBytes)})
		return
	}
	var sr SubmitRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("malformed JSON: %v", err)})
		return
	}
	code, resp := s.submit(&sr)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfterSec))))
	}
	writeJSON(w, code, resp)
}

// listResponse is the JSON body of GET /v1/workflows.
type listResponse struct {
	Runs []RunStatus `json:"runs"`
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	runs := s.runs.All()
	statuses := make([]RunStatus, 0, len(runs))
	for _, r := range runs {
		statuses = append(statuses, r.Status())
	}
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].ID < statuses[j].ID })
	writeJSON(w, http.StatusOK, listResponse{Runs: statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	r := s.runs.Load(req.PathValue("id"))
	if r == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no run %q", req.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, r.Status())
}

func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	r := s.runs.Load(req.PathValue("id"))
	if r == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no run %q", req.PathValue("id"))})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl, canFlush := w.(http.Flusher)
	write := func(ev RunEvent) {
		b, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b)
		if canFlush {
			fl.Flush()
		}
	}
	ch, replay, cancel := r.subscribe()
	defer cancel()
	for _, ev := range replay {
		write(ev)
	}
	if ch == nil {
		return // run already terminal: replay was the whole stream
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			write(ev)
		case <-req.Context().Done():
			return
		}
	}
}

// ProvenanceResponse is the JSON body of GET /v1/provenance without a query:
// a summary of the merged trace.
type ProvenanceResponse struct {
	// Events counts merged provenance events across all admitted runs.
	Events int `json:"events"`
	// MemoHits counts task completions spliced from the memo table.
	MemoHits int `json:"memoHits"`
}

// handleProvenance answers from the server's provenance index (see
// provIndex): without ?q= the event and memo-hit counts, with it a
// provenance query — "lineage <path>", "diff <runA> <runB>", or
// "memo-hits [run]" — as rendered text. The answer agrees with what
// FlushProvenance would write at this moment. Buffered events of
// still-running workflows may lag a flush interval.
func (s *Server) handleProvenance(w http.ResponseWriter, req *http.Request) {
	defer func(t0 time.Time) { s.prov.queryH.Observe(time.Since(t0).Seconds()) }(time.Now())
	qs := req.URL.Query().Get("q")
	if qs == "" {
		var resp ProvenanceResponse
		s.withProvIndex(func(ix *provenance.Index) { resp.Events, resp.MemoHits = ix.Counts() })
		writeJSON(w, http.StatusOK, resp)
		return
	}
	q, err := provenance.ParseQuery(qs)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	out, err := s.queryProvenance(q)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, out)
}

// DrainResponse is the JSON body of POST /v1/drain.
type DrainResponse struct {
	// Draining is true once admission has stopped.
	Draining bool `json:"draining"`
	// Queued counts runs still awaiting admission.
	Queued int `json:"queued"`
	// Running counts runs still executing.
	Running int `json:"running"`
}

func (s *Server) handleDrain(w http.ResponseWriter, req *http.Request) {
	s.StartDrain()
	s.mu.Lock()
	resp := DrainResponse{Draining: true, Queued: s.gate.Depth(), Running: s.gate.Running()}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.obs.M().WritePrometheus(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
