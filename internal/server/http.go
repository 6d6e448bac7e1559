package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"arcc/internal/exhibit"
)

// maxRequestBody bounds a job submission; scenarios are small JSON
// documents, so 1 MiB is generous.
const maxRequestBody = 1 << 20

// jobRequest is the POST /v1/jobs body. Exactly one of Exhibit and
// Scenario must be set; Scenario is an inline exhibit.Scenario object
// (same schema as the -scenario files), parsed strictly over the scenario
// defaults.
type jobRequest struct {
	Exhibit  string          `json:"exhibit,omitempty"`
	Scenario json.RawMessage `json:"scenario,omitempty"`
	Seed     int64           `json:"seed,omitempty"`
	Trials   int             `json:"trials,omitempty"`
	Parallel int             `json:"parallel,omitempty"`
	Quick    bool            `json:"quick,omitempty"`
	Format   string          `json:"format,omitempty"`
}

// JobStatus is the wire form of a job's state, returned by the submit,
// status, cancel, and list endpoints (and by a not-ready result poll).
type JobStatus struct {
	ID      string `json:"id"`
	Exhibit string `json:"exhibit"`
	State   State  `json:"state"`
	Format  string `json:"format"`
	// Cached marks a job served from the result cache without running.
	Cached bool `json:"cached,omitempty"`
	// Coalesced marks a job attached to an identical in-flight job rather
	// than sweeping on its own; it settles when that job does.
	Coalesced bool `json:"coalesced,omitempty"`
	// Recovered marks a job re-enqueued from the journal after a restart;
	// Resumed additionally means saved checkpoints let it skip completed
	// shards instead of re-running from scratch.
	Recovered bool `json:"recovered,omitempty"`
	Resumed   bool `json:"resumed,omitempty"`
	// Error carries the failure (or cancellation) cause in terminal states.
	Error string `json:"error,omitempty"`
	// Progress reports the engine job the exhibit is currently running;
	// one exhibit may run several engine jobs back to back, and Cumulative
	// counts trials finished across all of them.
	Progress *ProgressStatus `json:"progress,omitempty"`

	Created  string `json:"created,omitempty"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
}

// ProgressStatus is a point-in-time progress snapshot.
type ProgressStatus struct {
	Done       int `json:"done"`
	Total      int `json:"total"`
	Cumulative int `json:"cumulative"`
}

// ExhibitInfo is one row of the GET /v1/exhibits listing.
type ExhibitInfo struct {
	Name     string `json:"name"`
	Title    string `json:"title"`
	Describe string `json:"describe"`
}

// Handler returns the service's HTTP API. Every handler runs under a
// recover guard that converts a panic into a 500 response, so no request
// can take the process down.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/exhibits", s.handleExhibits)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	return recoverMiddleware(mux)
}

func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	jobs := len(s.jobs)
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if closed {
		status = "shutting down"
		code = http.StatusServiceUnavailable
	}
	m := s.Metrics()
	writeJSON(w, code, map[string]any{
		"status":         status,
		"jobs":           jobs,
		"jobs_run":       m.JobsRun,
		"cache_hits":     m.CacheHits,
		"jobs_coalesced": m.JobsCoalesced,
		"jobs_recovered": m.JobsRecovered,
		"durable":        s.store != nil,
	})
}

func (s *Server) handleExhibits(w http.ResponseWriter, _ *http.Request) {
	all := exhibit.All()
	out := make([]ExhibitInfo, 0, len(all))
	for _, e := range all {
		out = append(out, ExhibitInfo{Name: e.Name, Title: e.Title, Describe: e.Describe})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("job request body exceeds the %d-byte limit", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err))
		return
	}
	rec, ex, err := s.validate(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rec.ID = s.nextID()
	j := s.newJob(rec, ex)
	if err := s.admit(j); err != nil { // shutting down or queue full
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.journal(j, true) // with the terminal record of a job already settled, such as a cache hit
	code := http.StatusAccepted
	if j.status().State == StateDone { // cache hit: the result is ready now
		code = http.StatusCreated
	}
	writeJSON(w, code, j.status())
}

// validate turns a request body into a checked submit record and its
// exhibit, or an error for a 400. Everything a user can get wrong —
// unknown fields, unknown exhibits, invalid scenarios, out-of-range
// knobs, bad formats — is caught here, so no request reaches the
// panic-on-misuse library boundary of mc job construction. Past strict
// parsing, the rules are the ones a replayed journal record must pass
// too (Server.check), which resolves a scenario through
// NewScenarioExhibit.
func (s *Server) validate(body []byte) (journalRecord, exhibit.Exhibit, error) {
	var req jobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return journalRecord{}, exhibit.Exhibit{}, fmt.Errorf("parsing job request: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		return journalRecord{}, exhibit.Exhibit{}, fmt.Errorf("trailing content %v after the job object", tok)
	}
	rec := journalRecord{
		Op:       opSubmit,
		Exhibit:  req.Exhibit,
		Format:   req.Format,
		Seed:     req.Seed,
		Trials:   req.Trials,
		Parallel: req.Parallel,
		Quick:    req.Quick,
	}
	if len(req.Scenario) != 0 {
		// ParseScenario overlays the request's scenario on the documented
		// defaults and rejects unknown fields; check resolves it. The
		// effective scenario rides in the record so the journal can
		// re-create the job.
		sc, err := exhibit.ParseScenario(bytes.NewReader(req.Scenario))
		if err != nil {
			return journalRecord{}, exhibit.Exhibit{}, err
		}
		rec.Scenario = &sc
	}
	ex, err := s.check(&rec)
	return rec, ex, err
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.snapshotJobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	format := j.format
	if q := r.URL.Query().Get("format"); q != "" {
		format = q
	}
	renderer, err := exhibit.RendererFor(format)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	st := j.status()
	switch st.State {
	case StateQueued, StateRunning:
		// Not ready yet: report progress so pollers can back off sensibly.
		writeJSON(w, http.StatusAccepted, st)
		return
	case StateCanceled:
		writeJSON(w, http.StatusGone, st)
		return
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, st)
		return
	}

	j.mu.Lock()
	report := j.report
	j.mu.Unlock()
	if report == nil {
		// A done job recovered from the journal whose persisted result was
		// lost or evicted: the outcome is known but the bytes are not.
		writeError(w, http.StatusGone, "result no longer available (evicted after a restart)")
		return
	}
	w.Header().Set("Content-Type", contentType(format))
	// Render into a buffer first so a mid-render error can still become a
	// clean 500 instead of a truncated 200.
	var buf bytes.Buffer
	if err := renderer.Render(&buf, report); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func contentType(format string) string {
	switch format {
	case "json":
		return "application/json"
	case "csv":
		return "text/csv"
	}
	return "text/plain; charset=utf-8"
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Exhibit:   j.name,
		State:     j.state,
		Format:    j.format,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		Recovered: j.recovered,
		Resumed:   j.resumed,
		Created:   rfc3339(j.created),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	st.Started = rfc3339(j.started)
	st.Finished = rfc3339(j.finished)
	if j.state == StateRunning {
		done, total := j.tracker.Snapshot()
		st.Progress = &ProgressStatus{Done: done, Total: total, Cumulative: j.tracker.CumulativeDone()}
	}
	return st
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
