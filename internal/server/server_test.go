package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"arcc/internal/exhibit"
	"arcc/internal/experiments"
	"arcc/internal/server"
	"arcc/internal/workload"
)

// tinyScenario is a sweep small enough for unit tests: 64 Monte Carlo
// channels over 2 years, no simulator mixes.
const tinyScenario = `{"name":"tiny","ranks":1,"years":2,"trials":64}`

// bigScenario is a sweep long enough to cancel mid-run: a million
// channels over 7 years. The inflated rate factor makes every channel
// sample dozens of arrivals, so the job cannot finish before the test
// gets its cancel/coalesce/crash in — at field rates a million mostly
// empty channels complete in well under a second on a fast machine.
const bigScenario = `{"name":"big","trials":1000000,"rate_factor":500}`

func newTestServer(t *testing.T, opts server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	svc, err := server.New(opts)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return svc, ts
}

func post(t *testing.T, ts *httptest.Server, body string) (int, server.JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding job status: %v", err)
		}
	}
	return resp.StatusCode, st
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, b
}

func getStatus(t *testing.T, ts *httptest.Server, id string) server.JobStatus {
	t.Helper()
	code, b := get(t, ts.URL+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("status %s: HTTP %d: %s", id, code, b)
	}
	var st server.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, want ...server.State) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			t.Fatalf("job %s reached terminal state %q (error %q), want one of %v", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return server.JobStatus{}
}

// cliRender reproduces exactly what `arcc-experiments -scenario f.json
// -format json` emits for the given scenario and knobs: the same exhibit
// construction, the same Config, the same renderer.
func cliRender(t *testing.T, scenarioJSON string, format string, seed int64, trials, parallel int, quick bool) []byte {
	t.Helper()
	sc, err := exhibit.ParseScenario(strings.NewReader(scenarioJSON))
	if err != nil {
		t.Fatalf("parsing scenario: %v", err)
	}
	ex, err := experiments.NewScenarioExhibit(sc)
	if err != nil {
		t.Fatalf("building scenario exhibit: %v", err)
	}
	cfg := exhibit.NewConfig(
		exhibit.WithQuick(quick),
		exhibit.WithSeed(seed),
		exhibit.WithParallel(parallel),
		exhibit.WithTrials(trials),
	)
	report, err := ex.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("running scenario: %v", err)
	}
	renderer, err := exhibit.RendererFor(format)
	if err != nil {
		t.Fatalf("renderer: %v", err)
	}
	var buf bytes.Buffer
	if err := renderer.Render(&buf, report); err != nil {
		t.Fatalf("rendering: %v", err)
	}
	return buf.Bytes()
}

func TestSubmitStatusResultRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Workers: 2})

	body := fmt.Sprintf(`{"scenario": %s, "seed": 7, "parallel": 2, "format": "json"}`, tinyScenario)
	code, st := post(t, ts, body)
	if code != http.StatusAccepted && code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", code)
	}
	if st.Exhibit != "tiny" {
		t.Fatalf("job exhibit %q, want tiny", st.Exhibit)
	}
	waitState(t, ts, st.ID, server.StateDone)

	rcode, got := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if rcode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", rcode, got)
	}
	want := cliRender(t, tinyScenario, "json", 7, 0, 2, false)
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP result differs from CLI -format json output:\n got: %s\nwant: %s", got, want)
	}

	// The ?format= override streams the same report through another
	// renderer, byte-identical to the CLI's -format csv.
	rcode, gotCSV := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=csv")
	if rcode != http.StatusOK {
		t.Fatalf("csv result: HTTP %d", rcode)
	}
	if wantCSV := cliRender(t, tinyScenario, "csv", 7, 0, 2, false); !bytes.Equal(gotCSV, wantCSV) {
		t.Fatalf("csv result differs from CLI output:\n got: %s\nwant: %s", gotCSV, wantCSV)
	}
}

// TestNewAxisScenariosThroughServer submits one scenario per axis family
// — DDR5 geometry with multi-tenant interference, correlated row/bank
// bursts, trace replay, and a free upgrade (upgrade_factor 1, a zero
// overhead cap) — purely as JSON, and checks each result byte-identical
// to the CLI's rendering of the same scenario.
func TestNewAxisScenariosThroughServer(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "core0.trc")
	f, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Record(f, workload.ByName("mesa").NewStream(7, 0), 2000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tracePath, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}

	families := map[string]string{
		"ddr5-tenants": `{"name":"ddr5-tenants","trials":64,"years":2,"mixes":[],
			"dram":"ddr5","width":8,
			"tenants":[{"benchmark":"mcf2006","footprint_lines":12288}],
			"shared_llc":true,"llc_bytes":2097152}`,
		"burst": `{"name":"burst","trials":64,"years":2,"mixes":[],
			"burst":{"row_prob":0.5,"row_mean":4,"row_max":16,"bank_prob":0.2,"bank_mean":3,"bank_max":8}}`,
		"trace-replay": fmt.Sprintf(`{"name":"trace-replay","trials":64,"years":2,"mixes":[],
			"dram":"ddr4","trace":%s}`, tracePath),
		"free-upgrade": `{"name":"free-upgrade","trials":64,"years":2,"mixes":[],"upgrade_factor":1}`,
	}

	_, ts := newTestServer(t, server.Options{Workers: 2})
	for label, scenario := range families {
		code, st := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 7, "quick": true, "format": "json"}`, scenario))
		if code != http.StatusAccepted && code != http.StatusCreated {
			t.Fatalf("%s: submit HTTP %d", label, code)
		}
		waitState(t, ts, st.ID, server.StateDone)
		rcode, got := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		if rcode != http.StatusOK {
			t.Fatalf("%s: result HTTP %d: %s", label, rcode, got)
		}
		if want := cliRender(t, scenario, "json", 7, 0, 0, true); !bytes.Equal(got, want) {
			t.Fatalf("%s: HTTP result differs from CLI output:\n got: %s\nwant: %s", label, got, want)
		}
		switch label {
		case "ddr5-tenants":
			if !bytes.Contains(got, []byte(`"tenants"`)) {
				t.Fatalf("%s: result missing tenants row: %s", label, got)
			}
		case "trace-replay":
			if !bytes.Contains(got, []byte(`"trace"`)) {
				t.Fatalf("%s: result missing trace row: %s", label, got)
			}
		case "free-upgrade":
			var compact bytes.Buffer
			if err := json.Compact(&compact, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(compact.Bytes(), []byte(`"Overhead":[0,0]`)) {
				t.Fatalf("%s: a free upgrade must cost nothing: %s", label, got)
			}
		}
	}
}

func TestExhibitJobRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Workers: 1})
	code, st := post(t, ts, `{"exhibit": "t7.1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, ts, st.ID, server.StateDone)
	rcode, body := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if rcode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", rcode, body)
	}
	var report struct {
		Exhibit string `json:"exhibit"`
		Meta    struct {
			Seed int64 `json:"seed"`
		} `json:"meta"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	if report.Exhibit != "t7.1" || report.Meta.Seed != 1 {
		t.Fatalf("unexpected report header: %+v", report)
	}
}

// TestScenarioAccelCIInResult: a scenario asking for rare-event
// acceleration and confidence intervals gets both back in the JSON
// result, and its cache identity is distinct from the plain sweep's.
func TestScenarioAccelCIInResult(t *testing.T) {
	svc, ts := newTestServer(t, server.Options{Workers: 1})

	const accelScenario = `{"name":"tiny","ranks":1,"years":2,"trials":64,"accel":"conditional","ci":true}`
	_, plain := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 5}`, tinyScenario))
	waitState(t, ts, plain.ID, server.StateDone)
	_, accel := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 5}`, accelScenario))
	waitState(t, ts, accel.ID, server.StateDone)
	if m := svc.Metrics(); m.JobsRun != 2 || m.CacheHits != 0 {
		t.Fatalf("accel scenario must not share the plain sweep's cache entry: %+v", m)
	}

	_, body := get(t, ts.URL+"/v1/jobs/"+accel.ID+"/result")
	var report struct {
		Data struct {
			Scenario struct {
				Accel string `json:"accel"`
				CI    bool   `json:"ci"`
			} `json:"Scenario"`
			FaultyFraction []float64
			FaultyCI       []float64
			OverheadCI     []float64
			OverheadESS    float64
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatalf("result not JSON: %v\n%s", err, body)
	}
	d := report.Data
	if d.Scenario.Accel != "conditional" || !d.Scenario.CI {
		t.Fatalf("effective scenario lost the accel/ci request: %+v", d.Scenario)
	}
	if len(d.FaultyCI) != len(d.FaultyFraction) || len(d.OverheadCI) != len(d.FaultyFraction) {
		t.Fatalf("CI series missing or mis-sized: %d faulty, %d faulty CI, %d overhead CI",
			len(d.FaultyFraction), len(d.FaultyCI), len(d.OverheadCI))
	}
	if d.OverheadESS <= 0 || d.OverheadESS > 64 {
		t.Fatalf("ESS %v outside (0, trials]", d.OverheadESS)
	}

	_, pbody := get(t, ts.URL+"/v1/jobs/"+plain.ID+"/result")
	var preport struct {
		Data struct {
			FaultyCI []float64
		} `json:"data"`
	}
	if err := json.Unmarshal(pbody, &preport); err != nil {
		t.Fatalf("plain result not JSON: %v", err)
	}
	if preport.Data.FaultyCI != nil {
		t.Fatal("plain sweep should not carry CI series")
	}
}

func TestDuplicateSubmissionsHitCache(t *testing.T) {
	svc, ts := newTestServer(t, server.Options{Workers: 2})

	body := fmt.Sprintf(`{"scenario": %s, "seed": 3, "parallel": 1}`, tinyScenario)
	_, first := post(t, ts, body)
	waitState(t, ts, first.ID, server.StateDone)
	if m := svc.Metrics(); m.JobsRun != 1 || m.CacheHits != 0 {
		t.Fatalf("after first run: %+v", m)
	}

	code, second := post(t, ts, body)
	if code != http.StatusCreated {
		t.Fatalf("duplicate submit: HTTP %d, want 201 (cache hit)", code)
	}
	if second.State != server.StateDone || !second.Cached {
		t.Fatalf("duplicate job not served from cache: %+v", second)
	}
	if m := svc.Metrics(); m.JobsRun != 1 || m.CacheHits != 1 {
		t.Fatalf("after duplicate: %+v (want 1 run, 1 hit)", m)
	}
	_, a := get(t, ts.URL+"/v1/jobs/"+first.ID+"/result")
	_, b := get(t, ts.URL+"/v1/jobs/"+second.ID+"/result")
	if !bytes.Equal(a, b) {
		t.Fatalf("cached result differs from original:\n%s\nvs\n%s", a, b)
	}

	// A duplicate differing only in parallelism still hits the cache (the
	// engine contract makes parallelism result-invariant); the report's
	// meta is restamped with the new request's knobs.
	code, third := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 3, "parallel": 4}`, tinyScenario))
	if code != http.StatusCreated || !third.Cached {
		t.Fatalf("parallel-differing duplicate missed the cache: HTTP %d, %+v", code, third)
	}
	if m := svc.Metrics(); m.JobsRun != 1 || m.CacheHits != 2 {
		t.Fatalf("after third: %+v", m)
	}
	_, c := get(t, ts.URL+"/v1/jobs/"+third.ID+"/result")
	var report struct {
		Meta struct {
			Parallel int `json:"parallel"`
		} `json:"meta"`
	}
	if err := json.Unmarshal(c, &report); err != nil {
		t.Fatalf("third result not JSON: %v", err)
	}
	if report.Meta.Parallel != 4 {
		t.Fatalf("cached report meta not restamped: parallel %d, want 4", report.Meta.Parallel)
	}

	// A different seed is a different result identity: it must run.
	_, fourth := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 4}`, tinyScenario))
	waitState(t, ts, fourth.ID, server.StateDone)
	if m := svc.Metrics(); m.JobsRun != 2 || m.CacheHits != 2 {
		t.Fatalf("after seed change: %+v (want 2 runs)", m)
	}
}

// TestResubmitAfterDoneHitsCache: a job reads done only once its report
// is in the result cache, so a client that polls a fresh job until done
// and resubmits it at once is served from the cache (201), every time,
// instead of running the sweep again (202).
func TestResubmitAfterDoneHitsCache(t *testing.T) {
	const tries = 1000
	svc, ts := newTestServer(t, server.Options{Workers: 1, StateDir: t.TempDir(), Logf: t.Logf})
	for seed := 1; seed <= tries; seed++ {
		body := fmt.Sprintf(`{"scenario": %s, "seed": %d}`, tinyScenario, seed)
		_, st := post(t, ts, body)
		waitState(t, ts, st.ID, server.StateDone)
		if code, hit := post(t, ts, body); code != http.StatusCreated || !hit.Cached {
			t.Fatalf("try %d: resubmission right after done: HTTP %d cached=%v, want 201 from cache", seed, code, hit.Cached)
		}
	}
	if m := svc.Metrics(); m.JobsRun != tries || m.CacheHits != tries {
		t.Errorf("%d jobs run and %d cache hits, want %d and %d", m.JobsRun, m.CacheHits, tries, tries)
	}
}

func TestCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	svc, ts := newTestServer(t, server.Options{Workers: 1})

	body := fmt.Sprintf(`{"scenario": %s, "parallel": 4}`, bigScenario)
	code, st := post(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	running := waitState(t, ts, st.ID, server.StateRunning)
	if running.Progress == nil {
		t.Fatalf("running status carries no progress: %+v", running)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}

	// The engine stops within one shard; the job must go canceled well
	// before the million trials could complete.
	deadline := time.Now().Add(30 * time.Second)
	var final server.JobStatus
	for {
		final = getStatus(t, ts, st.ID)
		if final.State == server.StateCanceled {
			break
		}
		if final.State == server.StateDone || final.State == server.StateFailed {
			t.Fatalf("canceled job ended %q (error %q)", final.State, final.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q long after cancel", final.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A canceled job has no result.
	rcode, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if rcode != http.StatusGone {
		t.Fatalf("result of canceled job: HTTP %d, want 410", rcode)
	}
	if m := svc.Metrics(); m.CacheHits != 0 {
		t.Fatalf("canceled job touched the cache: %+v", m)
	}

	// No goroutine leaks: once the server shuts down, the worker pool and
	// every engine goroutine the canceled job spawned must exit.
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for end := time.Now().Add(10 * time.Second); ; {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines leaked: %d before, %d after cancel+shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRequestValidation(t *testing.T) {
	// The cap is a scenario's default trial count, so the scenario cases
	// below reach the scenario checks.
	_, ts := newTestServer(t, server.Options{Workers: 1, MaxTrials: 10_000})
	cases := []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"both", fmt.Sprintf(`{"exhibit": "t7.1", "scenario": %s}`, tinyScenario)},
		{"unknown exhibit", `{"exhibit": "nope"}`},
		{"unknown field", `{"exhibit": "t7.1", "bogus": 1}`},
		{"negative trials", `{"exhibit": "t7.1", "trials": -1}`},
		{"oversized trials", `{"exhibit": "t7.1", "trials": 10001}`},
		{"oversized scenario trials", `{"scenario": {"name": "x", "trials": 10001}}`},
		{"negative parallel", `{"exhibit": "t7.1", "parallel": -2}`},
		{"oversized parallel", `{"exhibit": "t7.1", "parallel": 1000000}`},
		{"bad format", `{"exhibit": "t7.1", "format": "xml"}`},
		{"not json", `{"exhibit": `},
		{"trailing content", `{"exhibit": "t7.1"} {"exhibit": "t7.2"}`},
		{"invalid scenario geometry", `{"scenario": {"name": "x", "ranks": -1}}`},
		{"unknown scenario scheme", `{"scenario": {"name": "x", "scheme": "magic"}}`},
		{"unknown scenario mix", `{"scenario": {"name": "x", "mixes": ["MixNope"]}}`},
		{"unknown scenario fault type", `{"scenario": {"name": "x", "fit_overrides": {"cosmic": 1}}}`},
		{"nameless scenario", `{"scenario": {"trials": 10}}`},
		// Past Scenario.Resolve these once panicked, exhausted memory, or
		// ran with a negative rate.
		{"huge scenario rate factor", `{"scenario": {"name": "x", "rate_factor": 1e300}}`},
		{"huge scenario lifetime", `{"scenario": {"name": "x", "years": 300000000}}`},
		{"negative scenario FIT", `{"scenario": {"name": "x", "fit_overrides": {"bit": -5}}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _ := post(t, ts, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", code)
			}
		})
	}

	for _, url := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/result"} {
		if code, _ := get(t, ts.URL+url); code != http.StatusNotFound {
			t.Fatalf("GET %s: want 404", url)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndExhibitListing(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Workers: 1})
	code, body := get(t, ts.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz body %s (err %v)", body, err)
	}

	code, body = get(t, ts.URL+"/v1/exhibits")
	if code != http.StatusOK {
		t.Fatalf("exhibits: HTTP %d", code)
	}
	var infos []server.ExhibitInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatalf("exhibits body: %v", err)
	}
	found := false
	for _, e := range infos {
		if e.Name == "f3.1" {
			found = true
		}
	}
	if !found || len(infos) < 16 {
		t.Fatalf("registry listing incomplete (%d entries, f3.1 found %v)", len(infos), found)
	}
}

func TestResultWhileRunningIsNotReady(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Workers: 1})
	_, st := post(t, ts, fmt.Sprintf(`{"scenario": %s}`, bigScenario))
	waitState(t, ts, st.ID, server.StateRunning)
	code, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusAccepted {
		t.Fatalf("result while running: HTTP %d, want 202", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestShutdownRejectsNewJobsAndCancelsUnderDeadline(t *testing.T) {
	svc, err := server.New(server.Options{Workers: 1})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	_, st := post(t, ts, fmt.Sprintf(`{"scenario": %s}`, bigScenario))
	waitState(t, ts, st.ID, server.StateRunning)

	// A deadline far shorter than the million-trial sweep forces the
	// drain to cancel the in-flight job.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown error %v, want deadline exceeded", err)
	}
	if got := getStatus(t, ts, st.ID); got.State != server.StateCanceled {
		t.Fatalf("in-flight job after forced drain: %q, want canceled", got.State)
	}
	if code, _ := post(t, ts, `{"exhibit": "t7.1"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: HTTP %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/v1/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: HTTP %d, want 503", code)
	}
}

func TestQueueBoundRejectsOverload(t *testing.T) {
	svc, ts := newTestServer(t, server.Options{Workers: 1, QueueDepth: 1})

	// Occupy the single worker, fill the single queue slot, then overflow.
	_, running := post(t, ts, fmt.Sprintf(`{"scenario": %s}`, bigScenario))
	waitState(t, ts, running.ID, server.StateRunning)
	code1, queued := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 2}`, bigScenario))
	if code1 != http.StatusAccepted {
		t.Fatalf("queued submit: HTTP %d", code1)
	}
	code2, _ := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 3}`, bigScenario))
	if code2 != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: HTTP %d, want 503", code2)
	}

	// A rejected submission must leave the job table consistent: the
	// listing holds exactly the two registered jobs, and every row's
	// status endpoint answers (a dangling id would 500 here).
	lcode, lbody := get(t, ts.URL+"/v1/jobs")
	if lcode != http.StatusOK {
		t.Fatalf("list after overflow: HTTP %d: %s", lcode, lbody)
	}
	var listed []server.JobStatus
	if err := json.Unmarshal(lbody, &listed); err != nil {
		t.Fatalf("list body: %v", err)
	}
	if len(listed) != 2 {
		t.Fatalf("listing has %d jobs after a rejected submit, want 2: %s", len(listed), lbody)
	}
	for _, row := range listed {
		if row.ID != running.ID && row.ID != queued.ID {
			t.Fatalf("listing contains unexpected job %q", row.ID)
		}
		getStatus(t, ts, row.ID)
	}

	// Canceling the queued job must settle it without a worker.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := getStatus(t, ts, queued.ID); got.State != server.StateCanceled {
		t.Fatalf("canceled queued job: %q", got.State)
	}
	// Unblock the worker for the cleanup shutdown.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_ = svc
}

// Concurrent submissions against a full queue must never corrupt the job
// table: whatever mix of acceptances and 503s comes back, every listed
// job keeps answering its status endpoint. This is a regression test for
// a rollback race that left a dangling id in the listing order.
func TestConcurrentOverflowKeepsListingsConsistent(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Workers: 1, QueueDepth: 1})

	_, running := post(t, ts, fmt.Sprintf(`{"scenario": %s}`, bigScenario))
	waitState(t, ts, running.ID, server.StateRunning)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"scenario": %s, "seed": %d}`, bigScenario, seed+2)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("concurrent POST: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("concurrent POST: HTTP %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	lcode, lbody := get(t, ts.URL+"/v1/jobs")
	if lcode != http.StatusOK {
		t.Fatalf("list after concurrent overflow: HTTP %d: %s", lcode, lbody)
	}
	var listed []server.JobStatus
	if err := json.Unmarshal(lbody, &listed); err != nil {
		t.Fatalf("list body: %v", err)
	}
	// The running job plus at most one queued job survived the stampede.
	if len(listed) < 1 || len(listed) > 2 {
		t.Fatalf("listing has %d jobs, want 1 or 2: %s", len(listed), lbody)
	}
	for _, row := range listed {
		getStatus(t, ts, row.ID)
		// Cancel everything so the cleanup shutdown drains quickly.
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+row.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Workers: 1})
	big := `{"exhibit": "` + strings.Repeat("a", 1<<20) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST oversized body: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("413 body: %v", err)
	}
	if !strings.Contains(e.Error, "byte limit") {
		t.Fatalf("413 message %q does not name the limit", e.Error)
	}
}

func TestRetentionBoundsJobsAndCache(t *testing.T) {
	svc, ts := newTestServer(t, server.Options{Workers: 1, MaxFinishedJobs: 1, MaxCachedResults: 1})

	submit := func(seed int) server.JobStatus {
		t.Helper()
		code, st := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": %d}`, tinyScenario, seed))
		if code != http.StatusAccepted && code != http.StatusCreated {
			t.Fatalf("submit seed %d: HTTP %d", seed, code)
		}
		waitState(t, ts, st.ID, server.StateDone)
		return st
	}
	first := submit(1)
	second := submit(2)
	// Registering a third job prunes terminal jobs past the bound of one:
	// the first (oldest terminal) is forgotten, the second survives.
	third := submit(3)
	if code, _ := get(t, ts.URL+"/v1/jobs/"+first.ID); code != http.StatusNotFound {
		t.Fatalf("pruned job %s: HTTP %d, want 404", first.ID, code)
	}
	getStatus(t, ts, third.ID)
	_, lbody := get(t, ts.URL+"/v1/jobs")
	var listed []server.JobStatus
	if err := json.Unmarshal(lbody, &listed); err != nil {
		t.Fatalf("list body: %v", err)
	}
	for _, row := range listed {
		if row.ID == first.ID {
			t.Fatalf("pruned job %s still listed: %s", first.ID, lbody)
		}
	}
	_ = second

	// The result cache holds one entry (FIFO): by now only seed 3 can be
	// cached, so resubmitting seed 1 must run again, not hit the cache.
	runsBefore := svc.Metrics().JobsRun
	submit(1)
	m := svc.Metrics()
	if m.JobsRun != runsBefore+1 {
		t.Fatalf("evicted entry served from cache: %+v (runs before %d)", m, runsBefore)
	}
	if m.CacheHits != 0 {
		t.Fatalf("unexpected cache hits under eviction: %+v", m)
	}
}
