package server_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"arcc/internal/exhibit"
	"arcc/internal/faultfs"
	"arcc/internal/mc"
	"arcc/internal/server"
)

// startServer is newTestServer without the automatic cleanup: restart
// tests stop and re-create servers on the same state dir explicitly.
func startServer(t *testing.T, opts server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	svc, err := server.New(opts)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	return svc, httptest.NewServer(svc.Handler())
}

func stopServer(t *testing.T, svc *server.Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func del(t *testing.T, ts *httptest.Server, id string) server.JobStatus {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", id, err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding cancel response: %v", err)
	}
	return st
}

func healthz(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	_, b := get(t, ts.URL+"/v1/healthz")
	out := map[string]any{}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("decoding healthz: %v", err)
	}
	return out
}

func TestRestartRestoresCacheAndJobs(t *testing.T) {
	dir := t.TempDir()
	opts := server.Options{Workers: 1, StateDir: dir, Logf: t.Logf}

	svc1, ts1 := startServer(t, opts)
	_, st := post(t, ts1, fmt.Sprintf(`{"scenario": %s, "seed": 5}`, tinyScenario))
	waitState(t, ts1, st.ID, server.StateDone)
	code, want := get(t, ts1.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result before restart: HTTP %d", code)
	}
	stopServer(t, svc1, ts1)

	svc2, ts2 := startServer(t, opts)
	defer stopServer(t, svc2, ts2)

	// The finished job survives the restart with its exact result bytes.
	got2 := getStatus(t, ts2, st.ID)
	if got2.State != server.StateDone {
		t.Fatalf("job after restart: %q, want done", got2.State)
	}
	code, got := get(t, ts2.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("result after restart: HTTP %d, bytes equal %v", code, bytes.Equal(got, want))
	}
	// An identical resubmission is a cache hit served from the restored
	// cache — no re-run — and job ids keep counting from where they left.
	code, st2 := post(t, ts2, fmt.Sprintf(`{"scenario": %s, "seed": 5}`, tinyScenario))
	if code != http.StatusCreated || !st2.Cached {
		t.Fatalf("resubmit after restart: HTTP %d cached=%v, want 201 from cache", code, st2.Cached)
	}
	if st2.ID != "job-2" {
		t.Fatalf("resubmitted job id %s, want job-2 (sequence restored)", st2.ID)
	}
	if n := svc2.Metrics().JobsRun; n != 0 {
		t.Fatalf("restarted server ran %d jobs, want 0 (everything served from restored state)", n)
	}
}

// TestReplayPairsTerminalRecordBeforeSubmit replays a journal whose done
// record precedes its submit — the order a POST leaves when the worker
// finishes the job before the handler journals the submit. The job must
// come back done, not re-run, and an identical resubmission must hit the
// restored cache.
func TestReplayPairsTerminalRecordBeforeSubmit(t *testing.T) {
	dir := t.TempDir()
	opts := server.Options{Workers: 1, StateDir: dir, Logf: t.Logf}
	body := fmt.Sprintf(`{"scenario": %s, "seed": 5}`, tinyScenario)

	svc1, ts1 := startServer(t, opts)
	_, st := post(t, ts1, body)
	waitState(t, ts1, st.ID, server.StateDone)
	stopServer(t, svc1, ts1)

	// Move every terminal record ahead of the submit records.
	path := filepath.Join(dir, "journal.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var submits, terminals []string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if line == "" {
			continue
		}
		var rec struct{ Op string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Op == "submit" {
			submits = append(submits, line)
		} else {
			terminals = append(terminals, line)
		}
	}
	if len(submits) != 1 || len(terminals) != 1 {
		t.Fatalf("journal has %d submit and %d terminal records, want 1 and 1", len(submits), len(terminals))
	}
	if err := os.WriteFile(path, []byte(terminals[0]+submits[0]), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2, ts2 := startServer(t, opts)
	defer stopServer(t, svc2, ts2)
	if got := getStatus(t, ts2, st.ID); got.State != server.StateDone {
		t.Fatalf("job after restart: %q, want done", got.State)
	}
	code, st2 := post(t, ts2, body)
	if code != http.StatusCreated || !st2.Cached {
		t.Fatalf("resubmit after restart: HTTP %d cached=%v, want 201 from cache", code, st2.Cached)
	}
	if m := svc2.Metrics(); m.JobsRun != 0 || m.JobsRecovered != 0 {
		t.Fatalf("restarted server ran %d and recovered %d jobs, want 0 and 0", m.JobsRun, m.JobsRecovered)
	}
}

func TestCrashMidSweepResumesByteIdentical(t *testing.T) {
	const scenario = `{"name":"resume","trials":300000}`
	dir := t.TempDir()
	fs := faultfs.Wrap(faultfs.OS())
	opts := server.Options{
		Workers:               1,
		StateDir:              dir,
		FS:                    fs,
		CheckpointEveryShards: 200,
		CheckpointPeriod:      time.Hour, // cadence purely shard-driven
		Logf:                  t.Logf,
	}
	svc1, ts1 := startServer(t, opts)

	// Force an abrupt stop the moment the first checkpoint lands: Shutdown
	// with an expired context cancels every job context immediately, which
	// is the in-process analogue of a crash — except the engine still gets
	// to flush its final snapshot, exercising the Shutdown-races-
	// checkpoint-write window under the race detector.
	crashed := make(chan struct{})
	var once sync.Once
	fs.SetHook(func(op faultfs.Op, path string) {
		if op == faultfs.OpRename && strings.Contains(path, "checkpoints") {
			once.Do(func() {
				go func() {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					svc1.Shutdown(ctx)
					close(crashed)
				}()
			})
		}
	})

	_, st := post(t, ts1, fmt.Sprintf(`{"scenario": %s, "seed": 9, "parallel": 1}`, scenario))
	select {
	case <-crashed:
	case <-time.After(60 * time.Second):
		t.Fatal("the job never wrote a checkpoint")
	}
	got := getStatus(t, ts1, st.ID)
	if got.State != server.StateCanceled {
		t.Fatalf("interrupted job: %q, want canceled in the dying process", got.State)
	}
	ts1.Close()
	fs.SetHook(nil)

	svc2, ts2 := startServer(t, opts)
	defer stopServer(t, svc2, ts2)
	if n := svc2.Metrics().JobsRecovered; n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	final := waitState(t, ts2, st.ID, server.StateDone)
	if !final.Recovered || !final.Resumed {
		t.Fatalf("finished job recovered=%v resumed=%v, want both true", final.Recovered, final.Resumed)
	}
	code, got2 := get(t, ts2.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("resumed result: HTTP %d: %s", code, got2)
	}
	want := cliRender(t, scenario, "json", 9, 0, 1, false)
	if !bytes.Equal(got2, want) {
		t.Errorf("resumed report differs from an uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got2, want)
	}
}

// TestResumeFromGobCheckpointsRerunsShards: testdata/gob-checkpoints is
// the state dir of a server from before weighted shards were checkpointed
// in the fixed layout, stopped mid-job: a "ci" scenario whose first
// engine job had checkpointed 8 shards and its second (the one with a
// final-year sketch) 4, every blob a gob image. The engine rejects those
// blobs, re-runs their shards, and the recovered job's report equals an
// uninterrupted run's byte for byte.
func TestResumeFromGobCheckpointsRerunsShards(t *testing.T) {
	const scenario = `{"name":"gob-resume","years":3,"trials":640,"ci":true}`
	dir := t.TempDir()
	for _, name := range []string{"journal.jsonl", filepath.Join("checkpoints", "job-1.json")} {
		b, err := os.ReadFile(filepath.Join("testdata", "gob-checkpoints", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// The family is what it claims: two engine jobs of the scenario's
	// shape, each blob a gob image of a full shard.
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoints", "job-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var family map[int]*mc.Checkpoint
	if err := json.Unmarshal(raw, &family); err != nil {
		t.Fatal(err)
	}
	if len(family) != 2 {
		t.Fatalf("fixture holds %d engine jobs, want 2", len(family))
	}
	for i, cp := range family {
		if cp.Trials != 640 || cp.ShardSize != mc.DefaultShardSize || len(cp.Shards) == 0 {
			t.Fatalf("engine job %d: checkpoint of %d trials, shard size %d, %d shards", i, cp.Trials, cp.ShardSize, len(cp.Shards))
		}
		for s, blob := range cp.Shards {
			var set mc.WeightedSet
			if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&set); err != nil ||
				len(set.Dims) != 3 || set.Dims[0].N() != mc.DefaultShardSize {
				t.Fatalf("engine job %d shard %d: not a gob image of a full 3-year shard (%v)", i, s, err)
			}
		}
	}

	svc, ts := startServer(t, server.Options{Workers: 1, StateDir: dir, Logf: t.Logf})
	defer stopServer(t, svc, ts)
	if n := svc.Metrics().JobsRecovered; n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	if final := waitState(t, ts, "job-1", server.StateDone); !final.Recovered {
		t.Fatal("finished job not marked recovered")
	}
	code, got := get(t, ts.URL+"/v1/jobs/job-1/result")
	if code != http.StatusOK {
		t.Fatalf("recovered result: HTTP %d: %s", code, got)
	}
	if want := cliRender(t, scenario, "json", 9, 0, 1, false); !bytes.Equal(got, want) {
		t.Errorf("recovered report differs from an uninterrupted run:\n--- recovered ---\n%s\n--- uninterrupted ---\n%s", got, want)
	}
}

func TestServerToleratesTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	opts := server.Options{Workers: 1, StateDir: dir, Logf: t.Logf}

	svc1, ts1 := startServer(t, opts)
	_, st := post(t, ts1, fmt.Sprintf(`{"scenario": %s, "seed": 3}`, tinyScenario))
	waitState(t, ts1, st.ID, server.StateDone)
	stopServer(t, svc1, ts1)

	// A crash mid-append tears the final journal line.
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","id":"job-99","ke`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc2, ts2 := startServer(t, opts)
	defer stopServer(t, svc2, ts2)
	if got := getStatus(t, ts2, st.ID); got.State != server.StateDone {
		t.Fatalf("job after torn-tail restart: %q, want done", got.State)
	}
	if code, _ := get(t, ts2.URL+"/v1/jobs/job-99"); code != http.StatusNotFound {
		t.Fatalf("torn job visible after restart: HTTP %d, want 404", code)
	}
	if code, st2 := post(t, ts2, fmt.Sprintf(`{"scenario": %s, "seed": 3}`, tinyScenario)); code != http.StatusCreated || !st2.Cached {
		t.Fatalf("resubmit after torn-tail restart: HTTP %d cached=%v, want a cache hit", code, st2.Cached)
	}
}

func TestCheckpointWriteFaultsDoNotFailJob(t *testing.T) {
	const scenario = `{"name":"faulty","trials":100000}`
	fs := faultfs.Wrap(faultfs.OS())
	// Every checkpoint write fails at creation; the sweep must not care.
	fs.AddRule(faultfs.Rule{Op: faultfs.OpCreate, PathContains: "checkpoints"})
	_, ts := newTestServer(t, server.Options{
		Workers:               1,
		StateDir:              t.TempDir(),
		FS:                    fs,
		CheckpointEveryShards: 50,
		CheckpointPeriod:      time.Hour,
		Logf:                  t.Logf,
	})
	_, st := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 4, "parallel": 1}`, scenario))
	waitState(t, ts, st.ID, server.StateDone)
	code, got := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result with checkpoint faults: HTTP %d", code)
	}
	if want := cliRender(t, scenario, "json", 4, 0, 1, false); !bytes.Equal(got, want) {
		t.Error("checkpoint write faults changed the report bytes")
	}
}

func TestCoalesceIdenticalInflightSharesOneRun(t *testing.T) {
	svc, ts := newTestServer(t, server.Options{Workers: 1})

	// One worker: the blocker occupies it, so job A sits queued and the
	// identical submissions B and C must attach to A, not run or cache-hit.
	_, blocker := post(t, ts, fmt.Sprintf(`{"scenario": %s, "parallel": 1}`, bigScenario))
	waitState(t, ts, blocker.ID, server.StateRunning)

	body := fmt.Sprintf(`{"scenario": %s, "seed": 6}`, tinyScenario)
	_, a := post(t, ts, body)
	codeB, b := post(t, ts, body)
	if codeB != http.StatusAccepted || !b.Coalesced {
		t.Fatalf("duplicate submit: HTTP %d coalesced=%v, want 202 attached to %s", codeB, b.Coalesced, a.ID)
	}
	// Different parallelism, same result identity: still coalesces.
	_, c := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 6, "parallel": 2}`, tinyScenario))
	if !c.Coalesced {
		t.Fatal("parallel-only variant did not coalesce")
	}

	del(t, ts, blocker.ID)
	waitState(t, ts, a.ID, server.StateDone)
	waitState(t, ts, b.ID, server.StateDone)
	waitState(t, ts, c.ID, server.StateDone)

	_, wantA := get(t, ts.URL+"/v1/jobs/"+a.ID+"/result")
	_, gotB := get(t, ts.URL+"/v1/jobs/"+b.ID+"/result")
	if !bytes.Equal(wantA, gotB) {
		t.Error("coalesced follower's report differs from the primary's")
	}
	_, gotC := get(t, ts.URL+"/v1/jobs/"+c.ID+"/result")
	if !bytes.Contains(gotC, []byte(`"parallel": 2`)) {
		t.Errorf("follower with parallel 2 kept the primary's meta:\n%s", gotC)
	}
	m := svc.Metrics()
	if m.JobsCoalesced != 2 {
		t.Errorf("JobsCoalesced = %d, want 2", m.JobsCoalesced)
	}
	// The blocker ran (and was canceled); A ran; B and C did not.
	if m.JobsRun != 2 {
		t.Errorf("JobsRun = %d, want 2 (blocker + primary only)", m.JobsRun)
	}
	h := healthz(t, ts)
	if h["jobs_coalesced"].(float64) != 2 {
		t.Errorf("healthz jobs_coalesced = %v, want 2", h["jobs_coalesced"])
	}
}

func TestCancelSemanticsWithCoalescedJobs(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Workers: 1})
	_, blocker := post(t, ts, fmt.Sprintf(`{"scenario": %s, "parallel": 1}`, bigScenario))
	waitState(t, ts, blocker.ID, server.StateRunning)

	body := fmt.Sprintf(`{"scenario": %s, "seed": 8}`, tinyScenario)
	_, a := post(t, ts, body)
	_, b := post(t, ts, body)
	_, c := post(t, ts, body)
	if !b.Coalesced || !c.Coalesced {
		t.Fatalf("followers did not coalesce: b=%v c=%v", b.Coalesced, c.Coalesced)
	}

	// Canceling a follower detaches it without touching the primary.
	if st := del(t, ts, c.ID); st.State != server.StateCanceled {
		t.Fatalf("canceled follower state %q", st.State)
	}
	if st := getStatus(t, ts, a.ID); st.State != server.StateQueued {
		t.Fatalf("primary after follower cancel: %q, want still queued", st.State)
	}
	// Canceling the primary cancels the jobs coalesced onto it.
	if st := del(t, ts, a.ID); st.State != server.StateCanceled {
		t.Fatalf("canceled primary state %q", st.State)
	}
	if st := getStatus(t, ts, b.ID); st.State != server.StateCanceled {
		t.Fatalf("follower after primary cancel: %q, want canceled", st.State)
	}
	del(t, ts, blocker.ID)
}

func TestMaxJobDurationFailsRunawayJob(t *testing.T) {
	_, ts := newTestServer(t, server.Options{
		Workers:        1,
		MaxJobDuration: 100 * time.Millisecond,
	})
	// A million serial trials run ~1s, far past the 100ms cap.
	_, st := post(t, ts, fmt.Sprintf(`{"scenario": %s, "parallel": 1}`, bigScenario))
	final := waitState(t, ts, st.ID, server.StateFailed)
	if !strings.Contains(final.Error, "max duration") {
		t.Fatalf("timeout failure reads %q, want a max-duration explanation", final.Error)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusInternalServerError {
		t.Fatalf("result of a timed-out job: HTTP %d, want 500", code)
	}
}

// TestRecoveryRevalidatesInterruptedJobs: an interrupted journal record
// re-enters through the checks a POST /v1/jobs body passes. A record the
// checks reject comes back failed, runs nothing and is journaled as
// failed; a valid record in the same journal still resumes.
func TestRecoveryRevalidatesInterruptedJobs(t *testing.T) {
	sc, err := exhibit.ParseScenario(strings.NewReader(tinyScenario))
	if err != nil {
		t.Fatal(err)
	}
	record := func(id string, fields map[string]any) string {
		rec := map[string]any{"op": "submit", "id": id, "key": "key-" + id, "name": "tiny", "format": "json", "scenario": sc}
		for k, v := range fields {
			if v == nil {
				delete(rec, k)
			} else {
				rec[k] = v
			}
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	invalid := []struct{ id, why, line string }{
		{"job-1", "trials above the cap", record("job-1", map[string]any{"trials": 2000})},
		{"job-2", "negative trials", record("job-2", map[string]any{"trials": -1})},
		{"job-3", "parallel above MaxParallel", record("job-3", map[string]any{"parallel": server.MaxParallel + 1})},
		{"job-4", "unrenderable format", record("job-4", map[string]any{"format": "xml"})},
		{"job-5", "both exhibit and scenario", record("job-5", map[string]any{"exhibit": "t7.1"})},
		{"job-6", "neither exhibit nor scenario", record("job-6", map[string]any{"scenario": nil})},
	}
	journal := record("job-7", map[string]any{"seed": 7})
	for _, c := range invalid {
		journal += c.line
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := server.Options{Workers: 1, StateDir: dir, MaxTrials: 1000, Logf: t.Logf}

	svc, ts := startServer(t, opts)
	for _, c := range invalid {
		if st := getStatus(t, ts, c.id); st.State != server.StateFailed || !strings.HasPrefix(st.Error, "not recoverable: ") {
			t.Errorf("%s (%s): state %q error %q, want failed as not recoverable", c.id, c.why, st.State, st.Error)
		}
	}
	waitState(t, ts, "job-7", server.StateDone)
	code, got := get(t, ts.URL+"/v1/jobs/job-7/result")
	if want := cliRender(t, tinyScenario, "json", 7, 0, 0, false); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("valid record's result: HTTP %d, equal to an uninterrupted run %v", code, bytes.Equal(got, want))
	}
	if m := svc.Metrics(); m.JobsRun != 1 || m.JobsRecovered != 1 {
		t.Errorf("JobsRun %d JobsRecovered %d, want 1 and 1 (the valid record only)", m.JobsRun, m.JobsRecovered)
	}
	stopServer(t, svc, ts)

	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	failed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct{ Op, ID string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Op == "failed" {
			failed[rec.ID] = true
		}
	}
	for _, c := range invalid {
		if !failed[c.id] {
			t.Errorf("%s (%s): no failed record journaled", c.id, c.why)
		}
	}

	// The failures are durable: a restart lists them failed and runs nothing.
	svc2, ts2 := startServer(t, opts)
	defer stopServer(t, svc2, ts2)
	for _, c := range invalid {
		if st := getStatus(t, ts2, c.id); st.State != server.StateFailed {
			t.Errorf("%s after restart: %q, want failed", c.id, st.State)
		}
	}
	if st := getStatus(t, ts2, "job-7"); st.State != server.StateDone {
		t.Errorf("job-7 after restart: %q, want done", st.State)
	}
	if n := svc2.Metrics().JobsRun; n != 0 {
		t.Errorf("restarted server ran %d jobs, want 0", n)
	}
}

// journalOps reads a state dir's journal as (op, id) pairs in order.
func journalOps(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct{ Op, ID string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		ops = append(ops, rec.Op+" "+rec.ID)
	}
	return ops
}

// A POST journals the terminal record only of a job it settled itself (a
// cache hit). Here the worker finishes the job while the handler is still
// writing the submit record, and its result file is held back: the done
// record must wait for that file, so a crash in between re-runs the job
// instead of leaving a done job without its result.
func TestSubmitJournalsNoTerminalBeforeResult(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.Wrap(faultfs.OS())
	svc, ts := startServer(t, server.Options{Workers: 1, StateDir: dir, FS: fs, Logf: t.Logf})
	defer stopServer(t, svc, ts)

	journal := filepath.Join(dir, "journal.jsonl")
	results := filepath.Join(dir, "results")
	submitSyncing, releaseSubmit := make(chan struct{}), make(chan struct{})
	resultWriting, releaseResult := make(chan struct{}), make(chan struct{})
	var submitOnce, resultOnce sync.Once
	fs.SetHook(func(op faultfs.Op, path string) {
		switch {
		case op == faultfs.OpSync && path == journal:
			submitOnce.Do(func() {
				close(submitSyncing)
				<-releaseSubmit
			})
		case op == faultfs.OpCreate && strings.HasPrefix(path, results):
			resultOnce.Do(func() {
				close(resultWriting)
				<-releaseResult
			})
		}
	})

	posted := make(chan server.JobStatus)
	go func() {
		_, st := post(t, ts, fmt.Sprintf(`{"scenario": %s}`, tinyScenario))
		posted <- st
	}()
	<-submitSyncing
	<-resultWriting // the job is done in memory; its result file is not written
	close(releaseSubmit)
	st := <-posted
	if ops := journalOps(t, dir); len(ops) != 1 || ops[0] != "submit "+st.ID {
		t.Errorf("journal before the result file lands: %q, want only the submit record", ops)
	}
	close(releaseResult)
	waitState(t, ts, st.ID, server.StateDone)
	deadline := time.Now().Add(30 * time.Second)
	for len(journalOps(t, dir)) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ops := journalOps(t, dir); len(ops) != 2 || ops[1] != "done "+st.ID {
		t.Errorf("journal after the job: %q, want its submit and one done record", ops)
	}
}

// Recovery widens the job queue only by the jobs it enqueues. Interrupted
// records that end as cache hits or fail the check take no slot, so a
// server with QueueDepth 1 still turns away the second live submission
// while one job runs.
func TestRecoveryQueueCountsOnlyEnqueuedJobs(t *testing.T) {
	dir := t.TempDir()
	opts := server.Options{Workers: 1, QueueDepth: 1, StateDir: dir, Logf: t.Logf}
	svc, ts := startServer(t, opts)
	_, done := post(t, ts, fmt.Sprintf(`{"scenario": %s}`, tinyScenario))
	waitState(t, ts, done.ID, server.StateDone)
	stopServer(t, svc, ts)

	appendInterrupted(t, dir, 6, func(i int, sub map[string]any) {
		sub["trials"] = 0 // a cache hit on the done job
		if i%2 == 1 {
			sub["trials"] = -1 // rejected by the check
		}
	})

	svc, ts = startServer(t, opts)
	defer stopServer(t, svc, ts)
	if m := svc.Metrics(); m.CacheHits != 3 || m.JobsRecovered != 0 {
		t.Fatalf("recovery: %d cache hits, %d jobs re-enqueued, want 3 and 0", m.CacheHits, m.JobsRecovered)
	}
	_, running := post(t, ts, fmt.Sprintf(`{"scenario": %s}`, bigScenario))
	waitState(t, ts, running.ID, server.StateRunning)
	code, queued := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 2}`, bigScenario))
	if code != http.StatusAccepted {
		t.Fatalf("queued submit: HTTP %d, want 202", code)
	}
	code, extra := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 3}`, bigScenario))
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit past QueueDepth 1: HTTP %d, want 503", code)
		del(t, ts, extra.ID)
	}
	del(t, ts, queued.ID)
	del(t, ts, running.ID)
}

// appendInterrupted appends n copies of the first submit record in dir's
// journal, as job-2 … job-(n+1), each changed by edit(id number, record)
// and left without a terminal record, as a crash leaves the jobs it had
// accepted.
func appendInterrupted(t *testing.T, dir string, n int, edit func(i int, sub map[string]any)) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var sub map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(string(raw), "\n", 2)[0]), &sub); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= n+1; i++ {
		sub["id"] = fmt.Sprintf("job-%d", i)
		edit(i, sub)
		b, err := json.Marshal(sub)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// The backlog bound survives recovery: four recovered jobs enqueue past
// QueueDepth 1, and once they have drained the second live submission
// behind a running job is turned away again. (A queue widened by the
// recovered jobs kept accepting four more submissions for the rest of
// the process.)
func TestRecoveredBacklogDrainsToQueueDepth(t *testing.T) {
	dir := t.TempDir()
	opts := server.Options{Workers: 1, QueueDepth: 1, StateDir: dir, Logf: t.Logf}
	svc, ts := startServer(t, opts)
	_, done := post(t, ts, fmt.Sprintf(`{"scenario": %s}`, tinyScenario))
	waitState(t, ts, done.ID, server.StateDone)
	stopServer(t, svc, ts)
	appendInterrupted(t, dir, 4, func(i int, sub map[string]any) {
		sub["seed"] = 100 + i // a distinct sweep, so each one runs
	})

	svc, ts = startServer(t, opts)
	defer stopServer(t, svc, ts)
	if m := svc.Metrics(); m.JobsRecovered != 4 {
		t.Fatalf("recovery re-enqueued %d jobs, want 4", m.JobsRecovered)
	}
	for i := 2; i <= 5; i++ {
		waitState(t, ts, fmt.Sprintf("job-%d", i), server.StateDone)
	}
	_, running := post(t, ts, fmt.Sprintf(`{"scenario": %s}`, bigScenario))
	waitState(t, ts, running.ID, server.StateRunning)
	code, queued := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 2}`, bigScenario))
	if code != http.StatusAccepted {
		t.Fatalf("queued submit: HTTP %d, want 202", code)
	}
	code, extra := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 3}`, bigScenario))
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit past QueueDepth 1 after recovery drained: HTTP %d, want 503", code)
		del(t, ts, extra.ID)
	}
	del(t, ts, queued.ID)
	del(t, ts, running.ID)
}

// FuzzJournalReplay starts a server on an arbitrary journal next to the
// checked-in gob checkpoint family. Recovery must not panic, every job
// it lists must be in a valid state, and Shutdown under an expired
// context must return.
func FuzzJournalReplay(f *testing.F) {
	fixture := filepath.Join("testdata", "gob-checkpoints")
	journal, err := os.ReadFile(filepath.Join(fixture, "journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	checkpoints, err := os.ReadFile(filepath.Join(fixture, "checkpoints", "job-1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(append(append([]byte(nil), journal...), `{"op":"submit","id":"job-99","ke`...))
	f.Add([]byte(`{"op":"submit","id":"job-1","exhibit":"t7.1","format":"xml","trials":2000000,"parallel":5000}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "checkpoints", "job-1.json"), checkpoints, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		svc, err := server.New(server.Options{Workers: 1, StateDir: dir, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
		var jobs []server.JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &jobs); err != nil {
			t.Fatalf("GET /v1/jobs: HTTP %d %v", rec.Code, err)
		}
		for _, st := range jobs {
			switch st.State {
			case server.StateQueued, server.StateRunning, server.StateDone, server.StateFailed, server.StateCanceled:
			default:
				t.Errorf("job %s in state %q", st.ID, st.State)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		stopped := make(chan struct{})
		go func() {
			svc.Shutdown(ctx)
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(30 * time.Second):
			t.Fatal("Shutdown under an expired context did not return")
		}
	})
}
