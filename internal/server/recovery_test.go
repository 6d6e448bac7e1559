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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arcc/internal/exhibit"
	"arcc/internal/faultfs"
	"arcc/internal/mc"
	"arcc/internal/server"
	"arcc/internal/stats"
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
		Workers:          1,
		StateDir:         dir,
		FS:               fs,
		CheckpointPeriod: time.Millisecond,
		Logf:             t.Logf,
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
	dir, family := stateFixture(t, "gob-checkpoints")

	// The family is what it claims: two engine jobs of the scenario's
	// shape, each blob a gob image of a full shard.
	for i, cp := range family {
		if cp.Trials != 640 || cp.ShardSize != mc.DefaultShardSize || len(cp.Shards) == 0 {
			t.Fatalf("engine job %d: checkpoint of %d trials, shard size %d, %d shards", i, cp.Trials, cp.ShardSize, len(cp.Shards))
		}
		for s, blob := range cp.Shards {
			// The per-dimension layout earlier versions gob-encoded.
			var set struct{ Dims []stats.Weighted }
			if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&set); err != nil ||
				len(set.Dims) != 3 || set.Dims[0].Y.Count != mc.DefaultShardSize {
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

// stateFixture copies testdata/<name>, the state dir of a server stopped
// mid-job (its journal and job-1's checkpoint family), into a fresh
// directory and returns it with the decoded family of two engine jobs.
func stateFixture(t *testing.T, name string) (string, map[int]*mc.Checkpoint) {
	t.Helper()
	dir := t.TempDir()
	for _, file := range []string{"journal.jsonl", filepath.Join("checkpoints", "job-1.json")} {
		b, err := os.ReadFile(filepath.Join("testdata", name, file))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, file)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
	return dir, family
}

// TestResumeFromPerShardCheckpoints: testdata/per-shard-checkpoints is
// the state dir of a server from before the engine folded shards into
// one prefix blob, stopped mid-job: its first engine job had
// checkpointed 40 of 47 shards and its second 8, one blob per shard. The
// recovered job resumes from them and its report equals an
// uninterrupted run's byte for byte.
func TestResumeFromPerShardCheckpoints(t *testing.T) {
	const scenario = `{"name":"per-shard-resume","years":3,"trials":3000}`
	dir, family := stateFixture(t, "per-shard-checkpoints")
	for i, want := range map[int]int{0: 40, 1: 8} {
		cp := family[i]
		if cp == nil || cp.Folded != 0 || len(cp.Shards) != want || cp.Done() != want*mc.DefaultShardSize {
			t.Fatalf("engine job %d: not a per-shard checkpoint of %d shards: %+v", i, want, cp)
		}
	}

	svc, ts := startServer(t, server.Options{Workers: 1, StateDir: dir, Logf: t.Logf})
	defer stopServer(t, svc, ts)
	if final := waitState(t, ts, "job-1", server.StateDone); !final.Recovered || !final.Resumed {
		t.Fatalf("finished job recovered=%v resumed=%v, want both true", final.Recovered, final.Resumed)
	}
	code, got := get(t, ts.URL+"/v1/jobs/job-1/result")
	if code != http.StatusOK {
		t.Fatalf("recovered result: HTTP %d: %s", code, got)
	}
	if want := cliRender(t, scenario, "json", 9, 0, 1, false); !bytes.Equal(got, want) {
		t.Errorf("recovered report differs from an uninterrupted run:\n--- recovered ---\n%s\n--- uninterrupted ---\n%s", got, want)
	}
}

// TestRecoveryRemovesRejectedJobsCheckpoint: a recovered job the check
// now rejects (the fixture's 3000 trials against a cap of 10) comes back
// failed, and its checkpoint file is gone after that first restart
// rather than lingering across every later one.
func TestRecoveryRemovesRejectedJobsCheckpoint(t *testing.T) {
	dir, _ := stateFixture(t, "per-shard-checkpoints")
	opts := server.Options{Workers: 1, StateDir: dir, MaxTrials: 10, Logf: t.Logf}
	for restart := 1; restart <= 2; restart++ {
		svc, ts := startServer(t, opts)
		if st := getStatus(t, ts, "job-1"); st.State != server.StateFailed {
			t.Errorf("restart %d: job-1 %q, want failed", restart, st.State)
		}
		stopServer(t, svc, ts)
		if _, err := os.Stat(filepath.Join(dir, "checkpoints", "job-1.json")); !os.IsNotExist(err) {
			t.Fatalf("restart %d: checkpoints/job-1.json of the failed job still there (stat: %v)", restart, err)
		}
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
		Workers:          1,
		StateDir:         t.TempDir(),
		FS:               fs,
		CheckpointPeriod: time.Millisecond,
		Logf:             t.Logf,
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

// TestShortJobWritesNoCheckpoint: a job that finishes inside one
// checkpoint period at the default cadence writes nothing under
// checkpoints/, so a short served job pays no fsync for durability.
func TestShortJobWritesNoCheckpoint(t *testing.T) {
	const scenario = `{"name":"short","trials":8000}`
	dir := t.TempDir()
	fs := faultfs.Wrap(faultfs.OS())
	var mu sync.Mutex
	var touched []string
	fs.SetHook(func(op faultfs.Op, path string) {
		if (op == faultfs.OpCreate || op == faultfs.OpRename) && strings.HasPrefix(path, filepath.Join(dir, "checkpoints")) {
			mu.Lock()
			touched = append(touched, string(op)+" "+path)
			mu.Unlock()
		}
	})
	_, ts := newTestServer(t, server.Options{Workers: 1, StateDir: dir, FS: fs, Logf: t.Logf})
	_, st := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 2, "parallel": 1}`, scenario))
	waitState(t, ts, st.ID, server.StateDone)
	mu.Lock()
	defer mu.Unlock()
	if len(touched) > 0 {
		t.Errorf("a job shorter than the checkpoint period wrote checkpoints: %v", touched)
	}
}

// TestLongJobCheckpointStaysSmall: a job checkpointing every millisecond
// writes one folded blob per engine job, so its checkpoint file stays
// small however many shards it has done.
func TestLongJobCheckpointStaysSmall(t *testing.T) {
	const scenario = `{"name":"long","trials":300000}`
	const bound = 16 << 10
	dir := t.TempDir()
	fs := faultfs.Wrap(faultfs.OS())
	var mu sync.Mutex
	writes, largest := 0, int64(0)
	fs.SetHook(func(op faultfs.Op, path string) {
		if op != faultfs.OpRename || !strings.HasPrefix(path, filepath.Join(dir, "checkpoints")) {
			return
		}
		// The hook runs before the rename: the written file is still
		// the temporary one.
		fi, err := os.Stat(path + ".tmp")
		mu.Lock()
		defer mu.Unlock()
		writes++
		if err == nil {
			largest = max(largest, fi.Size())
		}
	})
	_, ts := newTestServer(t, server.Options{Workers: 1, StateDir: dir, FS: fs, CheckpointPeriod: time.Millisecond, Logf: t.Logf})
	_, st := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": 3, "parallel": 1}`, scenario))
	waitState(t, ts, st.ID, server.StateDone)
	mu.Lock()
	defer mu.Unlock()
	if writes == 0 {
		t.Fatal("the job never wrote a checkpoint")
	}
	if largest > bound {
		t.Errorf("largest of %d checkpoint files is %d bytes, want at most %d", writes, largest, bound)
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
	oversized := sc
	oversized.Trials = 2000
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
		{"job-8", "scenario trials above the cap", record("job-8", map[string]any{"scenario": oversized})},
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

// TestRestartKeepsJobTimes: a restart replays a job's created, started
// and finished times from the journal as they were, for a job that ran
// and for a cache hit: each record keeps the times its job stamped it
// with, not the time it was appended.
func TestRestartKeepsJobTimes(t *testing.T) {
	dir := t.TempDir()
	opts := server.Options{Workers: 1, StateDir: dir, Logf: t.Logf}
	body := fmt.Sprintf(`{"scenario": %s, "seed": 4}`, tinyScenario)

	svc1, ts1 := startServer(t, opts)
	_, ran := post(t, ts1, body)
	ran = waitState(t, ts1, ran.ID, server.StateDone)
	code, hit := post(t, ts1, body)
	if code != http.StatusCreated || !hit.Cached {
		t.Fatalf("resubmission: HTTP %d cached=%v, want 201 from cache", code, hit.Cached)
	}
	// Shutdown drains the worker, so the done record of the job that ran
	// is journaled before the restart.
	stopServer(t, svc1, ts1)
	svc2, ts2 := startServer(t, opts)
	defer stopServer(t, svc2, ts2)
	for _, before := range []server.JobStatus{ran, hit} {
		after := getStatus(t, ts2, before.ID)
		if before.Created == "" || before.Started == "" || before.Finished == "" {
			t.Fatalf("%s before the restart: created %q, started %q, finished %q", before.ID, before.Created, before.Started, before.Finished)
		}
		if after.Created != before.Created || after.Started != before.Started || after.Finished != before.Finished {
			t.Errorf("%s: created %q, started %q, finished %q after the restart; %q, %q and %q before", before.ID,
				after.Created, after.Started, after.Finished, before.Created, before.Started, before.Finished)
		}
	}
}

// TestServedJobFilesystemCalls counts the store's filesystem calls: a
// job that wrote no checkpoint removes nothing under checkpoints/, and a
// cache-hit POST journals its submit and done records in one write and
// one fsync. A job whose checkpoint file exists still removes it when it
// ends: one that saved checkpoints, and a recovered one whose file
// recovery found, whether or not it decoded.
func TestServedJobFilesystemCalls(t *testing.T) {
	type tally struct{ writes, syncs, removes, ckptRemoves int }
	counter := func(fs *faultfs.Faulty, dir string) func() tally {
		var mu sync.Mutex
		var n tally
		fs.SetHook(func(op faultfs.Op, path string) {
			mu.Lock()
			defer mu.Unlock()
			switch op {
			case faultfs.OpWrite:
				n.writes++
			case faultfs.OpSync:
				n.syncs++
			case faultfs.OpRemove:
				n.removes++
				if strings.HasPrefix(path, filepath.Join(dir, "checkpoints")) {
					n.ckptRemoves++
				}
			}
		})
		return func() tally {
			mu.Lock()
			defer mu.Unlock()
			out := n
			n = tally{}
			return out
		}
	}
	noCheckpoint := func(t *testing.T, dir string) {
		t.Helper()
		entries, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) > 0 {
			t.Errorf("checkpoint files left after the jobs ended: %v", entries)
		}
	}

	t.Run("fresh and cache hit", func(t *testing.T) {
		dir := t.TempDir()
		fs := faultfs.Wrap(faultfs.OS())
		opts := server.Options{Workers: 1, StateDir: dir, FS: fs, Logf: t.Logf}
		body := fmt.Sprintf(`{"scenario": %s}`, tinyScenario)
		svc1, ts1 := startServer(t, opts)
		take := counter(fs, dir)
		_, st := post(t, ts1, body)
		waitState(t, ts1, st.ID, server.StateDone)
		stopServer(t, svc1, ts1) // drains the worker's result file and done record
		if n := take(); n.ckptRemoves != 0 {
			t.Errorf("a job that wrote no checkpoint removed %d files under checkpoints/", n.ckptRemoves)
		}

		svc2, ts2 := startServer(t, opts)
		defer stopServer(t, svc2, ts2)
		take()
		code, hit := post(t, ts2, body)
		if code != http.StatusCreated || !hit.Cached {
			t.Fatalf("resubmission: HTTP %d cached=%v, want 201 from cache", code, hit.Cached)
		}
		if n := take(); n.writes != 1 || n.syncs != 1 || n.removes != 0 {
			t.Errorf("a cache-hit POST made %d writes, %d syncs and %d removes, want 1, 1 and 0", n.writes, n.syncs, n.removes)
		}
		if ops := journalOps(t, dir); len(ops) != 4 || ops[2] != "submit "+hit.ID || ops[3] != "done "+hit.ID {
			t.Errorf("journal %q, want both jobs' submit and done records", ops)
		}
	})

	t.Run("saved checkpoints", func(t *testing.T) {
		dir := t.TempDir()
		fs := faultfs.Wrap(faultfs.OS())
		svc, ts := startServer(t, server.Options{Workers: 1, StateDir: dir, FS: fs, CheckpointPeriod: time.Millisecond, Logf: t.Logf})
		take := counter(fs, dir)
		_, st := post(t, ts, `{"scenario": {"name":"long","trials":300000}, "parallel": 1}`)
		waitState(t, ts, st.ID, server.StateDone)
		stopServer(t, svc, ts)
		if n := take(); n.ckptRemoves != 1 {
			t.Errorf("a job that saved checkpoints removed %d files under checkpoints/, want 1", n.ckptRemoves)
		}
		noCheckpoint(t, dir)
	})

	for _, garbled := range []bool{false, true} {
		t.Run(fmt.Sprintf("recovered, garbled %v", garbled), func(t *testing.T) {
			dir, _ := stateFixture(t, "per-shard-checkpoints")
			if garbled {
				if err := os.WriteFile(filepath.Join(dir, "checkpoints", "job-1.json"), []byte("{not json"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			svc, ts := startServer(t, server.Options{Workers: 1, StateDir: dir, Logf: t.Logf})
			if final := waitState(t, ts, "job-1", server.StateDone); final.Resumed == garbled {
				t.Errorf("recovered job resumed=%v, want %v", final.Resumed, !garbled)
			}
			stopServer(t, svc, ts)
			noCheckpoint(t, dir)
		})
	}
}

// readCounter counts the files read under one directory.
type readCounter struct {
	faultfs.FS
	dir   string
	reads atomic.Int64
}

func (r *readCounter) ReadFile(path string) ([]byte, error) {
	if strings.HasPrefix(path, r.dir+string(filepath.Separator)) {
		r.reads.Add(1)
	}
	return r.FS.ReadFile(path)
}

// stateFiles lists the files under the state dir's sub directory, and
// fails the test on any temporary file left anywhere in the state dir.
func stateFiles(t *testing.T, dir, sub string) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil || d.IsDir():
		case strings.HasSuffix(path, ".tmp"):
			t.Errorf("temporary file %s left in the state dir", path)
		case filepath.Dir(path) == filepath.Join(dir, sub):
			names = append(names, strings.TrimSuffix(d.Name(), ".json"))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestRecoveryKeepsOnlyCachedResults: a result file lives only as long as
// the compacted journal refers to it. With one finished job retained, the
// first restart still restores all four done jobs' results into the cache
// (it prunes after), and the next ones keep only the retained job's. Each
// startup reads only the result files a replayed job names, removes the
// temporary and unknown files, and leaves results/ holding exactly the
// cached keys. An undecodable file never fails startup: unnamed, it is
// just removed; named, its job comes back done without a result.
func TestRecoveryKeepsOnlyCachedResults(t *testing.T) {
	dir := t.TempDir()
	results := filepath.Join(dir, "results")
	fs := &readCounter{FS: faultfs.OS(), dir: results}
	opts := server.Options{Workers: 1, StateDir: dir, MaxFinishedJobs: 1, FS: fs, Logf: t.Logf}
	svc, ts := startServer(t, opts)
	for seed := 1; seed <= 4; seed++ {
		_, st := post(t, ts, fmt.Sprintf(`{"scenario": %s, "seed": %d}`, tinyScenario, seed))
		waitState(t, ts, st.ID, server.StateDone)
	}
	stopServer(t, svc, ts)
	for name, body := range map[string]string{"stray.json.tmp": "torn", "bad.json": "not json"} {
		if err := os.WriteFile(filepath.Join(results, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for restart, want := range []int{4, 1, 1, 0} {
		if restart == 3 {
			// Garble the one file the journal still names.
			if err := os.WriteFile(filepath.Join(results, stateFiles(t, dir, "results")[0]+".json"), []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fs.reads.Store(0)
		svc, ts := startServer(t, opts)
		if n := fs.reads.Load(); n != int64(max(want, 1)) {
			t.Errorf("restart %d read %d result files, want %d", restart+1, n, max(want, 1))
		}
		names, keys := stateFiles(t, dir, "results"), svc.CachedKeys()
		if len(keys) != want || !slices.Equal(names, keys) {
			t.Errorf("restart %d: results/ holds %q, the cache %q; want %d the same", restart+1, names, keys, want)
		}
		wantCode := http.StatusOK
		if want == 0 {
			wantCode = http.StatusGone
		}
		if st := getStatus(t, ts, "job-4"); st.State != server.StateDone {
			t.Errorf("restart %d: job-4 %s, want done", restart+1, st.State)
		}
		if code, _ := get(t, ts.URL+"/v1/jobs/job-4/result"); code != wantCode {
			t.Errorf("restart %d: result of job-4: HTTP %d, want %d", restart+1, code, wantCode)
		}
		stopServer(t, svc, ts)
	}
}

// The crash-point sweep's jobs: a job that runs to done and is then
// resubmitted as a cache hit, one DELETEd mid-run, and one a shutdown
// interrupts. Each is five shards of about a millisecond, so it
// checkpoints at a 1 ms period but writes at most a few checkpoints,
// which keeps the sweep's op count small.
const (
	crashDone     = `{"scenario": {"name":"crash-done","trials":320,"rate_factor":500}, "seed": 1, "parallel": 1}`
	crashDeleted  = `{"scenario": {"name":"crash-deleted","trials":320,"rate_factor":500}, "seed": 2, "parallel": 1}`
	crashShutdown = `{"scenario": {"name":"crash-shutdown","trials":320,"rate_factor":500}, "seed": 3, "parallel": 1}`
)

// crashRun is one pass of the crash-point sweep's served sequence, on a
// state dir whose filesystem may fail from some op on.
type crashRun struct {
	t   *testing.T
	svc *server.Server
	ts  *httptest.Server
	ops atomic.Int64 // filesystem ops since the sequence started

	mu      sync.Mutex
	pauseID string        // the job to hold at its first checkpoint write
	paused  chan struct{} // the held job reached that write
	resume  chan struct{} // lets it go on
}

// hook counts every filesystem op, and holds the job pauseAt named at its
// first checkpoint write, so that a step can act while it runs.
func (r *crashRun) hook(op faultfs.Op, path string) {
	r.ops.Add(1)
	r.mu.Lock()
	hold := r.pauseID != "" && op == faultfs.OpCreate && filepath.Base(path) == r.pauseID+".json.tmp"
	if hold {
		r.pauseID = ""
	}
	r.mu.Unlock()
	if hold {
		r.paused <- struct{}{}
		select {
		case <-r.resume:
		case <-time.After(60 * time.Second):
		}
	}
}

// pauseAt posts body, the next job, and returns once it is held at its
// first checkpoint write.
func (r *crashRun) pauseAt(id, body string) {
	r.t.Helper()
	r.mu.Lock()
	r.pauseID = id
	r.mu.Unlock()
	if _, st := post(r.t, r.ts, body); st.ID != id {
		r.t.Fatalf("posted job %q, want %s", st.ID, id)
	}
	select {
	case <-r.paused:
	case <-time.After(60 * time.Second):
		r.t.Fatalf("%s never wrote a checkpoint", id)
	}
}

// TestCrashPointSweep runs one served sequence — a job that checkpoints,
// its cache-hit resubmission, a DELETE mid-run, a shutdown that
// interrupts a running job — once per filesystem op index i, with op i
// and every later op failing: a crash at op i. The sweep stops at the
// first i the sequence never reaches, so it covers every op index even
// though checkpoint timing varies the count. After each crash a server
// restarted on the surviving files with a working filesystem must replay
// the journal; a job restored terminal keeps its state and its created,
// started and finished times, and a done one its result; every
// interrupted job resumes to the report of an uncrashed run; and once
// all jobs are terminal, no checkpoint or temporary file is left, and
// results/ holds exactly the keys the result cache serves.
func TestCrashPointSweep(t *testing.T) {
	want := map[string][]byte{}
	for _, body := range []string{crashDone, crashDeleted, crashShutdown} {
		var req struct {
			Scenario json.RawMessage
			Seed     int64
		}
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		sc, err := exhibit.ParseScenario(bytes.NewReader(req.Scenario))
		if err != nil {
			t.Fatal(err)
		}
		want[sc.Name] = cliRender(t, string(req.Scenario), "json", req.Seed, 0, 1, false)
	}
	steps := []struct {
		name string
		step func(r *crashRun)
	}{
		{"submit a job that checkpoints", func(r *crashRun) {
			_, st := post(t, r.ts, crashDone)
			waitState(t, r.ts, st.ID, server.StateDone)
		}},
		{"resubmit it as a cache hit", func(r *crashRun) {
			if code, st := post(t, r.ts, crashDone); code != http.StatusCreated || !st.Cached {
				t.Fatalf("resubmission: HTTP %d cached=%v, want 201 from cache", code, st.Cached)
			}
		}},
		{"DELETE a running job", func(r *crashRun) {
			r.pauseAt("job-3", crashDeleted)
			del(t, r.ts, "job-3")
			r.resume <- struct{}{}
			waitState(t, r.ts, "job-3", server.StateCanceled)
		}},
		{"shut down while a job runs", func(r *crashRun) {
			r.pauseAt("job-4", crashShutdown)
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				r.svc.Shutdown(ctx)
			}()
			for code, _ := get(t, r.ts.URL+"/v1/healthz"); code != http.StatusServiceUnavailable; code, _ = get(t, r.ts.URL+"/v1/healthz") {
				time.Sleep(time.Millisecond)
			}
			r.resume <- struct{}{}
			<-stopped
		}},
	}

	for i := 0; ; i++ {
		dir := t.TempDir()
		fs := faultfs.Wrap(faultfs.OS())
		r := &crashRun{t: t, paused: make(chan struct{}), resume: make(chan struct{})}
		r.svc, r.ts = startServer(t, server.Options{Workers: 1, StateDir: dir, FS: fs,
			CheckpointPeriod: time.Millisecond, Logf: func(string, ...any) {}})
		fs.SetHook(r.hook)
		fs.AddRule(faultfs.Rule{After: i})
		for _, s := range steps {
			s.step(r)
		}
		before := map[string]server.JobStatus{}
		for _, id := range []string{"job-1", "job-2", "job-3", "job-4"} {
			before[id] = getStatus(t, r.ts, id)
		}
		r.ts.Close()
		ops := r.ops.Load()

		svc, ts := startServer(t, server.Options{Workers: 1, StateDir: dir, Logf: t.Logf})
		_, list := get(t, ts.URL+"/v1/jobs")
		var replayed []server.JobStatus
		if err := json.Unmarshal(list, &replayed); err != nil {
			t.Fatalf("crash at op %d: listing after the restart: %v", i, err)
		}
		if ops <= int64(i) && len(replayed) != len(before) {
			t.Errorf("uncrashed run: %d jobs after the restart, want %d", len(replayed), len(before))
		}
		for _, st := range replayed {
			b, ok := before[st.ID]
			switch {
			case !ok:
				t.Errorf("crash at op %d: unknown job %s after the restart", i, st.ID)
			case st.Recovered:
				waitState(t, ts, st.ID, server.StateDone)
				if code, got := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusOK || !bytes.Equal(got, want[st.Exhibit]) {
					t.Errorf("crash at op %d: resumed %s: HTTP %d, equal to an uncrashed run %v", i, st.ID, code, bytes.Equal(got, want[st.Exhibit]))
				}
			case st.State != b.State || st.Created != b.Created || st.Started != b.Started || st.Finished != b.Finished:
				t.Errorf("crash at op %d: %s after the restart: %s, created %q, started %q, finished %q; before: %s, %q, %q, %q",
					i, st.ID, st.State, st.Created, st.Started, st.Finished, b.State, b.Created, b.Started, b.Finished)
			case st.State == server.StateDone:
				if code, _ := get(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusOK {
					t.Errorf("crash at op %d: result of restored %s: HTTP %d, want 200", i, st.ID, code)
				}
			}
		}
		stopServer(t, svc, ts)
		if left := stateFiles(t, dir, "checkpoints"); len(left) > 0 {
			t.Errorf("crash at op %d: checkpoint files left once every job ended: %q", i, left)
		}
		if names, keys := stateFiles(t, dir, "results"), svc.CachedKeys(); !slices.Equal(names, keys) {
			t.Errorf("crash at op %d: results/ holds %q once every job ended, the cache %q", i, names, keys)
		}
		if ops <= int64(i) {
			t.Logf("the sequence makes %d filesystem ops; a crash at each was recovered", ops)
			return
		}
		if t.Failed() {
			return
		}
	}
}
