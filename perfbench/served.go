package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"arcc/internal/exhibit"
	"arcc/internal/experiments"
	"arcc/internal/faultfs"
	"arcc/internal/mc"
	"arcc/internal/server"
)

// servedSweeps runs the sweep service with a live journal and result store
// (a temporary StateDir) behind a loopback listener. A closed-loop client
// POSTs small jobs, polls them and fetches the result. One op is submit →
// done → result fetched; the work unit is completed jobs.
//
// Like the other workloads, it is timed on the normalised CPU clock, which
// leaves out waiting: the device time of the journal's and the store's
// fsyncs and hypervisor steal. On the wall clock, steal of up to 24% of a
// run moved the 90th percentile by 24% (quartile distance over median)
// across ten seeds. So the traced run reports the fsyncs per op
// (server.fsyncs_per_op) and the queue hand-off from the jobs' own
// timestamps (server.queue_wait_ms), and a change that adds blocking I/O or
// slows queue pick-up shows there.
//
// There is one client. With two, an op's CPU clock also ran while the
// server worked on the other client's job, and how much of that overlapped
// an op depended on hypervisor steal: the cache-hit median spread by 35%
// between runs of identical code.
var servedSweeps = loadSpec{cycle: len(servedMix), setup: setupServed}

// servedJob is one kind of job the client submits.
type servedJob struct {
	exhibit  string
	trials   int
	scenario string // inline scenario JSON; the seed is added per request
}

// servedKinds are sized so each fresh job runs for about 10 ms.
var servedKinds = []servedJob{
	{scenario: `{"name":"served-plain","mixes":[],"rate_factor":2,"trials":8000}`},
	{scenario: `{"name":"served-conditional","mixes":[],"accel":"conditional","ci":true,"trials":10000}`},
	{exhibit: "f3.1", trials: 5600},
}

// servedMix is the client's cycle. Fresh submissions (a new seed: queue,
// run, render and persist) and resubmissions, which the result cache
// serves (restamp and render only), run 2:1, so both latency percentiles
// fall among the fresh jobs rather than in the gap between the two kinds.
// A resubmission repeats the fresh request from two fresh ops back: the
// service reports a job done just before it stores the result in its
// cache, so repeating the latest job could race that store. The client
// only resubmits its own finished jobs, so hits are deterministic and
// nothing coalesces. kind indexes servedKinds; -1 is a resubmission.
var servedMix = []int{0, 1, -1, 2, 0, -1, 1, 2, -1}

var servedFormats = []string{"text", "json", "csv"}

// servedDir is where each instance's StateDir is made; main points it
// inside the output directory.
var servedDir = filepath.Join(".bench_build", "perfbench", "state")

// servedRetain bounds the finished jobs and cached results the service
// keeps. With the defaults (1024 jobs, 256 results) memory grew for most of
// a 25 s window, by about 190 KB per finished job, so peak RSS depended on
// how many ops a run completed; at 64 it levels off within seconds.
const servedRetain = 64

// servedTimeout bounds one op; a slower op counts as failed.
const servedTimeout = 30 * time.Second

// The client polls a running job's result after 1 ms, then backs off to
// at most servedMaxPoll. Polls cost CPU in proportion to a job's wall
// time, which hypervisor steal stretches, so they are kept few.
const servedMaxPoll = 8 * time.Millisecond

type servedReq struct {
	body   []byte
	format string
	kind   int
}

type servedInst struct {
	seed   int64
	dir    string
	fs     *countingFS
	srv    *server.Server
	httpS  *http.Server
	serveW sync.WaitGroup
	client *http.Client
	base   string

	// fresh holds the two latest fresh requests; results maps a request
	// body to the digest of the first result bytes fetched for it.
	fresh   [2]servedReq
	results map[string]string
	// firstCycle holds the first cycle's result digests, for the output
	// digest.
	firstCycle []string

	// Traced runs render the same reports outside HTTP.
	reports map[int]*exhibit.Report
}

func setupServed(seed int64) (instance, error) {
	if err := os.MkdirAll(servedDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(servedDir, "served-")
	if err != nil {
		return nil, err
	}
	fs := &countingFS{FS: faultfs.OS()}
	srv, err := server.New(server.Options{Workers: 1, StateDir: dir, FS: fs, Logf: func(string, ...any) {},
		MaxFinishedJobs: servedRetain, MaxCachedResults: servedRetain})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s := &servedInst{
		seed: seed, dir: dir, srv: srv, fs: fs,
		httpS:   &http.Server{Handler: srv.Handler()},
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base:    "http://" + ln.Addr().String(),
		results: map[string]string{},
		reports: map[int]*exhibit.Report{},
	}
	s.serveW.Add(1)
	go func() {
		defer s.serveW.Done()
		_ = s.httpS.Serve(ln)
	}()
	// Warm-up: one fresh job on a seed no op uses; it is also the first
	// job the client resubmits.
	req := s.request(-1, 0)
	if _, err := s.do(req, nil, 0, 0); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	s.fresh = [2]servedReq{req, req}
	return s, nil
}

// request builds the fresh request for op i of the given kind.
func (s *servedInst) request(i, kind int) servedReq {
	seed := mc.DeriveSeed(s.seed, uint64(uint32(i)))
	format := servedFormats[(i/3)%len(servedFormats)]
	k := servedKinds[kind]
	var body []byte
	if k.exhibit != "" {
		body = fmt.Appendf(nil, `{"exhibit":%q,"quick":true,"trials":%d,"seed":%d,"parallel":1,"format":%q}`,
			k.exhibit, k.trials, seed, format)
	} else {
		body = fmt.Appendf(nil, `{"scenario":%s,"seed":%d,"parallel":1,"format":%q}`, k.scenario, seed, format)
	}
	return servedReq{body: body, format: format, kind: kind}
}

func (s *servedInst) op(i int) (float64, error) { return s.run(i, nil, 0) }

func (s *servedInst) tracedOp(i int, tr *tracer) (float64, error) {
	root := tr.begin("op", 0, i)
	defer tr.end(root)
	n0 := s.fs.syncs.Load()
	work, err := s.run(i, tr, root)
	tr.count("server.fsyncs", float64(s.fs.syncs.Load()-n0))
	tr.count("server.ops", 1)
	return work, err
}

func (s *servedInst) run(i int, tr *tracer, root int) (float64, error) {
	req := s.fresh[0]
	kind := servedMix[i%len(servedMix)]
	if kind >= 0 {
		req = s.request(i, kind)
	}
	body, err := s.do(req, tr, root, i)
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	if kind >= 0 {
		s.fresh = [2]servedReq{s.fresh[1], req}
	}
	key := string(req.body)
	if prev, ok := s.results[key]; !ok {
		s.results[key] = digest
	} else if prev != digest {
		return 0, fail("incorrect", fmt.Errorf("cached result for %s differs from the first fetch", key))
	}
	if i < len(servedMix) {
		s.firstCycle = append(s.firstCycle, digest)
	}
	return 1, nil
}

// jobStatus is the part of server.JobStatus the client reads.
type jobStatus struct {
	ID       string `json:"id"`
	Created  string `json:"created"`
	Started  string `json:"started"`
	Finished string `json:"finished"`
}

// call sends one request and returns the status code and body.
func (s *servedInst) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, fail("error", err)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, fail("error", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fail("error", err)
	}
	return resp.StatusCode, out, nil
}

// do submits req, polls its result until ready, and returns the result
// bytes. Failures carry the accounting reason: http_400, http_503 (or
// another status), failed, canceled, timeout.
func (s *servedInst) do(req servedReq, tr *tracer, root, i int) ([]byte, error) {
	start := time.Now()
	deadline := start.Add(servedTimeout)
	sp := begin(tr, "server.submit", root, i)
	code, raw, err := s.call(http.MethodPost, "/v1/jobs", req.body)
	d := end(tr, sp)
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted && code != http.StatusCreated {
		return nil, fail(fmt.Sprintf("http_%d", code), errors.New(string(bytes.TrimSpace(raw))))
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fail("error", fmt.Errorf("decoding submit response: %w", err))
	}
	cached := code == http.StatusCreated
	if tr != nil {
		tr.add("server.submit", d, 1)
	}

	sp = begin(tr, "server.result", root, i)
	wait := time.Millisecond
	var t0 time.Time
	var body []byte
	for {
		t0 = time.Now()
		if code, body, err = s.call(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil); err != nil || code != http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			err = fail("timeout", fmt.Errorf("job %s not done after %v", st.ID, servedTimeout))
			break
		}
		time.Sleep(wait)
		wait = min(2*wait, servedMaxPoll)
	}
	end(tr, sp)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
	case http.StatusInternalServerError:
		return nil, fail("failed", fmt.Errorf("job %s: %s", st.ID, bytes.TrimSpace(body)))
	case http.StatusGone:
		return nil, fail("canceled", fmt.Errorf("job %s: %s", st.ID, bytes.TrimSpace(body)))
	default:
		return nil, fail(fmt.Sprintf("http_%d", code), errors.New(string(bytes.TrimSpace(body))))
	}
	if tr == nil {
		return body, nil
	}

	// The part an untraced op times ends here. Then: the final result
	// fetch, the job's own timestamps, and the same render outside HTTP.
	tr.opLatency(time.Since(start))
	tr.add("server.result."+req.format, time.Since(t0), 1)
	if !cached {
		if err := s.jobTimes(st.ID, tr); err != nil {
			return nil, err
		}
	}
	return body, s.renderLocal(req, tr, root, i)
}

// jobTimes reads a finished job's RFC3339Nano timestamps into the queue
// wait and run timings.
func (s *servedInst) jobTimes(id string, tr *tracer) error {
	code, raw, err := s.call(http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil || code != http.StatusOK {
		return fail("error", fmt.Errorf("job %s status (HTTP %d): %v", id, code, err))
	}
	created, err1 := time.Parse(time.RFC3339Nano, st.Created)
	started, err2 := time.Parse(time.RFC3339Nano, st.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, st.Finished)
	if err := errors.Join(err1, err2, err3); err != nil {
		return fail("error", fmt.Errorf("job %s timestamps: %w", id, err))
	}
	tr.add("server.queue_wait", started.Sub(created), 1)
	tr.add("server.run", finished.Sub(started), 1)
	return nil
}

// renderLocal renders the op's report with the same renderer the service
// uses, outside HTTP. The report is computed once per job kind.
func (s *servedInst) renderLocal(req servedReq, tr *tracer, root, i int) error {
	rep := s.reports[req.kind]
	if rep == nil {
		var err error
		if rep, err = localReport(req); err != nil {
			return fail("error", err)
		}
		s.reports[req.kind] = rep
	}
	r, err := exhibit.RendererFor(req.format)
	if err != nil {
		return fail("error", err)
	}
	var buf bytes.Buffer
	sp := tr.begin("render."+req.format, root, i)
	err = r.Render(&buf, rep)
	tr.add("render."+req.format, tr.end(sp), 1)
	if err != nil {
		return fail("error", err)
	}
	return nil
}

// localReport runs the request's exhibit in process.
func localReport(req servedReq) (*exhibit.Report, error) {
	var jr struct {
		Exhibit  string          `json:"exhibit"`
		Scenario json.RawMessage `json:"scenario"`
		Seed     int64           `json:"seed"`
		Trials   int             `json:"trials"`
		Quick    bool            `json:"quick"`
	}
	if err := json.Unmarshal(req.body, &jr); err != nil {
		return nil, err
	}
	cfg := exhibit.NewConfig(exhibit.WithSeed(jr.Seed), exhibit.WithParallel(1), exhibit.WithQuick(jr.Quick),
		exhibit.WithTrials(jr.Trials))
	var ex exhibit.Exhibit
	if jr.Exhibit != "" {
		var ok bool
		if ex, ok = exhibit.Lookup(jr.Exhibit); !ok {
			return nil, fmt.Errorf("unknown exhibit %q", jr.Exhibit)
		}
	} else {
		sc, err := exhibit.ParseScenario(bytes.NewReader(jr.Scenario))
		if err != nil {
			return nil, err
		}
		if ex, err = experiments.NewScenarioExhibit(sc); err != nil {
			return nil, err
		}
	}
	return ex.Run(context.Background(), cfg)
}

func (s *servedInst) verify() (string, []string, map[string]any) {
	h := sha256.New()
	var problems []string
	if len(s.firstCycle) != len(servedMix) {
		problems = append(problems, fmt.Sprintf("only %d of the first cycle's %d ops succeeded", len(s.firstCycle), len(servedMix)))
	}
	for _, d := range s.firstCycle {
		h.Write([]byte(d))
	}
	m := s.srv.Metrics()
	if m.JobsCoalesced != 0 {
		problems = append(problems, fmt.Sprintf("%d jobs coalesced; the mix must not coalesce", m.JobsCoalesced))
	}
	return hex.EncodeToString(h.Sum(nil)), problems, map[string]any{"server": m}
}

func (s *servedInst) layerMetrics(tr *tracer) map[string]metric {
	m := s.srv.Metrics()
	ratio := 0.0
	if n := m.CacheHits + m.JobsRun; n > 0 {
		ratio = float64(m.CacheHits) / float64(n)
	}
	out := map[string]metric{
		"server.submit_ms":       {tr.msPer("server.submit"), "ms"},
		"server.queue_wait_ms":   {tr.msPer("server.queue_wait"), "ms"},
		"server.run_ms":          {tr.msPer("server.run"), "ms"},
		"server.cache_hit_ratio": {ratio, "ratio"},
		"server.jobs_run":        {float64(m.JobsRun), "count"},
		"server.jobs_coalesced":  {float64(m.JobsCoalesced), "count"},
		"server.fsyncs_per_op":   {tr.counts["server.fsyncs"] / max(tr.counts["server.ops"], 1), "count"},
	}
	for _, f := range servedFormats {
		out["server.result_ms."+f] = metric{tr.msPer("server.result." + f), "ms"}
		out["render.ns."+f] = metric{tr.nsPer("render." + f), "ns"}
	}
	return out
}

func (s *servedInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.httpS.Shutdown(ctx)
	s.serveW.Wait()
	_ = s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// countingFS is the real filesystem with every Sync counted, for
// server.fsyncs_per_op.
type countingFS struct {
	faultfs.FS
	syncs atomic.Int64
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFS) Create(path string) (faultfs.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return countingFile{file, f}, nil
}

func (f *countingFS) OpenAppend(path string) (faultfs.File, error) {
	file, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return countingFile{file, f}, nil
}

func (f countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// begin and end open and close a span when tr is non-nil.
func begin(tr *tracer, name string, parent, op int) int {
	if tr == nil {
		return 0
	}
	return tr.begin(name, parent, op)
}

func end(tr *tracer, id int) time.Duration {
	if tr == nil {
		return 0
	}
	return tr.end(id)
}
