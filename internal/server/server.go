// Package server implements the ARCC sweep service: a long-running HTTP
// front end over the exhibit registry. Clients submit exhibit or scenario
// jobs (POST /v1/jobs), poll their status and progress (GET /v1/jobs/{id}),
// stream the structured result in any registered format
// (GET /v1/jobs/{id}/result), and cancel mid-run (DELETE /v1/jobs/{id} —
// the engine's ErrCanceled plumbing stops within one shard).
//
// Jobs execute on a bounded worker pool; each worker runs one exhibit at
// a time under the server's base context, reusing the internal/mc
// sharding and pooled sim.Scratch machinery that already makes exhibit
// runs allocation-free and bit-identical at any parallelism. Because
// results depend only on (exhibit-or-scenario, seed, trials, quick) —
// never on the worker count — completed reports are kept in a
// content-addressed cache, and an identical resubmission is served
// without re-running (only the report's Meta is restamped with the new
// request's parameters). A resubmission that matches a job still queued
// or running coalesces onto it instead of sweeping twice: the follower
// shares the primary's progress and receives a restamped copy of its
// report when it completes (canceling the primary cancels its followers;
// canceling a follower just detaches it).
//
// With Options.StateDir set the service survives crashes: accepted jobs
// are recorded in an append-only fsync'd journal, completed reports are
// persisted as content-addressed files, and running jobs checkpoint
// their completed Monte Carlo shards every CheckpointPeriod. On
// startup the journal is replayed — tolerating a torn final record —
// the result cache is restored, and jobs interrupted mid-run re-enter
// through the same checks and admission (cache hit, coalesce, enqueue)
// as a POST /v1/jobs, resuming from their latest checkpoint; a record
// the checks reject comes back failed instead of running. The journal is
// compacted to the rebuilt job table at startup only. Because the engine
// merges per-shard accumulators deterministically, a resumed sweep's
// report is byte-identical to an uninterrupted one.
//
// The package is panic-proof at its boundary: every job is checked
// before it can reach a library panic path (unknown exhibits, invalid
// scenarios, negative trial counts are HTTP 400 for a request and a
// failed job for a replayed record), and both the HTTP handlers and the
// job runner convert any residual panic into an error response or a
// failed job instead of a dead process.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arcc/internal/exhibit"
	"arcc/internal/experiments"
	"arcc/internal/faultfs"
	"arcc/internal/mc"
)

// Options tunes the service; the zero value is usable.
type Options struct {
	// Workers bounds how many jobs execute concurrently; <= 0 means
	// GOMAXPROCS. Each job may itself fan out across Parallel engine
	// workers, so a small pool with parallel jobs already saturates the
	// machine.
	Workers int
	// QueueDepth bounds how many accepted jobs may wait for a worker;
	// <= 0 means DefaultQueueDepth. A full queue rejects submissions with
	// 503 rather than queueing unboundedly.
	QueueDepth int
	// MaxTrials caps a job's Monte Carlo channel count: the trials
	// override when set, the scenario's own count otherwise; <= 0 means
	// DefaultMaxTrials. Requests above the cap are 400s.
	MaxTrials int
	// MaxCachedResults bounds the content-addressed result cache; <= 0
	// means DefaultMaxCachedResults. When the bound is hit the oldest
	// entry is evicted (FIFO), so a long-running service does not retain
	// every report it ever produced.
	MaxCachedResults int
	// MaxFinishedJobs bounds how many terminal (done/failed/canceled)
	// jobs stay in the job table; <= 0 means DefaultMaxFinishedJobs.
	// When a new submission pushes the count over the bound, the oldest
	// terminal jobs are forgotten: they disappear from listings and their
	// ids answer 404. Queued and running jobs are never pruned.
	MaxFinishedJobs int
	// MaxJobDuration caps one job's wall-clock execution; 0 means
	// unlimited. A job that outlives the cap is canceled through the
	// engine's ctx path (stops within one shard) and marked failed with a
	// timeout reason, so a runaway sweep cannot occupy a worker forever.
	MaxJobDuration time.Duration
	// StateDir, when non-empty, makes the service durable: a job journal,
	// the result cache, and running-job checkpoints are persisted under
	// this directory and recovered on startup (see the package comment).
	StateDir string
	// CheckpointPeriod snapshots each running engine job when this much
	// time passed since its previous snapshot, so a crash loses at most
	// about one period of work per engine job the job has started, and a
	// job shorter than the period writes no checkpoint; <= 0 means
	// DefaultCheckpointPeriod. Only meaningful with StateDir.
	CheckpointPeriod time.Duration
	// FS is the filesystem the durable store writes through; nil means
	// the real one. Tests inject faults here (faultfs.Wrap).
	FS faultfs.FS
	// Logf receives operational log lines (journal write failures,
	// recovery notes); nil means the standard logger.
	Logf func(format string, args ...any)
}

// DefaultQueueDepth is the submission queue bound when Options.QueueDepth
// is zero.
const DefaultQueueDepth = 64

// DefaultMaxTrials is the per-job trial cap when Options.MaxTrials is
// zero: generous next to the paper's 10 000-channel sweeps, small enough
// that one request cannot wedge a worker for hours.
const DefaultMaxTrials = 1_000_000

// DefaultMaxCachedResults is the result-cache bound when
// Options.MaxCachedResults is zero.
const DefaultMaxCachedResults = 256

// DefaultMaxFinishedJobs is the terminal-job retention bound when
// Options.MaxFinishedJobs is zero.
const DefaultMaxFinishedJobs = 1024

// DefaultCheckpointPeriod is the checkpoint cadence when
// Options.CheckpointPeriod is zero.
const DefaultCheckpointPeriod = 2 * time.Second

// MaxParallel caps the per-job engine worker override.
const MaxParallel = 1024

// defaultTo replaces a non-positive option with its default.
func defaultTo[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// State is a job's lifecycle position. Transitions are
// queued → running → {done, failed, canceled}, with queued → canceled
// for jobs canceled before a worker picks them up; done/failed/canceled
// are terminal.
type State string

// The job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// job is one submitted run and its outcome.
type job struct {
	id      string
	key     string // content-addressed result identity
	name    string // exhibit name, for status listings
	format  string // default render format for /result
	ex      exhibit.Exhibit
	cfg     exhibit.Config
	tracker *exhibit.Tracker
	ctx     context.Context
	cancel  context.CancelFunc
	created time.Time
	subRec  journalRecord          // the journal record that re-creates this job
	saved   map[int]*mc.Checkpoint // checkpoints restored at recovery, nil otherwise
	// checkpointed is set once checkpoints/<id>.json may exist: the job
	// saved a checkpoint in this process, or recovery found the file.
	checkpointed atomic.Bool
	userCanceled atomic.Bool // DELETE, as opposed to a shutdown cancel

	// coalescing links, guarded by the server's mu (lock order s.mu → j.mu).
	primary   *job   // the running job this one attached to, nil otherwise
	followers []*job // jobs attached to this one

	mu        sync.Mutex
	state     State
	err       error
	report    *exhibit.Report
	cached    bool
	coalesced bool // resolved by a primary rather than run
	recovered bool // re-enqueued from the journal after a restart
	resumed   bool // enqueued with restored checkpoints to resume from
	started   time.Time
	finished  time.Time
	// submitted is set once the submit record is taken for the journal;
	// term is the terminal record settle readied and no one took yet.
	submitted bool
	term      *journalRecord
}

// Server owns the job table, the result cache, and the worker pool. Create
// one with New and serve its Handler; Shutdown drains it.
type Server struct {
	opts      Options
	baseCtx   context.Context
	cancelAll context.CancelFunc
	store     *store // nil when StateDir is unset
	wg        sync.WaitGroup

	mu sync.Mutex
	// queue holds the accepted jobs no worker has taken yet, oldest first;
	// ready wakes a worker when one joins it or the server closes.
	queue      []*job
	ready      *sync.Cond
	jobs       map[string]*job
	order      []string // job ids in submission order, for listings
	cache      map[string]*exhibit.Report
	cacheOrder []string                 // cache keys in insertion order, for FIFO eviction
	saving     map[string]chan struct{} // key → closed once its new result file is written
	inflight   map[string]*job          // key → primary job queued or running
	closed     bool
	seq        uint64

	jobsRun       atomic.Int64
	cacheHits     atomic.Int64
	jobsCoalesced atomic.Int64
	jobsRecovered atomic.Int64
}

// Metrics is a snapshot of the server's run counters. JobsRun counts
// exhibits actually executed (cache hits do not run), CacheHits counts
// submissions served from the result cache, JobsCoalesced counts
// submissions attached to an identical in-flight job, and JobsRecovered
// counts jobs re-enqueued from the journal after a restart.
type Metrics struct {
	JobsRun       int64
	CacheHits     int64
	JobsCoalesced int64
	JobsRecovered int64
}

// New starts a server with a running worker pool, recovering persisted
// state first when Options.StateDir is set. Callers must Shutdown it to
// release the workers.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	defaultTo(&opts.QueueDepth, DefaultQueueDepth)
	defaultTo(&opts.MaxTrials, DefaultMaxTrials)
	defaultTo(&opts.MaxCachedResults, DefaultMaxCachedResults)
	defaultTo(&opts.MaxFinishedJobs, DefaultMaxFinishedJobs)
	defaultTo(&opts.CheckpointPeriod, DefaultCheckpointPeriod)
	if opts.FS == nil {
		opts.FS = faultfs.OS()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      map[string]*job{},
		cache:     map[string]*exhibit.Report{},
		inflight:  map[string]*job{},
		saving:    map[string]chan struct{}{},
	}
	s.ready = sync.NewCond(&s.mu)
	if opts.StateDir != "" {
		st, err := newStore(opts.FS, opts.StateDir, s.logf)
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = st
		if replayed := pairRecords(st.replay()); len(replayed) > 0 {
			s.recoverState(replayed)
		}
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Metrics returns the current run counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		JobsRun:       s.jobsRun.Load(),
		CacheHits:     s.cacheHits.Load(),
		JobsCoalesced: s.jobsCoalesced.Load(),
		JobsRecovered: s.jobsRecovered.Load(),
	}
}

// Shutdown stops accepting jobs and drains the pool: queued and running
// jobs keep executing until they finish or ctx expires, at which point
// every job context is canceled (the engine stops within one shard) and
// the workers are awaited. It returns ctx.Err() when the deadline forced
// the cancel, nil on a clean drain. With a state dir, jobs the deadline
// interrupted keep their latest checkpoint and no terminal journal
// record, so the next startup resumes them where they stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.ready.Broadcast()
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.cancelAll()
		<-drained
		err = ctx.Err()
	}
	if s.store != nil {
		s.store.close()
	}
	return err
}

// check is the one admission rule for a job record, whether it arrived
// as a POST body (validate) or was replayed from the journal
// (recoverState): exactly one of exhibit and scenario, trials within
// [0, MaxTrials] (the override, or a scenario's own count when there is
// none), parallel within [0, MaxParallel], a renderable format, and a
// registered exhibit or a valid scenario. On success it fills in the
// record's canonical name, default format and cache key and returns the
// runnable exhibit; nothing that fails it reaches a worker.
func (s *Server) check(rec *journalRecord) (exhibit.Exhibit, error) {
	trials := rec.Trials
	if trials == 0 && rec.Scenario != nil {
		trials = rec.Scenario.Trials
	}
	switch {
	case rec.Exhibit == "" && rec.Scenario == nil:
		return exhibit.Exhibit{}, errors.New("job needs exactly one of \"exhibit\" and \"scenario\"")
	case rec.Exhibit != "" && rec.Scenario != nil:
		return exhibit.Exhibit{}, errors.New("job sets both \"exhibit\" and \"scenario\"; pick one")
	case rec.Trials < 0:
		return exhibit.Exhibit{}, fmt.Errorf("negative trials %d", rec.Trials)
	case trials > s.opts.MaxTrials:
		return exhibit.Exhibit{}, fmt.Errorf("trials %d exceeds the server cap %d", trials, s.opts.MaxTrials)
	case rec.Parallel < 0 || rec.Parallel > MaxParallel:
		return exhibit.Exhibit{}, fmt.Errorf("parallel %d outside [0, %d]", rec.Parallel, MaxParallel)
	}
	if rec.Format == "" {
		rec.Format = "json"
	}
	if _, err := exhibit.RendererFor(rec.Format); err != nil {
		return exhibit.Exhibit{}, err
	}
	if rec.Scenario != nil {
		// NewScenarioExhibit checks the scenario and resolves it. The key
		// hashes the *effective* scenario, so textually different JSON
		// describing the same sweep dedupes.
		ex, err := experiments.NewScenarioExhibit(*rec.Scenario)
		if err != nil {
			return exhibit.Exhibit{}, err
		}
		rec.Name = ex.Name
		rec.Key = cacheKey("", rec.Scenario, rec.Seed, rec.Trials, rec.Quick)
		return ex, nil
	}
	ex, ok := exhibit.Lookup(rec.Exhibit)
	if !ok {
		return exhibit.Exhibit{}, fmt.Errorf("unknown exhibit %q; registered: %s", rec.Exhibit, strings.Join(exhibit.Names(), ", "))
	}
	rec.Name = ex.Name
	rec.Key = cacheKey(ex.Name, nil, rec.Seed, rec.Trials, rec.Quick)
	return ex, nil
}

// newJob builds the queued job that rec describes: its engine config,
// progress tracker and cancelable context. ex is the exhibit check
// returned (the zero Exhibit for a job that will never run). A record
// not journaled yet is stamped with the job's creation time, so the
// journal replays the same created time after a restart.
func (s *Server) newJob(rec journalRecord, ex exhibit.Exhibit) *job {
	tracker := &exhibit.Tracker{}
	ctx, cancel := context.WithCancel(s.baseCtx)
	created := parseTime(rec.Time) // now, for a record not journaled yet
	rec.Time = rfc3339(created)
	return &job{
		id:     rec.ID,
		key:    rec.Key,
		name:   rec.Name,
		format: rec.Format,
		ex:     ex,
		cfg: exhibit.NewConfig(
			exhibit.WithQuick(rec.Quick),
			exhibit.WithSeed(rec.Seed),
			exhibit.WithParallel(rec.Parallel),
			exhibit.WithTrials(rec.Trials),
			exhibit.WithProgress(tracker),
		),
		tracker: tracker,
		ctx:     ctx,
		cancel:  cancel,
		created: created,
		subRec:  rec,
		state:   StateQueued,
	}
}

// admit registers a checked job: served straight from the result cache
// when an identical run already completed, attached to an identical
// in-flight job when one is queued or running, enqueued for a worker
// otherwise. It returns errServerClosed after Shutdown and errQueueFull
// when a live submission finds QueueDepth jobs waiting; a recovered job
// is enqueued past the bound, so recovery is never refused by its own
// backlog, and the bound is back to QueueDepth once those jobs have been
// taken. Journaling is the caller's: a POST journals what it admitted,
// recovery compacts the journal afterwards.
func (s *Server) admit(j *job) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.cancel()
		return errServerClosed
	}
	cached, hit := s.cache[j.key]
	p, attach := s.inflight[j.key]
	switch {
	case hit:
		// The engine's contract makes the result a pure function of the
		// cache key, so the job is done at once. It is settled before it
		// is registered, so no one sees it queued; settle takes s.mu.
		s.mu.Unlock()
		j.cached, j.started = true, j.created
		s.cacheHits.Add(1)
		s.settle(j, outcome{state: StateDone, report: cached})
		s.mu.Lock()
	case attach:
		// An identical job is already queued or running: attach to it
		// rather than sweeping twice. The follower shares the primary's
		// tracker (live progress) and is settled when the primary ends.
		// This cannot race the primary's settle, which leaves s.inflight
		// and takes its followers under the same s.mu.
		j.primary = p
		j.coalesced = true
		j.tracker = p.tracker
		p.followers = append(p.followers, j)
		p.mu.Lock()
		if p.state == StateRunning {
			j.state = StateRunning
			j.started = time.Now()
		}
		p.mu.Unlock()
		s.jobsCoalesced.Add(1)
	case len(s.queue) >= s.opts.QueueDepth && !j.recovered:
		// Checked under s.mu, so a rejected job is simply never
		// registered: there is no rollback to race with a concurrent
		// submission appending its own id to s.order.
		s.mu.Unlock()
		j.cancel()
		return errQueueFull
	default:
		s.queue = append(s.queue, j)
		s.inflight[j.key] = j
		s.ready.Signal()
	}
	s.registerLocked(j)
	s.pruneJobsLocked()
	s.mu.Unlock()
	return nil
}

// nextID hands out the id of the next live submission.
func (s *Server) nextID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return fmt.Sprintf("job-%d", s.seq)
}

var (
	errServerClosed = errors.New("server is shutting down")
	errQueueFull    = errors.New("job queue is full")
)

// outcome is how a job ends: its terminal state, with the report of a
// done job (nil for a restored one whose result file was lost) or the
// error of any other.
type outcome struct {
	state  State
	err    error
	report *exhibit.Report
	// interrupted marks a job a shutdown stopped: it gets no terminal
	// record, keeps its checkpoint file and its followers, and so the
	// next startup resumes them all.
	interrupted bool
}

// settle is the one transition into a terminal state, whichever way a
// job ends: it ran, a shutdown interrupted it, its primary ended, a
// DELETE, a cache hit, a recovered record the check rejects, or a
// restored terminal record. In order, it
//  1. puts a fresh report in the result cache, so a job never reads done
//     while an identical resubmission would still miss the cache;
//  2. flips the state and leaves s.inflight, once: a job already terminal
//     is left as it is. Steps 1 and 2 hold s.mu → j.mu;
//  3. cancels the job's context;
//  4. writes the fresh report's result file, then the terminal journal
//     record, so replay never sees a done job without its result (a
//     cache hit on a report whose file is still being written waits for
//     it);
//  5. removes the job's checkpoint file;
//  6. settles the followers from the job's outcome.
//
// An interrupted job stops after step 3.
func (s *Server) settle(j *job, o outcome) {
	s.mu.Lock()
	j.mu.Lock()
	if j.terminalLocked() {
		j.mu.Unlock()
		s.mu.Unlock()
		return
	}
	var evicted []string
	fresh := false
	if o.state == StateDone && o.report != nil {
		evicted, fresh = s.cacheResultLocked(j.key, o.report)
	}
	saving := s.saving[j.key]
	if fresh && s.store != nil {
		saving = make(chan struct{})
		s.saving[j.key] = saving
	}
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	j.state, j.err = o.state, o.err
	if o.report != nil {
		// Cache hits and followers share a report computed under another
		// request's knobs: restamp the metadata on a shallow clone.
		r := *o.report
		r.Meta = exhibit.MetaFor(j.cfg)
		j.report = &r
	}
	if j.finished.IsZero() { // a restored job keeps its journaled time
		j.finished = time.Now()
	}
	// The journal ops are named after the terminal states.
	rec := journalRecord{Op: string(o.state), ID: j.id, Key: j.key, Cached: j.cached,
		Time: rfc3339(j.finished), Started: rfc3339(j.started)}
	if o.err != nil {
		rec.Error = o.err.Error()
	}
	var followers []*job
	if !o.interrupted {
		followers, j.followers = j.followers, nil
	}
	j.mu.Unlock()
	s.mu.Unlock()
	j.cancel()
	if o.interrupted {
		return
	}

	if fresh && s.store != nil {
		s.saveResult(j.key, o.report, evicted, saving)
	} else if saving != nil {
		<-saving
	}
	j.mu.Lock()
	j.term = &rec
	j.mu.Unlock()
	s.journal(j, false)
	if j.checkpointed.Load() {
		s.store.remove(checkpointsDir, j.id)
	}

	fo := outcome{state: o.state, err: o.err, report: o.report}
	if o.state == StateCanceled {
		fo.err = errors.New("canceled with the job it had coalesced onto")
	}
	for _, f := range followers {
		s.settle(f, fo)
	}
}

// journal appends the records of j that the journal lacks: its submit
// record when submit is set, and its terminal record once settle readied
// it. A journal failure degrades durability, not availability: the job
// still runs, it just would not be recovered after a crash.
func (s *Server) journal(j *job, submit bool) {
	if s.store == nil {
		return
	}
	if recs := j.takeRecords(submit); len(recs) > 0 {
		if err := s.store.append(recs...); err != nil {
			s.logf("server: journaling %s: %v", j.id, err)
		}
	}
}

// takeRecords takes j's submit record when submit is set, then its
// terminal record if settle readied it — but only once the submit record
// was taken, by this call or an earlier one. Whoever journals the submit
// (a POST, or recovery's compaction) thus also journals the terminal
// record of a job settled before it, in the same write: a cache hit
// costs one fsync, and a torn tail that keeps only the submit line
// replays as an interrupted job.
func (j *job) takeRecords(submit bool) []journalRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	var recs []journalRecord
	if submit {
		j.submitted = true
		recs = append(recs, j.subRec)
	}
	if j.submitted && j.term != nil {
		recs = append(recs, *j.term)
		j.term = nil
	}
	return recs
}

// cacheResultLocked puts a report in the in-memory result cache, evicting
// the oldest entries (FIFO) past the retention bound. It reports whether
// the key was new, and the evicted keys. Callers hold s.mu.
func (s *Server) cacheResultLocked(key string, report *exhibit.Report) (evicted []string, added bool) {
	if _, dup := s.cache[key]; dup {
		return nil, false
	}
	s.cache[key] = report
	s.cacheOrder = append(s.cacheOrder, key)
	for len(s.cache) > s.opts.MaxCachedResults {
		evicted = append(evicted, s.cacheOrder[0])
		delete(s.cache, s.cacheOrder[0])
		s.cacheOrder = s.cacheOrder[1:]
	}
	return evicted, true
}

// saveResult persists a report the cache just took, closes saved once
// the file is written, and removes the files of the results the cache
// evicted. A persistence failure is logged, never fatal: the in-memory
// cache still serves the result for this process's lifetime.
func (s *Server) saveResult(key string, report *exhibit.Report, evicted []string, saved chan struct{}) {
	if blob, err := exhibit.EncodeReport(report); err != nil {
		s.logf("server: encoding result %s: %v", key, err)
	} else if err := s.store.put(resultsDir, key, blob); err != nil {
		s.logf("server: persisting result %s: %v", key, err)
	}
	s.mu.Lock()
	if s.saving[key] == saved {
		delete(s.saving, key)
	}
	s.mu.Unlock()
	close(saved)
	for _, old := range evicted {
		s.store.remove(resultsDir, old)
	}
}

// pruneJobsLocked forgets the oldest terminal jobs past the retention
// bound, so the job table does not grow without bound in a long-running
// service. Queued and running jobs are never pruned. Callers hold s.mu;
// the per-job state reads take j.mu, so the lock order is always
// s.mu → j.mu.
func (s *Server) pruneJobsLocked() {
	var terminal []string
	for _, id := range s.order {
		if s.jobs[id].terminal() {
			terminal = append(terminal, id)
		}
	}
	evict := len(terminal) - s.opts.MaxFinishedJobs
	if evict <= 0 {
		return
	}
	drop := make(map[string]bool, evict)
	for _, id := range terminal[:evict] {
		drop[id] = true
		delete(s.jobs, id)
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if !drop[id] {
			kept = append(kept, id)
		}
	}
	s.order = kept
}

// terminal reports whether the job reached a terminal state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminalLocked()
}

func (j *job) terminalLocked() bool {
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// lookup returns the job registered under id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// snapshotJobs returns all jobs in submission order.
func (s *Server) snapshotJobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// worker runs queued jobs in order until the server is closed and the
// queue is empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.ready.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one job and records its outcome. Exhibit code runs
// under a recover guard: a panic that slips past request validation fails
// the job, never the process.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued || j.ctx.Err() != nil {
		// Canceled while waiting for a worker. A DELETE settles the job
		// itself; a shutdown interrupts it, to re-enqueue on the next
		// startup.
		interrupted := j.state == StateQueued && !j.userCanceled.Load()
		j.mu.Unlock()
		if interrupted {
			s.settle(j, outcome{state: StateCanceled, err: mc.ErrCanceled, interrupted: true})
		}
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.followersRunning(j)

	// With a state dir, thread checkpoint/resume through every engine job
	// the exhibit runs. The Resumer sequence-indexes the engine jobs, so
	// a resumed run's checkpoints line up with the interrupted one's, and
	// hands each snapshot over as the whole family, written as one file so
	// that replay always sees a consistent set. Write failures degrade
	// durability, never the sweep.
	if s.store != nil {
		j.cfg.Resume = mc.NewResumer(j.saved, s.opts.CheckpointPeriod,
			func(family map[int]*mc.Checkpoint) {
				j.checkpointed.Store(true)
				blob, err := json.Marshal(family)
				if err == nil {
					err = s.store.put(checkpointsDir, j.id, blob)
				}
				if err != nil {
					s.logf("server: persisting checkpoint of %s: %v", j.id, err)
				}
			})
	}

	// A runaway job is bounded by MaxJobDuration through the same ctx
	// path a cancel uses; the deadline variant is told apart from a user
	// or shutdown cancel below.
	runCtx := j.ctx
	cancelRun := context.CancelFunc(func() {})
	if d := s.opts.MaxJobDuration; d > 0 {
		runCtx, cancelRun = context.WithTimeout(j.ctx, d)
	}
	report, err := s.execute(runCtx, j)
	timedOut := errors.Is(runCtx.Err(), context.DeadlineExceeded) && j.ctx.Err() == nil
	cancelRun()

	o := outcome{state: StateDone, report: report}
	switch {
	case err == nil:
	case timedOut:
		o = outcome{state: StateFailed, err: fmt.Errorf("job exceeded the server's max duration %s", s.opts.MaxJobDuration)}
	case errors.Is(err, mc.ErrCanceled) || j.ctx.Err() != nil:
		// A cancel that came from Shutdown (not DELETE) interrupts the
		// job: the next startup resumes it from its flushed checkpoint.
		o = outcome{state: StateCanceled, err: mc.ErrCanceled,
			interrupted: !j.userCanceled.Load() && s.baseCtx.Err() != nil}
	default:
		o = outcome{state: StateFailed, err: err}
	}
	s.settle(j, o)
}

// followersRunning flips j's followers to running alongside it.
func (s *Server) followersRunning(j *job) {
	s.mu.Lock()
	followers := append([]*job(nil), j.followers...)
	s.mu.Unlock()
	for _, f := range followers {
		f.mu.Lock()
		if f.state == StateQueued {
			f.state = StateRunning
			f.started = time.Now()
		}
		f.mu.Unlock()
	}
}

// cancelJob is the DELETE path: marks the cancel as user-initiated (so it
// journals a terminal record instead of resuming on restart), detaches a
// coalesced follower from its primary, cancels the job context (the
// engine stops within one shard, and a running primary's worker then
// settles it) and settles a follower or a still-queued job at once.
// Terminal jobs are untouched: cancel after done just reports the status.
func (s *Server) cancelJob(j *job) {
	s.mu.Lock()
	p := j.primary
	if p != nil {
		p.followers = slices.DeleteFunc(p.followers, func(f *job) bool { return f == j })
	}
	s.mu.Unlock()

	j.userCanceled.Store(true)
	j.mu.Lock()
	j.cancel() // under j.mu, so a worker that has not started j never will
	queued := j.state == StateQueued
	j.mu.Unlock()
	switch {
	case p != nil:
		s.settle(j, outcome{state: StateCanceled, err: errors.New("canceled (detached from the job it had coalesced onto)")})
	case queued:
		s.settle(j, outcome{state: StateCanceled, err: errors.New("canceled before start")})
	}
}

func (s *Server) execute(ctx context.Context, j *job) (report *exhibit.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exhibit %s panicked: %v", j.name, p)
		}
	}()
	s.jobsRun.Add(1)
	return j.ex.Run(ctx, j.cfg)
}

// replayedJob pairs a job's submit record with its terminal record (nil
// for interrupted jobs).
type replayedJob struct {
	sub  journalRecord
	term *journalRecord
}

// pairRecords groups replayed journal records by job, in submission
// order: the first submit record of each id, and the first terminal
// record of that id wherever it sits in the journal. A terminal record
// may precede its submit: a POST journals its submit after admit has
// enqueued the job (a refused job is never journaled), so a fast worker
// can append the job's done record first.
func pairRecords(recs []journalRecord) []*replayedJob {
	terms := map[string]*journalRecord{}
	for i, rec := range recs {
		if rec.Op != opSubmit && terms[rec.ID] == nil {
			terms[rec.ID] = &recs[i]
		}
	}
	var out []*replayedJob
	seen := map[string]bool{}
	for _, rec := range recs {
		if rec.Op == opSubmit && rec.ID != "" && !seen[rec.ID] {
			seen[rec.ID] = true
			out = append(out, &replayedJob{sub: rec, term: terms[rec.ID]})
		}
	}
	return out
}

// recoverState rebuilds the job table and result cache from the replayed
// journal, then compacts the journal to the rebuilt table. Terminal jobs
// come back for listings; every interrupted one goes through the same
// check and admit a POST does — primed with its latest persisted
// checkpoints when it is enqueued — or comes back failed if the check
// now rejects it. A result or checkpoint file is decoded only when a
// replayed job refers to it, and removed once the compacted journal no
// longer does. Runs during New, before any worker or handler exists, so
// it may touch server state without s.mu.
func (s *Server) recoverState(replayed []*replayedJob) {
	results := s.store.names(resultsDir)
	checkpoints := s.store.names(checkpointsDir)

	// Restore the result cache first (in journal order, respecting the
	// FIFO bound) from the result files of done and interrupted jobs, so
	// an interrupted job whose result landed before the crash, or a
	// duplicate of a completed sweep, is served from it below.
	for _, rp := range replayed {
		key := rp.sub.Key
		if _, held := s.cache[key]; held || !results[key] || rp.term != nil && rp.term.Op != opDone {
			continue
		}
		if report := load(s, resultsDir, key, exhibit.DecodeReport); report != nil {
			s.cacheResultLocked(key, report)
		}
	}

	for _, rp := range replayed {
		if n := seqOf(rp.sub.ID); n > s.seq {
			s.seq = n
		}
		var j *job
		if rp.term != nil {
			j = s.restoreJob(rp.sub, *rp.term)
		} else {
			j = s.recoverJob(rp.sub)
		}
		if j.terminal() {
			s.registerLocked(j)
			continue
		}
		if err := s.admit(j); err != nil {
			// Unreachable: the server is not closed yet and recovered
			// jobs bypass the queue bound.
			s.logf("server: recovering %s: %v", j.id, err)
		}
		if s.inflight[j.key] == j {
			s.jobsRecovered.Add(1)
			if checkpoints[j.id] {
				// The file goes when the job settles, whether or not it
				// decodes: one that does not re-runs the job from scratch.
				j.checkpointed.Store(true)
				j.saved = load(s, checkpointsDir, j.id, func(blob []byte) (cps map[int]*mc.Checkpoint, err error) {
					err = json.Unmarshal(blob, &cps)
					return
				})
				j.resumed = len(j.saved) > 0
			}
		}
	}
	s.pruneJobsLocked()
	if n := s.jobsRecovered.Load(); n > 0 {
		s.logf("server: recovered %d interrupted job(s) from %s", n, s.opts.StateDir)
	}

	// Compact: rewrite the journal to just the jobs still in the table,
	// shedding pruned jobs and any torn tail. Each job's submit record is
	// taken here, with the terminal record of a job recovery settled.
	var compacted []journalRecord
	for _, j := range s.snapshotJobs() {
		compacted = append(compacted, j.takeRecords(true)...)
	}
	if err := s.store.rewrite(compacted); err != nil {
		s.logf("server: journal compaction: %v", err)
	}

	// Only the cached results and the re-enqueued jobs' checkpoints stay;
	// the evicted, pruned, undecodable and unknown files go.
	for key := range results {
		if _, held := s.cache[key]; !held {
			s.store.remove(resultsDir, key)
		}
	}
	for id := range checkpoints {
		if j := s.jobs[id]; j == nil || !j.checkpointed.Load() {
			s.store.remove(checkpointsDir, id)
		}
	}
}

// load decodes the kind file called name. A file that does not read or
// decode is logged and skipped as the zero T: losing it costs a re-run,
// not a failed startup.
func load[T any](s *Server, kind, name string, decode func([]byte) (T, error)) T {
	blob, err := s.store.fs.ReadFile(s.store.path(kind, name))
	if err == nil {
		var v T
		if v, err = decode(blob); err == nil {
			return v
		}
	}
	s.logf("server: skipping unreadable %s/%s: %v", kind, name, err)
	var zero T
	return zero
}

// registerLocked adds j to the job table. Callers hold s.mu.
func (s *Server) registerLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// recoverJob rebuilds an interrupted job from its submit record under the
// check a POST passes, or failed as not recoverable when the check rejects
// it.
func (s *Server) recoverJob(sub journalRecord) *job {
	rec := sub
	ex, err := s.check(&rec)
	if err != nil {
		rec = sub
	}
	j := s.newJob(rec, ex)
	j.recovered = true
	if err != nil {
		j.started = j.created
		s.settle(j, outcome{state: StateFailed, err: fmt.Errorf("not recoverable: %w", err)})
	}
	return j
}

// restoreJob rebuilds a job whose journal holds its terminal record, for
// listings: done ones with their persisted report when it survived. Its
// times are the journaled ones; a terminal record written before records
// carried the start time gives its created time. The startup compaction
// rewrites its records.
func (s *Server) restoreJob(sub, term journalRecord) *job {
	j := s.newJob(sub, exhibit.Exhibit{})
	j.cached = term.Cached
	j.started, j.finished = j.created, parseTime(term.Time)
	if term.Started != "" {
		j.started = parseTime(term.Started)
	}
	switch term.Op {
	case opDone:
		// The report is nil if the result file was lost: /result answers 410.
		s.settle(j, outcome{state: StateDone, report: s.cache[sub.Key]})
	case opFailed:
		s.settle(j, outcome{state: StateFailed, err: errors.New(term.Error)})
	default:
		s.settle(j, outcome{state: StateCanceled, err: errors.New(term.Error)})
	}
	return j
}

// seqOf extracts the numeric suffix of a "job-N" id, 0 when malformed.
func seqOf(id string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "job-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func parseTime(s string) time.Time {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Now()
	}
	return t
}

// cacheKey derives the content-addressed identity of a job's result: a
// hash over everything the result depends on — the exhibit name or the
// full effective scenario, the seed, the trial override, and the profile
// — and nothing it does not (parallelism never changes a result, per the
// engine contract, so jobs differing only in Parallel share an entry).
func cacheKey(exhibitName string, sc *exhibit.Scenario, seed int64, trials int, quick bool) string {
	k := struct {
		Exhibit  string            `json:"exhibit,omitempty"`
		Scenario *exhibit.Scenario `json:"scenario,omitempty"`
		Seed     int64             `json:"seed"`
		Trials   int               `json:"trials"`
		Quick    bool              `json:"quick"`
	}{exhibitName, sc, seed, trials, quick}
	b, err := json.Marshal(k)
	if err != nil {
		// Scenario and the scalar fields always marshal; reaching here is
		// a programmer error in the key struct itself.
		panic(fmt.Sprintf("server: cache key marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
