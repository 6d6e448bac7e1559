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

	// coalescing links, guarded by the server's mu (lock order s.mu → j.mu).
	primary   *job   // the running job this one attached to, nil otherwise
	followers []*job // jobs attached to this one

	mu           sync.Mutex
	state        State
	err          error
	report       *exhibit.Report
	cached       bool
	coalesced    bool // resolved by a primary rather than run
	recovered    bool // re-enqueued from the journal after a restart
	resumed      bool // enqueued with restored checkpoints to resume from
	userCanceled bool // DELETE, as opposed to a shutdown cancel
	journaled    bool // terminal record written, exactly once
	started      time.Time
	finished     time.Time
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
	cacheOrder []string        // cache keys in insertion order, for FIFO eviction
	inflight   map[string]*job // key → primary job queued or running
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
	attach = attach && !p.terminal()
	switch {
	case hit:
		// The engine's contract makes the result a pure function of the
		// cache key; only the report metadata (e.g. the Parallel knob)
		// reflects this request, so restamp it on a shallow clone.
		j.settleDone(cached)
		j.cached = true
		j.started, j.finished = j.created, time.Now()
		s.cacheHits.Add(1)
	case attach:
		// An identical job is already queued or running: attach to it
		// rather than sweeping twice. The follower shares the primary's
		// tracker (live progress) and is resolved when the primary ends.
		// This cannot race the primary's completion: finishJob snapshots
		// followers under the same s.mu, so an attach either lands before
		// that snapshot or observes p.terminal() above.
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
		j.resumed = len(j.saved) > 0
		s.queue = append(s.queue, j)
		s.inflight[j.key] = j
		s.ready.Signal()
	}
	s.registerLocked(j)
	s.pruneJobsLocked()
	s.mu.Unlock()
	if hit {
		j.cancel()
	}
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

// journalSubmit records an accepted job. A cache hit is done already,
// so its terminal record goes in the same append: one write and one
// fsync, and a torn tail that keeps only the submit line replays as an
// interrupted job. A journal failure degrades durability, not
// availability: the job still runs, it just would not be recovered after
// a crash.
func (s *Server) journalSubmit(j *job) {
	if s.store == nil {
		return
	}
	recs := []journalRecord{j.subRec}
	if j.cached {
		if rec, ok := j.takeTerminalRecord(); ok {
			recs = append(recs, rec)
		}
	}
	if err := s.store.append(recs...); err != nil {
		s.logf("server: journaling submit of %s: %v", j.id, err)
	}
}

// journalTerminal records a job's terminal state, exactly once, and
// removes the job's checkpoint file when it may have one; it does
// nothing for a job that is not terminal yet.
func (s *Server) journalTerminal(j *job) {
	if s.store == nil {
		return
	}
	rec, ok := j.takeTerminalRecord()
	if !ok {
		return
	}
	if err := s.store.append(rec); err != nil {
		s.logf("server: journaling %s of %s: %v", rec.Op, j.id, err)
	}
	if j.checkpointed.Load() {
		s.store.removeCheckpoints(j.id)
	}
}

// takeTerminalRecord builds j's terminal journal record and marks it
// journaled; ok is false while j is not terminal or once it was taken.
func (j *job) takeTerminalRecord() (rec journalRecord, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var op string
	switch j.state {
	case StateDone:
		op = opDone
	case StateFailed:
		op = opFailed
	case StateCanceled:
		op = opCanceled
	}
	if op == "" || j.journaled {
		return journalRecord{}, false
	}
	j.journaled = true
	rec = journalRecord{Op: op, ID: j.id, Key: j.key, Cached: j.cached, Time: rfc3339(j.finished)}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	return rec, true
}

// settleDone completes j with report, restamping the report's metadata
// with j's own knobs on a shallow clone (cache hits and coalesced
// followers share a result computed under another request's Parallel).
func (j *job) settleDone(report *exhibit.Report) {
	r := *report
	r.Meta = exhibit.MetaFor(j.cfg)
	j.state = StateDone
	j.report = &r
}

// storeResult inserts a completed report into the result cache (and, with
// a state dir, onto disk), evicting the oldest entries (FIFO) past the
// retention bound. A persistence failure is logged, never fatal: the
// in-memory cache still serves the result for this process's lifetime.
func (s *Server) storeResult(key string, report *exhibit.Report) {
	if s.store != nil {
		if blob, err := exhibit.EncodeReport(report); err != nil {
			s.logf("server: encoding result %s: %v", key, err)
		} else if err := s.store.saveResult(key, blob); err != nil {
			s.logf("server: persisting result %s: %v", key, err)
		}
	}
	var evicted []string
	s.mu.Lock()
	if _, dup := s.cache[key]; dup {
		s.mu.Unlock()
		return
	}
	s.cache[key] = report
	s.cacheOrder = append(s.cacheOrder, key)
	for len(s.cache) > s.opts.MaxCachedResults {
		evicted = append(evicted, s.cacheOrder[0])
		delete(s.cache, s.cacheOrder[0])
		s.cacheOrder = s.cacheOrder[1:]
	}
	s.mu.Unlock()
	if s.store != nil {
		for _, old := range evicted {
			s.store.removeResult(old)
		}
	}
}

// pruneJobsLocked forgets the oldest terminal jobs past the retention
// bound, so the job table does not grow without bound in a long-running
// service. Queued and running jobs are never pruned. Callers hold s.mu;
// the per-job state reads take j.mu, so the lock order is always
// s.mu → j.mu (runJob publishes results without holding j.mu across the
// cache write for exactly this reason).
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
		if j.terminalLocked() {
			// Canceled via DELETE while waiting for a worker: cancelJob
			// already did the bookkeeping.
			j.mu.Unlock()
			j.cancel()
			return
		}
		// Shutdown-canceled while waiting for a worker: terminal in this
		// process, but no terminal journal record — the job re-enqueues
		// on the next startup.
		j.state = StateCanceled
		j.err = mc.ErrCanceled
		j.finished = time.Now()
		j.mu.Unlock()
		j.cancel()
		s.finishJob(j, true)
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
				if err := s.store.saveCheckpoints(j.id, family); err != nil {
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

	var shutdownInterrupted bool
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.report = report
	case timedOut:
		j.state = StateFailed
		j.err = fmt.Errorf("job exceeded the server's max duration %s", s.opts.MaxJobDuration)
	case errors.Is(err, mc.ErrCanceled) || j.ctx.Err() != nil:
		j.state = StateCanceled
		j.err = mc.ErrCanceled
		// A cancel that came from Shutdown (not DELETE) leaves no
		// terminal record: the job is interrupted, not finished, and the
		// next startup resumes it from its flushed checkpoint.
		shutdownInterrupted = !j.userCanceled && s.baseCtx.Err() != nil
	default:
		j.state = StateFailed
		j.err = err
	}
	j.mu.Unlock()
	if err == nil {
		// Published after j.mu is released: the cache write takes s.mu, and
		// the prune path nests j.mu inside s.mu, so holding j.mu here would
		// invert the lock order. The result file lands before the "done"
		// journal record, so replay never sees a done job without its
		// result.
		s.storeResult(j.key, report)
	}
	j.cancel()
	s.finishJob(j, shutdownInterrupted)
}

// finishJob does the server-side bookkeeping once j is terminal: drop the
// in-flight key, journal the outcome (unless a shutdown interrupted the
// job, which must stay non-terminal in the journal to be resumed), and
// resolve coalesced followers. Shutdown-interrupted jobs keep their
// followers unresolved too — each holds its own non-terminal journal
// record and re-attaches on recovery.
func (s *Server) finishJob(j *job, shutdownInterrupted bool) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	var followers []*job
	if !shutdownInterrupted {
		followers = j.followers
		j.followers = nil
	}
	s.mu.Unlock()
	if shutdownInterrupted {
		return
	}
	s.journalTerminal(j)
	for _, f := range followers {
		s.resolveFollower(f, j)
	}
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

// resolveFollower settles a coalesced job from its primary's outcome: a
// restamped copy of the report on success, the primary's failure or
// cancellation otherwise (canceling a primary cancels its followers).
func (s *Server) resolveFollower(f *job, p *job) {
	p.mu.Lock()
	state, err, report := p.state, p.err, p.report
	p.mu.Unlock()
	f.mu.Lock()
	if f.terminalLocked() { // canceled and detached concurrently
		f.mu.Unlock()
		return
	}
	f.finished = time.Now()
	switch state {
	case StateDone:
		f.settleDone(report)
	case StateFailed:
		f.state = StateFailed
		f.err = err
	default:
		f.state = StateCanceled
		f.err = errors.New("canceled with the job it had coalesced onto")
	}
	f.mu.Unlock()
	f.cancel()
	s.journalTerminal(f)
}

// cancelJob is the DELETE path: marks the cancel as user-initiated (so it
// journals a terminal record instead of resuming on restart), detaches a
// coalesced follower from its primary, settles a still-queued job
// immediately, and cancels the job context either way.
func (s *Server) cancelJob(j *job) {
	s.mu.Lock()
	p := j.primary
	if p != nil {
		kept := p.followers[:0]
		for _, f := range p.followers {
			if f != j {
				kept = append(kept, f)
			}
		}
		p.followers = kept
	}
	s.mu.Unlock()

	j.mu.Lock()
	j.userCanceled = true
	settle := j.state == StateQueued || (p != nil && !j.terminalLocked())
	if settle {
		j.state = StateCanceled
		j.err = errors.New("canceled before start")
		if p != nil {
			j.err = errors.New("canceled (detached from the job it had coalesced onto)")
		}
		j.finished = time.Now()
	}
	j.mu.Unlock()
	// Cancel the job context (the engine stops within one shard); a
	// running primary then reaches finishJob through its worker. Terminal
	// states are untouched — cancel after done just reports the status.
	j.cancel()
	if settle {
		s.finishJob(j, false)
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
// checkpoints — or comes back failed if the check now rejects it. Runs
// during New, before any worker or handler exists, so it may touch
// server state without s.mu.
func (s *Server) recoverState(replayed []*replayedJob) {
	results := s.store.loadResults()
	checkpoints := s.store.loadCheckpoints()

	// Restore the result cache first (in journal order, respecting the
	// FIFO bound) so interrupted duplicates of a completed sweep are
	// served from it below.
	for _, rp := range replayed {
		if rp.term == nil || rp.term.Op != opDone {
			continue
		}
		if report, ok := results[rp.sub.Key]; ok {
			s.storeResult(rp.sub.Key, report)
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
			saved, found := checkpoints[rp.sub.ID]
			j = s.recoverJob(rp.sub, saved)
			j.checkpointed.Store(found)
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
		}
	}
	s.pruneJobsLocked()
	if n := s.jobsRecovered.Load(); n > 0 {
		s.logf("server: recovered %d interrupted job(s) from %s", n, s.opts.StateDir)
	}

	// Compact: rewrite the journal to just the jobs still in the table,
	// shedding pruned jobs and any torn tail.
	var compacted []journalRecord
	for _, j := range s.snapshotJobs() {
		compacted = append(compacted, j.subRec)
		if rec, ok := j.takeTerminalRecord(); ok {
			compacted = append(compacted, rec)
		}
	}
	if err := s.store.rewrite(compacted); err != nil {
		s.logf("server: journal compaction: %v", err)
	}
}

// registerLocked adds j to the job table. Callers hold s.mu.
func (s *Server) registerLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// recoverJob rebuilds an interrupted job from its submit record under the
// check a POST passes, primed with its saved checkpoints, or failed as not
// recoverable when the check rejects it.
func (s *Server) recoverJob(sub journalRecord, saved map[int]*mc.Checkpoint) *job {
	rec := sub
	ex, err := s.check(&rec)
	if err != nil {
		rec = sub
	}
	j := s.newJob(rec, ex)
	j.recovered = true
	if err != nil {
		j.state = StateFailed
		j.err = fmt.Errorf("not recoverable: %w", err)
		j.started, j.finished = j.created, time.Now()
		j.cancel()
		return j
	}
	j.saved = saved
	return j
}

// restoreJob rebuilds a job whose journal holds its terminal record, for
// listings: done ones with their persisted report when it survived. Its
// terminal record is rewritten by the startup compaction.
func (s *Server) restoreJob(sub, term journalRecord) *job {
	j := s.newJob(sub, exhibit.Exhibit{})
	j.cancel()
	j.started, j.finished = j.created, parseTime(term.Time)
	j.cached = term.Cached
	switch term.Op {
	case opDone:
		j.state = StateDone
		j.report = s.cache[sub.Key] // nil if the result file was lost: /result answers 410
	case opFailed:
		j.state = StateFailed
		j.err = errors.New(term.Error)
	default:
		j.state = StateCanceled
		j.err = errors.New(term.Error)
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
