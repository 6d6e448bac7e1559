package mc

import (
	"encoding"
	"maps"
	"sync"
	"time"
)

// A Checkpoint is the durable state of a partially executed job: the
// serialized accumulators of its completed shards plus the job shape
// that makes the snapshot meaningful. Because a shard's RNG stream is
// derived from (Seed, shard index) alone and the engine always merges
// accumulators in shard-index order, a run resumed from a checkpoint is
// bit-identical to an uninterrupted run of the same job: the restored
// shards contribute exactly the accumulator states they would have
// produced live, and the skipped work never touches the remaining
// shards' streams.
//
// The engine writes the shard-order fold of shards [0, Folded) as one
// blob, Shards[0], plus one blob per shard that finished ahead of an
// earlier one, so a snapshot's size does not grow with the shards done.
// Folded absent, 0 or 1 is the per-shard layout, where Shards[0] is
// shard 0 alone; checkpoints written before the fold resume as such.
//
// Checkpoints serialize naturally as JSON (shard blobs become base64),
// which is how the sweep service persists them.
type Checkpoint struct {
	Trials    int   `json:"trials"`
	Seed      int64 `json:"seed"`
	ShardSize int   `json:"shard_size"`
	// Folded is the number of shards Shards[0] covers, from shard 0 on,
	// when it is above 1.
	Folded int `json:"folded,omitempty"`
	// Shards maps a shard index to its accumulator's MarshalBinary bytes;
	// entry 0 holds the folded prefix.
	Shards map[int][]byte `json:"shards"`
}

// Done returns the number of trials the checkpoint covers: those of its
// folded prefix and of every other completed shard it holds.
func (c *Checkpoint) Done() int {
	size := c.ShardSize
	if size <= 0 {
		size = DefaultShardSize
	}
	prefix := max(c.Folded, 1)
	done := 0
	for s := range c.Shards {
		if s == 0 {
			done += min(prefix*size, c.Trials)
		} else if s >= prefix {
			done += shardTrials(s, size, c.Trials)
		}
	}
	return done
}

// matches reports whether the checkpoint was taken from a job of the
// given shape. A mismatched checkpoint is ignored wholesale: resuming it
// would merge accumulators from foreign streams.
func (c *Checkpoint) matches(trials int, seed int64, shardSize int) bool {
	return c != nil && c.Trials == trials && c.Seed == seed && c.ShardSize == shardSize
}

// CheckpointConfig enables shard-level checkpoint/resume for one job
// (Options.Checkpoint). Checkpointing requires the job's accumulators to
// implement encoding.BinaryMarshaler and encoding.BinaryUnmarshaler; a
// job whose accumulators do not is silently run without snapshots (and a
// blob that fails to marshal is simply left out of them), so
// checkpointing degrades to a plain run, never an error.
type CheckpointConfig struct {
	// Resume holds the snapshot of a prior interrupted run of the same
	// job. Shards it covers are not re-executed: their accumulators are
	// deserialized and merged in shard order as if they had just run. A
	// checkpoint whose (Trials, Seed, ShardSize) does not match the job,
	// or whose Folded lies outside [0, shards], is ignored; so is each
	// blob that fails to deserialize. The work they stood for re-runs.
	Resume *Checkpoint
	// Period emits a snapshot to Sink when at least Period has elapsed
	// since the previous one (checked as shards complete; an idle job
	// does not snapshot on a timer), so a crash loses at most about one
	// period of the job's work. Zero snapshots after every completed
	// shard: the right default for jobs whose shards are whole simulator
	// runs (ShardSize 1).
	Period time.Duration
	// Sink receives each snapshot. Calls are serialised by the engine and
	// the Checkpoint (including its blobs) is never mutated afterwards,
	// so the sink may retain or persist it from another goroutine. A slow
	// sink stalls the workers' bookkeeping, not their trials; a sink that
	// must not block should hand off and return. The engine also flushes
	// a final snapshot when a run is cancelled mid-way, so a graceful
	// shutdown persists every completed shard, not just the last cadence
	// boundary.
	Sink func(*Checkpoint)
}

// checkpointable is what a job's accumulators must satisfy for shard
// snapshots to work. The round trip must be exact — Unmarshal(Marshal(a))
// must reproduce a's state bit for bit — or the resumed-equals-
// uninterrupted invariant breaks.
type checkpointable interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// trialChecker is implemented by accumulators whose snapshot names the
// trials it holds (mapAcc). restore hands it the trial range [lo, hi) a
// blob stands for and skips a blob that names other trials, so its
// shards re-run.
type trialChecker interface {
	checkTrials(lo, hi int) error
}

// checkpointer restores a run from its Resume snapshot and turns the
// run's fold into snapshots at the configured cadence. completed runs
// under the fold's lock; flush takes it.
type checkpointer struct {
	cfg       *CheckpointConfig
	job       Job
	size      int
	sinceSnap int
	lastSnap  time.Time
}

// newCheckpointer returns nil when checkpointing is off or the job's
// accumulators cannot round-trip.
func newCheckpointer(job Job, size int, cfg *CheckpointConfig) *checkpointer {
	if cfg == nil {
		return nil
	}
	if _, ok := job.NewAcc().(checkpointable); !ok {
		return nil
	}
	return &checkpointer{cfg: cfg, job: job, size: size, lastSnap: time.Now()}
}

// snapshots reports whether the run emits snapshots at all.
func (c *checkpointer) snapshots() bool {
	return c != nil && c.cfg.Sink != nil
}

// restore folds the resumable shards of cfg.Resume into f and returns how
// many trials they cover. Invalid blobs are skipped — their shards
// re-run.
func (c *checkpointer) restore(f *fold, shards int) (resumedTrials int) {
	r := c.cfg.Resume
	trials := c.job.Trials
	if !r.matches(trials, c.job.Seed, c.size) || r.Folded < 0 || r.Folded > shards {
		return 0
	}
	// decode returns the accumulator blob stands for, the shard-order
	// fold of trials [lo, hi), or nil when it does not.
	decode := func(blob []byte, lo, hi int) Accumulator {
		if len(blob) == 0 {
			return nil
		}
		acc := c.job.NewAcc()
		if acc.(checkpointable).UnmarshalBinary(blob) != nil {
			return nil
		}
		if tc, ok := acc.(trialChecker); ok && tc.checkTrials(lo, hi) != nil {
			return nil
		}
		return acc
	}
	// The prefix goes in first, so the shards after it fold onto it.
	prefix := max(r.Folded, 1)
	hi := min(prefix*c.size, trials)
	if acc := decode(r.Shards[0], 0, hi); acc != nil {
		f.prefix, f.folded = acc, prefix
		resumedTrials += hi
	}
	for s, blob := range r.Shards {
		if s < prefix || s >= shards {
			continue
		}
		lo := s * c.size
		n := shardTrials(s, c.size, trials)
		if acc := decode(blob, lo, lo+n); acc != nil {
			f.add(s, acc)
			resumedTrials += n
		}
	}
	return resumedTrials
}

// completed counts a freshly folded shard and snapshots when the cadence
// says so.
func (c *checkpointer) completed(f *fold) {
	if !c.snapshots() {
		return
	}
	c.sinceSnap++
	if c.cfg.Period <= 0 || time.Since(c.lastSnap) >= c.cfg.Period {
		c.snapshot(f)
	}
}

// flush emits a final snapshot covering every completed shard; the
// engine calls it when a run is cancelled so nothing done is lost.
func (c *checkpointer) flush(f *fold) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.snapshots() && c.sinceSnap > 0 {
		c.snapshot(f)
	}
}

// snapshot hands the sink the fold as it stands: the prefix as one blob
// and every shard waiting to fold as its own.
func (c *checkpointer) snapshot(f *fold) {
	c.sinceSnap = 0
	c.lastSnap = time.Now()
	cp := &Checkpoint{Trials: c.job.Trials, Seed: c.job.Seed, ShardSize: c.size,
		Shards: make(map[int][]byte, 1+len(f.later))}
	add := func(s int, acc Accumulator) bool {
		blob, err := acc.(checkpointable).MarshalBinary()
		if err != nil || len(blob) == 0 {
			// This accumulator cannot be checkpointed (e.g. a map job
			// whose value type gob cannot encode); its shards re-run on
			// resume.
			return false
		}
		cp.Shards[s] = blob
		return true
	}
	if f.folded > 0 && add(0, f.prefix) && f.folded > 1 {
		cp.Folded = f.folded
	}
	for s, acc := range f.later {
		add(s, acc)
	}
	if len(cp.Shards) > 0 {
		c.cfg.Sink(cp)
	}
}

// A Resumer coordinates checkpoint/resume across the several engine
// jobs one exhibit may run back to back (per rate factor, per sweep).
// Each call to JobCheckpoint assigns the next job sequence index; since
// an exhibit launches its engine jobs in deterministic order for a given
// config, the indices of a resumed run line up with those of the
// interrupted one, and each job finds its own saved checkpoint. A stale
// or misaligned checkpoint is harmless — the per-job (Trials, Seed,
// ShardSize) validation rejects it and the job runs from scratch.
type Resumer struct {
	mu      sync.Mutex
	next    int
	family  map[int]*Checkpoint // latest checkpoint of every engine job
	period  time.Duration
	persist func(family map[int]*Checkpoint)
}

// NewResumer builds a Resumer. saved holds the checkpoints of a prior
// interrupted run keyed by engine-job sequence index (nil for a fresh
// run); period sets the snapshot cadence of every job
// (CheckpointConfig.Period). persist (nil to resume without writing new
// checkpoints) receives the whole family after each snapshot: the latest
// checkpoint of every engine job so far, saved ones included, keyed by
// sequence index, so a sink that writes it as one file always leaves a
// consistent family.
func NewResumer(saved map[int]*Checkpoint, period time.Duration, persist func(family map[int]*Checkpoint)) *Resumer {
	family := map[int]*Checkpoint{}
	maps.Copy(family, saved)
	return &Resumer{family: family, period: period, persist: persist}
}

// JobCheckpoint hands out the checkpoint configuration for the next
// engine job in sequence.
func (r *Resumer) JobCheckpoint() *CheckpointConfig {
	r.mu.Lock()
	i := r.next
	r.next++
	cp := r.family[i]
	r.mu.Unlock()
	cc := &CheckpointConfig{Resume: cp, Period: r.period}
	if r.persist != nil {
		cc.Sink = func(cp *Checkpoint) { r.record(i, cp) }
	}
	return cc
}

// record makes cp engine job i's latest checkpoint and persists the
// family.
func (r *Resumer) record(i int, cp *Checkpoint) {
	r.mu.Lock()
	r.family[i] = cp
	family := maps.Clone(r.family)
	r.mu.Unlock()
	r.persist(family)
}
