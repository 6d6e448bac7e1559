package mc

import (
	"encoding"
	"maps"
	"sync"
	"time"
)

// A Checkpoint is the durable state of a partially executed job: the
// serialized accumulator of every completed shard, keyed by shard index,
// plus the job shape that makes the snapshot meaningful. Because a
// shard's RNG stream is derived from (Seed, shard index) alone and the
// engine always merges accumulators in shard-index order, a run resumed
// from a checkpoint is bit-identical to an uninterrupted run of the same
// job: the restored shards contribute exactly the accumulator states
// they would have produced live, and the skipped work never touches the
// remaining shards' streams.
//
// Checkpoints serialize naturally as JSON (shard blobs become base64),
// which is how the sweep service persists them.
type Checkpoint struct {
	Trials    int   `json:"trials"`
	Seed      int64 `json:"seed"`
	ShardSize int   `json:"shard_size"`
	// Shards maps a completed shard index to its accumulator's
	// MarshalBinary bytes.
	Shards map[int][]byte `json:"shards"`
}

// Done returns the number of trials the checkpoint covers — the trials
// of every completed shard it holds.
func (c *Checkpoint) Done() int {
	size := c.ShardSize
	if size <= 0 {
		size = DefaultShardSize
	}
	done := 0
	for s := range c.Shards {
		done += shardTrials(s, size, c.Trials)
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
// shard whose accumulator fails to marshal is simply left out of them),
// so checkpointing degrades to a plain run, never an error.
type CheckpointConfig struct {
	// Resume holds the completed-shard snapshots of a prior interrupted
	// run of the same job. Shards present in Resume are not re-executed:
	// their accumulators are deserialized and merged in shard order as if
	// they had just run. A checkpoint whose (Trials, Seed, ShardSize)
	// does not match the job — or an individual shard blob that fails to
	// deserialize — is ignored and the corresponding work re-runs.
	Resume *Checkpoint
	// EveryShards emits a snapshot to Sink every EveryShards completed
	// shards. When both EveryShards and Period are zero, every completed
	// shard snapshots — the right default for jobs whose shards are whole
	// simulator runs (ShardSize 1).
	EveryShards int
	// Period emits a snapshot when at least Period has elapsed since the
	// previous one (checked as shards complete; an idle job does not
	// snapshot on a timer).
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
// trials it holds (mapAcc). restore hands it the trial range [lo, hi) of
// the shard it is restoring and skips a blob that names other trials, so
// that shard re-runs.
type trialChecker interface {
	checkTrials(lo, hi int) error
}

// checkpointer tracks completed shards during a run and turns them into
// snapshots at the configured cadence. Accumulators are kept by
// reference until a snapshot serializes them (a completed shard's
// accumulator is immutable until the final merge), so a coarse cadence
// pays marshaling cost per snapshot, not per shard.
type checkpointer struct {
	cfg    *CheckpointConfig
	job    Job
	trials int
	seed   int64
	size   int

	mu        sync.Mutex
	pending   map[int]Accumulator // completed, not yet serialized
	blobs     map[int][]byte      // serialized completed shards
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
	return &checkpointer{
		cfg:      cfg,
		job:      job,
		trials:   job.Trials,
		seed:     job.Seed,
		size:     size,
		pending:  map[int]Accumulator{},
		blobs:    map[int][]byte{},
		lastSnap: time.Now(),
	}
}

// restore deserializes the resumable shards of cfg.Resume into accs and
// returns how many trials they cover. Invalid shards are skipped — they
// re-run.
func (c *checkpointer) restore(accs []Accumulator) (resumedTrials int) {
	r := c.cfg.Resume
	if !r.matches(c.trials, c.seed, c.size) {
		return 0
	}
	for s, blob := range r.Shards {
		if s < 0 || s >= len(accs) || len(blob) == 0 {
			continue
		}
		acc := c.job.NewAcc()
		if err := acc.(checkpointable).UnmarshalBinary(blob); err != nil {
			continue
		}
		lo := s * c.size
		if tc, ok := acc.(trialChecker); ok && tc.checkTrials(lo, lo+shardTrials(s, c.size, c.trials)) != nil {
			continue
		}
		accs[s] = acc
		c.blobs[s] = blob
		resumedTrials += shardTrials(s, c.size, c.trials)
	}
	return resumedTrials
}

// completed records a freshly finished shard and snapshots when the
// cadence says so.
func (c *checkpointer) completed(s int, acc Accumulator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending[s] = acc
	c.sinceSnap++
	every := c.cfg.EveryShards
	if every <= 0 && c.cfg.Period <= 0 {
		every = 1
	}
	if (every > 0 && c.sinceSnap >= every) ||
		(c.cfg.Period > 0 && time.Since(c.lastSnap) >= c.cfg.Period) {
		c.snapshotLocked()
	}
}

// flush emits a final snapshot covering every completed shard; the
// engine calls it when a run is cancelled so nothing done is lost.
func (c *checkpointer) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sinceSnap > 0 {
		c.snapshotLocked()
	}
}

func (c *checkpointer) snapshotLocked() {
	for s, acc := range c.pending {
		delete(c.pending, s)
		blob, err := acc.(checkpointable).MarshalBinary()
		if err != nil || len(blob) == 0 {
			// This shard cannot be checkpointed (e.g. a map job whose
			// value type gob cannot encode); it will re-run on resume.
			continue
		}
		c.blobs[s] = blob
	}
	c.sinceSnap = 0
	c.lastSnap = time.Now()
	if c.cfg.Sink == nil || len(c.blobs) == 0 {
		return
	}
	shards := make(map[int][]byte, len(c.blobs))
	for s, b := range c.blobs {
		shards[s] = b
	}
	c.cfg.Sink(&Checkpoint{Trials: c.trials, Seed: c.seed, ShardSize: c.size, Shards: shards})
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
	every   int
	period  time.Duration
	persist func(family map[int]*Checkpoint)
}

// NewResumer builds a Resumer. saved holds the checkpoints of a prior
// interrupted run keyed by engine-job sequence index (nil for a fresh
// run); everyShards/period set the snapshot cadence of every job.
// persist (nil to resume without writing new checkpoints) receives the
// whole family after each snapshot: the latest checkpoint of every
// engine job so far, saved ones included, keyed by sequence index, so a
// sink that writes it as one file always leaves a consistent family.
func NewResumer(saved map[int]*Checkpoint, everyShards int, period time.Duration,
	persist func(family map[int]*Checkpoint)) *Resumer {
	family := map[int]*Checkpoint{}
	maps.Copy(family, saved)
	return &Resumer{family: family, every: everyShards, period: period, persist: persist}
}

// JobCheckpoint hands out the checkpoint configuration for the next
// engine job in sequence.
func (r *Resumer) JobCheckpoint() *CheckpointConfig {
	r.mu.Lock()
	i := r.next
	r.next++
	cp := r.family[i]
	r.mu.Unlock()
	cc := &CheckpointConfig{Resume: cp, EveryShards: r.every, Period: r.period}
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
