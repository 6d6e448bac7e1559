package exhibit

import "arcc/internal/mc"

// Config tunes how an exhibit runs without changing what it computes: for
// a fixed Seed the numbers are bit-identical at any Parallel setting (the
// engine's contract), and Quick/Trials trade precision for speed. Build
// one with NewConfig and functional options; the zero value requests a
// paper-scale run with seed 1 on GOMAXPROCS workers.
type Config struct {
	// Quick trades precision for speed (shorter instruction budgets,
	// fewer Monte Carlo channels).
	Quick bool
	// Seed drives all randomness; fixed default (1) when zero.
	Seed int64
	// Parallel caps the worker count of the Monte Carlo engine and the
	// per-mix simulation fan-out: 0 means GOMAXPROCS, 1 forces the serial
	// path. Results are bit-identical at any setting for a given seed.
	Parallel int
	// Trials overrides the Monte Carlo channel count of the lifetime
	// exhibits (0 keeps the profile default).
	Trials int
	// Progress, when non-nil, receives completion counts as the
	// exhibit's Monte Carlo trials or simulator runs finish: it is the
	// mc.Options.Progress of every engine job the exhibit runs. It must
	// tolerate being reused across the several engine jobs one exhibit
	// may run back to back (per rate factor, per sweep); done resets
	// between jobs.
	Progress func(done, total int)
	// Resume, when non-nil, threads shard-level checkpoint/resume through
	// every engine job the exhibit runs (see mc.Resumer). Like Parallel it
	// cannot change the numbers: a resumed run is bit-identical to an
	// uninterrupted one.
	Resume *mc.Resumer
}

// Option mutates a Config under construction.
type Option func(*Config)

// NewConfig builds a Config from functional options.
func NewConfig(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithQuick selects the reduced-volume profile.
func WithQuick(quick bool) Option { return func(c *Config) { c.Quick = quick } }

// WithSeed sets the root seed (0 keeps the fixed default of 1).
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithParallel sets the engine worker count (0 = GOMAXPROCS, 1 = serial).
func WithParallel(workers int) Option { return func(c *Config) { c.Parallel = workers } }

// WithTrials overrides the Monte Carlo channel count (0 = profile default).
func WithTrials(trials int) Option { return func(c *Config) { c.Trials = trials } }

// WithProgress installs a progress callback.
func WithProgress(p func(done, total int)) Option { return func(c *Config) { c.Progress = p } }

// SeedOrDefault returns the effective root seed: Seed, or 1 when unset.
func (c Config) SeedOrDefault() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// MCOptions returns the engine options for channel-sharded Monte Carlo
// jobs (default shard size).
func (c Config) MCOptions() mc.Options {
	return mc.Options{Parallelism: c.Parallel, Progress: c.Progress, Checkpoint: c.jobCheckpoint()}
}

// SimOptions returns the engine options for fan-outs whose trials are
// whole simulator runs: one run per shard.
func (c Config) SimOptions() mc.Options {
	return mc.Options{Parallelism: c.Parallel, ShardSize: 1, Progress: c.Progress, Checkpoint: c.jobCheckpoint()}
}

// jobCheckpoint assigns the next engine-job sequence index of the Resume
// coordinator; exhibits call MCOptions/SimOptions once per engine job in
// deterministic order, so the indices of a resumed run line up with the
// interrupted one's.
func (c Config) jobCheckpoint() *mc.CheckpointConfig {
	if c.Resume == nil {
		return nil
	}
	return c.Resume.JobCheckpoint()
}
