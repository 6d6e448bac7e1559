package exhibit

import "sync"

// Tracker is a concurrency-safe progress sink, installed as
// Config.Progress through its Update method, that remembers the most
// recent completion counts, so a concurrent observer (a status endpoint,
// a TUI) can poll an exhibit's progress while it runs. One exhibit may
// run several engine jobs back to back (per rate factor, per sweep); the
// snapshot always reflects the job currently executing, and CumulativeDone
// carries a monotone count across job boundaries for coarse "is it moving"
// checks.
type Tracker struct {
	mu          sync.Mutex
	done, total int
	cumulative  int
	lastDone    int
}

// Update records one progress call. The engine serialises calls per job, but a
// Tracker may be read concurrently from other goroutines, so it locks.
func (t *Tracker) Update(done, total int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// The engine opens every job with an explicit Update(0, total), so a
	// total change or done falling back (to 0, or below the previous
	// job's final count) always marks a job boundary — including a new
	// job with the same total as the last one. Only the fresh trials
	// advance the cumulative count.
	if total != t.total || done < t.lastDone {
		t.lastDone = 0
	}
	t.cumulative += done - t.lastDone
	t.lastDone = done
	t.done, t.total = done, total
}

// Snapshot returns the most recent (done, total) of the engine job the
// exhibit is currently running; (0, 0) before the first update.
func (t *Tracker) Snapshot() (done, total int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done, t.total
}

// CumulativeDone returns the total number of trials completed across all
// engine jobs the exhibit has run so far.
func (t *Tracker) CumulativeDone() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cumulative
}
