package exhibit

import "testing"

func TestTrackerSnapshotAndCumulative(t *testing.T) {
	var tr Tracker
	if d, total := tr.Snapshot(); d != 0 || total != 0 {
		t.Fatalf("fresh tracker snapshot %d/%d", d, total)
	}
	// Engine job 1: 100 trials in two ticks.
	tr.Update(50, 100)
	tr.Update(100, 100)
	if d, total := tr.Snapshot(); d != 100 || total != 100 {
		t.Fatalf("snapshot %d/%d, want 100/100", d, total)
	}
	if c := tr.CumulativeDone(); c != 100 {
		t.Fatalf("cumulative %d, want 100", c)
	}
	// Job 2 with the same total: done falls back, cumulative keeps rising.
	tr.Update(30, 100)
	if d, total := tr.Snapshot(); d != 30 || total != 100 {
		t.Fatalf("snapshot %d/%d, want 30/100", d, total)
	}
	if c := tr.CumulativeDone(); c != 130 {
		t.Fatalf("cumulative %d, want 130", c)
	}
	// Job 3 with a new total resets the per-job baseline even though done
	// jumped upward.
	tr.Update(640, 1000)
	if c := tr.CumulativeDone(); c != 770 {
		t.Fatalf("cumulative %d, want 770", c)
	}
}

// Two consecutive engine jobs with the same total, where the second
// completes in a single tick equal to the first job's final count, are
// indistinguishable by count heuristics alone. The engine's explicit
// Update(0, total) job-start signal is what marks the boundary; without
// it the second job would add zero to the cumulative count.
func TestTrackerCountsSameSizedBackToBackJobs(t *testing.T) {
	var tr Tracker
	// Job 1: the engine opens with (0, total), then one tick to done.
	tr.Update(0, 100)
	tr.Update(100, 100)
	// Job 2: same total, single tick equal to job 1's final done.
	tr.Update(0, 100)
	tr.Update(100, 100)
	if c := tr.CumulativeDone(); c != 200 {
		t.Fatalf("cumulative %d after two 100-trial jobs, want 200", c)
	}
	if d, total := tr.Snapshot(); d != 100 || total != 100 {
		t.Fatalf("snapshot %d/%d, want 100/100", d, total)
	}
}

// TestTrackerIsAProgress: a Tracker's Update installed as Config.Progress
// is the progress callback of the exhibit's engine jobs.
func TestTrackerIsAProgress(t *testing.T) {
	var tr Tracker
	NewConfig(WithProgress(tr.Update)).MCOptions().Progress(7, 10)
	if d, total := tr.Snapshot(); d != 7 || total != 10 {
		t.Fatalf("snapshot %d/%d", d, total)
	}
}
