package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"arcc/internal/sim"
)

// perturb flips the first hex digit of a digest.
func perturb(d string) string {
	if d[0] == '0' {
		return "1" + d[1:]
	}
	return "0" + d[1:]
}

func recorded(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		t.Fatalf("digests.json: %v", err)
	}
	return want
}

func TestEveryWorkloadHasADigest(t *testing.T) {
	want := recorded(t)
	for name := range workloads {
		d := want[name]
		if len(d) != 64 {
			t.Errorf("digests.json: %s has digest %q, want 64 hex digits", name, d)
			continue
		}
		if err := compareDigest(name, d, d); err != nil {
			t.Errorf("matching digest rejected: %v", err)
		}
		if err := compareDigest(name, perturb(d), d); err == nil {
			t.Errorf("%s: perturbed digest accepted", name)
		}
	}
}

// TestRunCatchesPerturbedDigest runs lifetime-mc at the default seed with
// the recorded digests (it must pass) and with its digest perturbed (it
// must report incorrect output and exit 1).
func TestRunCatchesPerturbedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for a few seconds")
	}
	args := []string{"--workload", "lifetime-mc", "--seed", "1", "--seconds", "4", "--out", t.TempDir()}
	if code := run(args); code != 0 {
		t.Fatalf("recorded digest: exit %d, want 0", code)
	}
	saved := digestsJSON
	defer func() { digestsJSON = saved }()
	want := recorded(t)
	want["lifetime-mc"] = perturb(want["lifetime-mc"])
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	digestsJSON = b
	if code := run(args); code != 1 {
		t.Fatalf("perturbed digest: exit %d, want 1", code)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code := run([]string{"--workload", "nope", "--out", filepath.Join(t.TempDir(), "x")}); code == 0 {
		t.Fatal("unknown workload accepted")
	}
}

// TestRecordingMatchesRunWith pins the traced run's replica of the
// simulator's event loop to sim.RunWith on the three kinds of grid config.
func TestRecordingMatchesRunWith(t *testing.T) {
	for _, c := range simGrid(7)[:4] {
		c.InstructionsPerCore = 100_000
		res := sim.Run(c)
		rec := recordSim(c)
		if rec.reads != res.MemReads || rec.write != res.MemWrites || rec.ipc != res.IPCSum {
			t.Errorf("%s %v %.3f: replica reads/writes/ipc %d/%d/%v, RunWith %d/%d/%v", c.Mix.Name, c.System,
				c.UpgradedFraction, rec.reads, rec.write, rec.ipc, res.MemReads, res.MemWrites, res.IPCSum)
		}
		if replayStreams(newStreams(c), &rec) {
			t.Errorf("%s: stream replay diverged from the recording", c.Mix.Name)
		}
	}
}

// TestFaultScheduleStaysCorrectable checks the functional workload's
// invariant: per rank, at most one faulty device on the two-channel
// controller and at most one per channel pair on the four-channel one, so
// no DUE is ever expected and every read must return the written data.
func TestFaultScheduleStaysCorrectable(t *testing.T) {
	seen := map[[3]int]bool{}
	for _, s := range fnSchedule {
		group := s.chBase / 2
		key := [3]int{s.ctl, s.rank, group}
		if seen[key] {
			t.Errorf("controller %d rank %d channel group %d gets two faults", s.ctl, s.rank, group)
		}
		seen[key] = true
		if s.ctl == 0 && (s.chBase != 0 || s.chSpan != 2) {
			t.Errorf("two-channel fault outside channels 0-1: %+v", s)
		}
	}
}

// TestOpCostsCancelHostSpeed checks the normalisation: ops that take twice
// the CPU time while the calibration slices around them also take twice as
// long cost the same.
func TestOpCostsCancelHostSpeed(t *testing.T) {
	var samples []sample
	for k := 0; k < 60; k++ {
		slow := time.Duration(1 + k/30) // the host halves its speed at op 30
		samples = append(samples, sample{cpu: slow * 3 * time.Millisecond, cal: slow * calRef / 2})
	}
	for k, c := range opCosts(samples) {
		if k < 30-calWindow || k >= 30+calWindow {
			if c != 6*time.Millisecond {
				t.Errorf("op %d: cost %v, want 6ms", k, c)
			}
		}
	}
}
