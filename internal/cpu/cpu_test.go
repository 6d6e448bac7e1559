package cpu

import (
	"slices"
	"testing"
)

// ipc returns committed instructions per cycle so far.
func ipc(c *Core) float64 {
	if c.Now() == 0 {
		return 0
	}
	return float64(c.Instructions()) / float64(c.Now())
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{WidthIPC: 0, MLP: 4, HitLatency: 10},
		{WidthIPC: 2, MLP: 0, HitLatency: 10},
		{WidthIPC: 2, MLP: 4, HitLatency: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestComputeOnlyIPCApproachesPeak(t *testing.T) {
	c := New(DefaultConfig())
	for i := 0; i < 1000; i++ {
		c.AdvanceCompute(100)
	}
	if got := ipc(c); got < 1.9 || got > 2.0 {
		t.Fatalf("compute-only IPC = %v, want ~2 (peak width)", got)
	}
}

func TestHitsSlowButDoNotStall(t *testing.T) {
	withHits := New(DefaultConfig())
	without := New(DefaultConfig())
	for i := 0; i < 1000; i++ {
		withHits.AdvanceCompute(50)
		withHits.NoteHit()
		without.AdvanceCompute(50)
	}
	if ipc(withHits) >= ipc(without) {
		t.Fatal("hit latency should cost some IPC")
	}
	if ipc(withHits) < ipc(without)/2 {
		t.Fatal("hits cost too much; they are not misses")
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// Same miss latency; a core with MLP=4 must finish much faster than a
	// blocking core (MLP=1) on a back-to-back miss stream.
	run := func(mlp int) int64 {
		cfg := DefaultConfig()
		cfg.MLP = mlp
		c := New(cfg)
		const lat = 300
		for i := 0; i < 1000; i++ {
			c.AdvanceCompute(10)
			c.IssueMissTo(&fixedIssuer{lat: lat})
		}
		c.Drain()
		return c.Now()
	}
	blocking, overlapped := run(1), run(4)
	speedup := float64(blocking) / float64(overlapped)
	if speedup < 2.5 {
		t.Fatalf("MLP=4 speedup over blocking = %.2fx, want > 2.5x", speedup)
	}
}

func TestWindowFullStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLP = 2
	c := New(cfg)
	issue := &fixedIssuer{lat: 1000}
	c.IssueMissTo(issue)
	c.IssueMissTo(issue)
	if len(c.outstanding) != 2 {
		t.Fatalf("outstanding = %d, want 2", len(c.outstanding))
	}
	before := c.Now()
	c.IssueMissTo(issue) // must stall until the first completes
	if c.Now() < before+900 {
		t.Fatalf("third miss did not stall the full window: time went %d -> %d", before, c.Now())
	}
}

func TestRetireFreesWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLP = 2
	c := New(cfg)
	c.IssueMissTo(&fixedIssuer{lat: 100})
	c.AdvanceCompute(1000) // plenty of time for the miss to retire
	if len(c.outstanding) != 0 {
		t.Fatalf("outstanding = %d after retirement window", len(c.outstanding))
	}
}

func TestDrain(t *testing.T) {
	c := New(DefaultConfig())
	c.IssueMissTo(&fixedIssuer{lat: 500})
	c.Drain()
	if len(c.outstanding) != 0 {
		t.Fatal("Drain left misses outstanding")
	}
	if c.Now() < 500 {
		t.Fatalf("Drain did not advance time to completion: %d", c.Now())
	}
}

func TestCompletionBeforeNowClamped(t *testing.T) {
	c := New(DefaultConfig())
	c.AdvanceCompute(10000)
	c.IssueMissTo(&fixedIssuer{lat: -1_000_000}) // stale completion
	c.Drain()
	if c.Now() < 5000 {
		t.Fatal("time went backwards")
	}
}

func TestNegativeGapPanics(t *testing.T) {
	c := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.AdvanceCompute(-1)
}

func TestMemoryLatencySensitivity(t *testing.T) {
	// Doubling miss latency must cost IPC on a miss-heavy stream.
	run := func(lat int64) float64 {
		c := New(DefaultConfig())
		for i := 0; i < 2000; i++ {
			c.AdvanceCompute(20)
			c.IssueMissTo(&fixedIssuer{lat: lat})
		}
		c.Drain()
		return ipc(c)
	}
	fast, slow := run(150), run(300)
	if slow >= fast {
		t.Fatalf("IPC not sensitive to memory latency: %v vs %v", fast, slow)
	}
}

// fixedIssuer is a test Issuer: completion = now + lat. It records the
// cycle it was called at.
type fixedIssuer struct{ lat, now int64 }

func (f *fixedIssuer) IssueAt(now int64) int64 {
	f.now = now
	return now + f.lat
}

// TestIssueMissToMatchesSortedInsert pins the in-place window insert to a
// binary-search insert: after each miss the window must equal the previous
// window with every completion at or before the issue cycle retired and the
// (clamped) new completion inserted in sorted position. The latencies
// include duplicates, zero and stale (negative) values, and a full window.
func TestIssueMissToMatchesSortedInsert(t *testing.T) {
	c := New(DefaultConfig())
	iss := &fixedIssuer{}
	lat := []int64{200, 40, 900, 1, 0, 350, 350, 77, 600, 5, -50, 350}
	for i := 0; i < 500; i++ {
		c.AdvanceCompute(i % 7)
		want := slices.Clone(c.outstanding)
		iss.lat = lat[i%len(lat)]
		c.IssueMissTo(iss)
		want = slices.DeleteFunc(want, func(done int64) bool { return done <= iss.now })
		complete := max(iss.now+iss.lat, iss.now)
		at, _ := slices.BinarySearch(want, complete)
		want = slices.Insert(want, at, complete)
		if !slices.Equal(c.outstanding, want) {
			t.Fatalf("miss %d: window %v, want %v", i, c.outstanding, want)
		}
	}
}

// TestIssueMissToAllocationFree pins the miss-issue path to zero heap
// allocations, including the MLP-full stall path and retire compaction.
func TestIssueMissToAllocationFree(t *testing.T) {
	c := New(DefaultConfig())
	iss := &fixedIssuer{lat: 300}
	step := func() {
		c.AdvanceCompute(3)
		c.IssueMissTo(iss)
	}
	step() // warm up
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("IssueMissTo: %v allocs/op, want 0", allocs)
	}
}

// TestReset pins that a reset core behaves like a fresh one.
func TestReset(t *testing.T) {
	c := New(DefaultConfig())
	iss := &fixedIssuer{lat: 100}
	for i := 0; i < 10; i++ {
		c.AdvanceCompute(5)
		c.IssueMissTo(iss)
	}
	c.Reset()
	if c.Now() != 0 || c.Instructions() != 0 || len(c.outstanding) != 0 {
		t.Fatalf("Reset left state: now %d, instr %d, misses %d", c.Now(), c.Instructions(), len(c.outstanding))
	}
	fresh := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		c.AdvanceCompute(5)
		fresh.AdvanceCompute(5)
		c.IssueMissTo(iss)
		fresh.IssueMissTo(iss)
		if c.Now() != fresh.Now() {
			t.Fatalf("step %d: reset core diverged from fresh", i)
		}
	}
}
