package memctrl

import (
	"testing"

	"arcc/internal/power"
)

func arccConfig() Config {
	return Config{
		Channels: 2, RanksPerChannel: 2, BanksPerRank: 8,
		Timing: DDR2X8Timing(), DevicesPerAccess: 18, BurstBeats: 4,
	}
}

func baselineConfig() Config {
	return Config{
		Channels: 2, RanksPerChannel: 1, BanksPerRank: 8,
		Timing: DDR2X4Timing(), DevicesPerAccess: 36, BurstBeats: 4,
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	bad := arccConfig()
	bad.Channels = 0
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(bad, nil)
}

func TestSingleAccessLatency(t *testing.T) {
	c := New(arccConfig(), nil)
	tm := DDR2X8Timing()
	complete := c.Access(0, 0, 0, false)
	want := int64(tm.TRCD + tm.CL + tm.Burst)
	if complete != want {
		t.Fatalf("idle access completes at %d, want %d", complete, want)
	}
}

func TestBankConflictSerializes(t *testing.T) {
	c := New(arccConfig(), nil)
	tm := DDR2X8Timing()
	first := c.Access(0, 0, 0, false)
	second := c.Access(0, 0, 0, false)
	// Same bank: the second activate waits for tRC.
	wantSecond := int64(tm.TRC + tm.TRCD + tm.CL + tm.Burst)
	if second != wantSecond {
		t.Fatalf("bank-conflicted access completes at %d, want %d (first %d)", second, wantSecond, first)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	c := New(arccConfig(), nil)
	tm := DDR2X8Timing()
	first := c.Access(0, 0, 0, false)
	second := c.Access(0, 0, 1, false)
	// Different banks overlap; only the data bus serializes the bursts.
	if second != first+int64(tm.Burst) {
		t.Fatalf("bank-parallel access completes at %d, want %d", second, first+int64(tm.Burst))
	}
}

func TestChannelsAreIndependent(t *testing.T) {
	c := New(arccConfig(), nil)
	a := c.Access(0, 0, 0, false)
	b := c.Access(0, 1, 0, false)
	if a != b {
		t.Fatalf("independent channels should complete together: %d vs %d", a, b)
	}
}

func TestPairedAccessUsesBothChannels(t *testing.T) {
	c := New(arccConfig(), nil)
	done := c.AccessPaired(0, 3, false)
	// Both channels now busy at bank 3: a relaxed access to channel 0
	// bank 3 must wait for tRC.
	next := c.Access(0, 0, 3, false)
	if next <= done {
		t.Fatal("paired access did not occupy channel 0's bank")
	}
	next1 := c.Access(0, 1, 3, false)
	if next1 <= done {
		t.Fatal("paired access did not occupy channel 1's bank")
	}
}

func TestPairedPanicsOnSingleChannel(t *testing.T) {
	cfg := baselineConfig()
	cfg.Channels = 1
	c := New(cfg, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.AccessPaired(0, 0, false)
}

func TestMoreRanksMoreThroughput(t *testing.T) {
	// Issue a dense stream round-robin over all banks. Both configs have
	// two 144-bit channels; ARCC's extra rank per channel (16 vs 8 banks)
	// lifts the bank-conflict limit: 8 banks recycle in 8*burst = 16
	// cycles < tRC = 18, so the baseline stalls ~2 cycles per round while
	// ARCC stays bus-limited. This is the paper's +5.9% IPC mechanism.
	run := func(cfg Config) int64 {
		c := New(cfg, nil)
		const n = 4000
		banks := cfg.RanksPerChannel * cfg.BanksPerRank
		for i := 0; i < n; i++ {
			ch := i % cfg.Channels
			c.Access(0, ch, (i/cfg.Channels)%banks, false)
		}
		return c.LastCompletion()
	}
	arcc := run(arccConfig())
	base := run(baselineConfig())
	if arcc >= base {
		t.Fatalf("ARCC config (%d cycles) not faster than baseline (%d cycles)", arcc, base)
	}
	gain := float64(base)/float64(arcc) - 1
	if gain < 0.03 || gain > 0.30 {
		t.Fatalf("throughput gain %.1f%%, want a modest single-digit-to-low-double-digit gain", gain*100)
	}
}

func TestUpgradedTrafficHalvesEffectiveBandwidth(t *testing.T) {
	// Worst case of §7.2: every access upgraded, no spatial locality. The
	// same number of useful 64 B lines needs twice the channel work.
	relaxedDone := func() int64 {
		c := New(arccConfig(), nil)
		for i := 0; i < 2000; i++ {
			c.Access(0, i%2, (i/2)%16, false)
		}
		return c.LastCompletion()
	}()
	upgradedDone := func() int64 {
		c := New(arccConfig(), nil)
		for i := 0; i < 2000; i++ {
			c.AccessPaired(0, i%16, false)
		}
		return c.LastCompletion()
	}()
	ratio := float64(upgradedDone) / float64(relaxedDone)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("upgraded stream took %.2fx the relaxed stream, want ~2x", ratio)
	}
}

func TestPowerAccounting(t *testing.T) {
	m := power.NewMeter(power.Micron512MbX8())
	c := New(arccConfig(), m)
	c.Access(0, 0, 0, false)
	c.Access(0, 0, 1, true)
	act, rd, wr := m.Counts()
	if act != 2 || rd != 1 || wr != 1 {
		t.Fatalf("power events %d/%d/%d, want 2/1/1", act, rd, wr)
	}
	reads, writes := c.Stats()
	if reads != 1 || writes != 1 {
		t.Fatalf("stats %d/%d", reads, writes)
	}
}

func TestPairedAccessChargesBothChannels(t *testing.T) {
	m := power.NewMeter(power.Micron512MbX8())
	c := New(arccConfig(), m)
	c.AccessPaired(0, 0, false)
	act, rd, _ := m.Counts()
	if act != 2 || rd != 2 {
		t.Fatalf("paired access charged %d activates / %d reads, want 2/2", act, rd)
	}
}

func TestUtilizations(t *testing.T) {
	c := New(arccConfig(), nil)
	done := c.Access(0, 0, 0, false)
	bus := c.BusUtilization(done)
	if bus <= 0 || bus > 1 {
		t.Fatalf("bus utilization %v", bus)
	}
	bank := c.BankUtilization(done)
	if bank <= 0 || bank > 1 {
		t.Fatalf("bank utilization %v", bank)
	}
	for name, f := range map[string]func(){
		"bus zero elapsed":  func() { c.BusUtilization(0) },
		"bank zero elapsed": func() { c.BankUtilization(0) },
		"bad channel":       func() { c.Access(0, 9, 0, false) },
		"bad bank":          func() { c.Access(0, 0, 99, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPairingPoliciesDiverge(t *testing.T) {
	// Desynchronise the two channels with single-channel traffic, then
	// issue a paired access: under PairFIFO the idle channel must wait for
	// the busy one's bank before starting, so its bank stays busy longer
	// than under PairPromote.
	run := func(p Pairing) int64 {
		cfg := arccConfig()
		cfg.Pairing = p
		c := New(cfg, nil)
		c.Access(0, 0, 3, false)            // channel 0 bank 3 busy until tRC
		done := c.AccessPaired(0, 3, false) // paired access on bank 3
		return done
	}
	promote, fifo := run(PairPromote), run(PairFIFO)
	if fifo < promote {
		t.Fatalf("FIFO pairing (%d) finished before pointer promotion (%d); sync cannot help", fifo, promote)
	}
	// With an idle system both policies agree.
	idle := func(p Pairing) int64 {
		cfg := arccConfig()
		cfg.Pairing = p
		return New(cfg, nil).AccessPaired(0, 0, false)
	}
	if idle(PairPromote) != idle(PairFIFO) {
		t.Fatal("policies must agree on an idle system")
	}
}

func TestRefreshWindowDelaysAccesses(t *testing.T) {
	cfg := arccConfig()
	// DDR2-667: tREFI = 7.8 us / 3 ns = 2600 cycles, tRFC = 105 ns = 35.
	cfg.Timing.TREFI = 2600
	cfg.Timing.TRFC = 35
	c := New(cfg, nil)
	// An access issued at cycle 0 lands inside the refresh window and must
	// wait until the refresh completes.
	tm := cfg.Timing
	done := c.Access(0, 0, 0, false)
	want := int64(tm.TRFC + tm.TRCD + tm.CL + tm.Burst)
	if done != want {
		t.Fatalf("in-refresh access completes at %d, want %d", done, want)
	}
	// An access between refresh windows is undisturbed.
	c2 := New(cfg, nil)
	done2 := c2.Access(100, 0, 0, false)
	if done2 != 100+int64(tm.TRCD+tm.CL+tm.Burst) {
		t.Fatalf("out-of-refresh access delayed: %d", done2)
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	c := New(arccConfig(), nil)
	tm := arccConfig().Timing
	if done := c.Access(0, 0, 0, false); done != int64(tm.TRCD+tm.CL+tm.Burst) {
		t.Fatalf("zero-TREFI config should not model refresh (done=%d)", done)
	}
}
