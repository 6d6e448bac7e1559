package lotecc

import (
	"bytes"
	"math/rand"
	"testing"
)

func randLine(r *rand.Rand) []byte {
	b := make([]byte, LineBytes)
	r.Read(b)
	return b
}

func TestGeometry(t *testing.T) {
	line := make([]byte, LineBytes)
	for _, tc := range []struct {
		cfg         Config
		dataDevices int
	}{{NineDevice, 8}, {EighteenDevice, 16}} {
		l := New(tc.cfg).Encode(line)
		if len(l.Shares) != tc.dataDevices || len(l.Checksums) != tc.dataDevices {
			t.Fatalf("cfg %d: %d shares, %d checksums, want %d data devices", tc.cfg, len(l.Shares), len(l.Checksums), tc.dataDevices)
		}
		for _, sh := range l.Shares {
			if len(sh) != LineBytes/tc.dataDevices {
				t.Fatalf("cfg %d: share of %d bytes, want %d", tc.cfg, len(sh), LineBytes/tc.dataDevices)
			}
		}
		if len(l.Parity) != LineBytes/tc.dataDevices {
			t.Fatalf("cfg %d: parity share of %d bytes, want %d", tc.cfg, len(l.Parity), LineBytes/tc.dataDevices)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config(9))
}

func TestRoundTripClean(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{NineDevice, EighteenDevice} {
		s := New(cfg)
		for i := 0; i < 100; i++ {
			want := randLine(r)
			got, bad, err := s.Decode(s.Encode(want))
			if err != nil || bad != -1 {
				t.Fatalf("cfg %d: clean decode err=%v bad=%d", cfg, err, bad)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cfg %d: round trip mismatch", cfg)
			}
		}
	}
}

func TestSingleDeviceFailureRecovered(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, cfg := range []Config{NineDevice, EighteenDevice} {
		s := New(cfg)
		for dev := 0; dev < s.dataDevices; dev++ {
			want := randLine(r)
			l := s.Encode(want)
			// Stuck-at-1 device output: data wrong, checksum unchanged in
			// storage (it is stored in the same device... in our model the
			// stored checksum value read back is ALSO corrupted for a
			// whole-device failure; all-ones data with all-ones checksum
			// still mismatches because checksum(0xFF..) != 0xFFFF).
			for i := range l.Shares[dev] {
				l.Shares[dev][i] = 0xFF
			}
			l.Checksums[dev] = 0xFFFF
			got, bad, err := s.Decode(l)
			if err != nil {
				t.Fatalf("cfg %d dev %d: %v", cfg, dev, err)
			}
			if bad != dev {
				t.Fatalf("cfg %d: localized device %d, want %d", cfg, bad, dev)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cfg %d dev %d: reconstruction wrong", cfg, dev)
			}
		}
	}
}

func TestDoubleDeviceFailureDetected(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := New(NineDevice)
	want := randLine(r)
	l := s.Encode(want)
	for _, dev := range []int{1, 5} {
		for i := range l.Shares[dev] {
			l.Shares[dev][i] ^= 0xA5
		}
	}
	if _, _, err := s.Decode(l); err != ErrDetected {
		t.Fatalf("double failure err = %v, want ErrDetected", err)
	}
}

func TestParityDeviceFailureAlone(t *testing.T) {
	// Parity device corrupt, data intact: data decodes fine (parity is
	// only consulted for reconstruction).
	r := rand.New(rand.NewSource(4))
	s := New(NineDevice)
	want := randLine(r)
	l := s.Encode(want)
	for i := range l.Parity {
		l.Parity[i] ^= 0xFF
	}
	got, bad, err := s.Decode(l)
	if err != nil || bad != -1 || !bytes.Equal(got, want) {
		t.Fatalf("parity-only corruption: err=%v bad=%d", err, bad)
	}
}

func TestDataPlusParityFailureDetected(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := New(NineDevice)
	l := s.Encode(randLine(r))
	l.Shares[2][0] ^= 0x01
	for i := range l.Parity {
		l.Parity[i] ^= 0x55
	}
	if _, _, err := s.Decode(l); err != ErrDetected {
		t.Fatalf("data+parity failure err = %v, want ErrDetected", err)
	}
}

func TestChecksumBlindSpot(t *testing.T) {
	// The documented weakness (Ch. 2): a device returning consistent but
	// WRONG (data, checksum) pairs — e.g. a faulty row decoder serving
	// another row — sails through Tier 1 undetected and silently corrupts
	// data. Commercial symbol codes catch exactly this case.
	r := rand.New(rand.NewSource(6))
	s := New(NineDevice)
	want := randLine(r)
	l := s.Encode(want)
	// Device 3 returns some other row's share with that row's checksum.
	other := make([]byte, len(l.Shares[3]))
	r.Read(other)
	l.Shares[3] = other
	l.Checksums[3] = checksum(other)
	got, bad, err := s.Decode(l)
	if err != nil {
		t.Fatalf("blind-spot fault was detected; the checksum should miss it: %v", err)
	}
	if bad != -1 {
		t.Fatalf("blind-spot fault was localized to %d", bad)
	}
	if bytes.Equal(got, want) {
		t.Fatal("test bug: corrupted line decoded to original data")
	}
	// This IS the silent data corruption.
}

func TestSilentlyWrongParityCorruptsReconstruction(t *testing.T) {
	// A localized data fault plus a parity device that lies consistently
	// (wrong parity whose own checksum matches) produces a silently wrong
	// reconstruction: LOT-ECC's residual SDC window. The decoder cannot
	// catch this — the bad device's stored checksum is untrusted — so the
	// test pins the *limitation*, which the paper's Ch. 2 discussion of
	// checksum-based detection is about.
	r := rand.New(rand.NewSource(7))
	s := New(NineDevice)
	want := randLine(r)
	l := s.Encode(want)
	l.Shares[0][0] ^= 0x01                // bad device 0 (checksum now mismatches)
	l.Parity[1] ^= 0x80                   // silently wrong parity...
	l.ParityChecksum = checksum(l.Parity) // ...lying consistently
	got, bad, err := s.Decode(l)
	if err != nil {
		t.Fatalf("consistently-lying parity was detected; it should not be: %v", err)
	}
	if bad != 0 {
		t.Fatalf("localization picked device %d, want 0", bad)
	}
	if bytes.Equal(got, want) {
		t.Fatal("reconstruction accidentally correct; test expects silent corruption")
	}
}

func TestAccessCosts(t *testing.T) {
	nine, eighteen := New(NineDevice).Cost(), New(EighteenDevice).Cost()
	if nine.DeviceAccessesPerRead != 9 || nine.ExtraReadPerRead || nine.ExtraWriteFraction != 0.8 {
		t.Fatalf("nine-device cost %+v", nine)
	}
	if eighteen.DeviceAccessesPerRead != 18 || !eighteen.ExtraReadPerRead || eighteen.ExtraWriteFraction != 1.0 {
		t.Fatalf("18-device cost %+v", eighteen)
	}
	if WorstCaseUpgradedPowerFactor() != 4.0 {
		t.Fatal("worst-case factor must be 4 (2x devices x 2x accesses)")
	}
}

func TestChecksumProperties(t *testing.T) {
	if checksum([]byte{0, 0, 0, 0}) != 0xFFFF {
		t.Fatal("checksum of zeros must be all ones (one's complement)")
	}
	a := []byte{1, 2, 3, 4}
	b := []byte{1, 2, 3, 5}
	if checksum(a) == checksum(b) {
		t.Fatal("single-byte change not caught")
	}
	// Odd-length input is handled.
	_ = checksum([]byte{9, 9, 9})
}

func TestDecodePanicsOnShapeMismatch(t *testing.T) {
	s := New(NineDevice)
	l := New(EighteenDevice).Encode(make([]byte, LineBytes))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Decode(l)
}

func TestStorageOverheadExceedsCommercial(t *testing.T) {
	// LOT-ECC's tradeoff: rank size drops to 9 devices but storage
	// overhead rises well above commercial chipkill's 12.5%.
	for _, cfg := range []Config{NineDevice, EighteenDevice} {
		got := New(cfg).StorageOverhead()
		if got <= 0.125 {
			t.Errorf("config %d: overhead %v should exceed 12.5%%", cfg, got)
		}
		if got > 0.35 {
			t.Errorf("config %d: overhead %v implausibly high", cfg, got)
		}
	}
	// The published 9-device figure is 26.5%; the model should land nearby.
	if got := New(NineDevice).StorageOverhead(); got < 0.22 || got > 0.30 {
		t.Errorf("9-device overhead %v, want near the paper's 26.5%%", got)
	}
}
