package power

import (
	"math"
	"testing"
)

func TestDeviceParamsPositiveEnergies(t *testing.T) {
	for _, p := range []DeviceParams{Micron512MbX4(), Micron512MbX8()} {
		if p.ActivateEnergy() <= 0 {
			t.Errorf("%s: ActivateEnergy = %v, want > 0", p.Name, p.ActivateEnergy())
		}
		if p.ReadBurstEnergy(4) <= 0 || p.WriteBurstEnergy(4) <= 0 {
			t.Errorf("%s: burst energies must be positive", p.Name)
		}
		if p.WriteBurstEnergy(4) <= p.ReadBurstEnergy(4)*0.5 {
			t.Errorf("%s: write energy implausibly small vs read", p.Name)
		}
	}
}

func TestBurstEnergyScalesWithBeats(t *testing.T) {
	p := Micron512MbX8()
	e4, e8 := p.ReadBurstEnergy(4), p.ReadBurstEnergy(8)
	if math.Abs(e8-2*e4) > 1e-9 {
		t.Fatalf("ReadBurstEnergy(8) = %v, want 2 * ReadBurstEnergy(4) = %v", e8, 2*e4)
	}
}

func TestBackgroundPowerMonotonicInActiveFraction(t *testing.T) {
	p := Micron512MbX8()
	prev := -1.0
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		bg := p.BackgroundPower(f, 0)
		if bg <= prev {
			t.Fatalf("background power not increasing: f=%v -> %v (prev %v)", f, bg, prev)
		}
		prev = bg
	}
}

func TestBackgroundPowerPowerDownSaves(t *testing.T) {
	p := Micron512MbX8()
	if p.BackgroundPower(0, 1) >= p.BackgroundPower(0, 0) {
		t.Fatal("power-down must reduce idle power")
	}
}

func TestBackgroundPowerPanicsOutOfRange(t *testing.T) {
	p := Micron512MbX8()
	for _, args := range [][2]float64{{-0.1, 0}, {1.1, 0}, {0, -0.1}, {0, 1.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BackgroundPower(%v, %v) did not panic", args[0], args[1])
				}
			}()
			p.BackgroundPower(args[0], args[1])
		}()
	}
}

func TestMeterAccumulation(t *testing.T) {
	m := NewMeter(Micron512MbX8())
	m.RecordActivate(18)
	m.RecordRead(18, 4)
	m.RecordWrite(18, 4)
	a, r, w := m.Counts()
	if a != 1 || r != 1 || w != 1 {
		t.Fatalf("counts = %d/%d/%d, want 1/1/1", a, r, w)
	}
	p := m.params
	want := 18 * (p.ActivateEnergy() + p.ReadBurstEnergy(4) + p.WriteBurstEnergy(4))
	if math.Abs(m.OperationEnergyNJ()-want) > 1e-9 {
		t.Fatalf("energy = %v, want %v", m.OperationEnergyNJ(), want)
	}
	m.Reset()
	if m.OperationEnergyNJ() != 0 {
		t.Fatal("Reset did not clear energy")
	}
}

func TestHalfDevicesHalvesOperationEnergy(t *testing.T) {
	// The core ARCC power mechanism: the same access stream against 18
	// devices must cost exactly half the operation energy of 36 devices.
	p := Micron512MbX8()
	relaxed, baseline := NewMeter(p), NewMeter(p)
	for i := 0; i < 1000; i++ {
		relaxed.RecordActivate(18)
		relaxed.RecordRead(18, 4)
		baseline.RecordActivate(36)
		baseline.RecordRead(36, 4)
	}
	ratio := relaxed.OperationEnergyNJ() / baseline.OperationEnergyNJ()
	if math.Abs(ratio-0.5) > 1e-12 {
		t.Fatalf("operation energy ratio = %v, want 0.5", ratio)
	}
}

func TestAveragePowerIncludesBackground(t *testing.T) {
	m := NewMeter(Micron512MbX8())
	// No operations at all: average power must equal pure background.
	got := m.AveragePowerMW(1e9, 72, 0, 0)
	want := 72 * m.params.BackgroundPower(0, 0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("idle power = %v, want background %v", got, want)
	}
	// Adding operations strictly increases power.
	m.RecordActivate(36)
	m.RecordRead(36, 4)
	if m.AveragePowerMW(1e9, 72, 0, 0) <= want {
		t.Fatal("operations did not increase average power")
	}
}

func TestRelaxedVsBaselinePowerGapIsSubstantial(t *testing.T) {
	// End-to-end sanity for the Fig 7.1 mechanism: with a memory-intensive
	// access stream (one line access every ~60 ns, idle devices powered
	// down), the 18-device configuration should land roughly 25-50% below
	// the 36-device configuration in total power.
	const accesses = 200000
	const elapsedNS = accesses * 60.0
	relaxed := NewMeter(Micron512MbX8())
	baseline := NewMeter(Micron512MbX4())
	for i := 0; i < accesses; i++ {
		relaxed.RecordActivate(18)
		relaxed.RecordRead(18, 4)
		baseline.RecordActivate(36)
		baseline.RecordRead(36, 8) // x4 devices burst 8 beats to supply 4 symbols per codeword position
	}
	pr := relaxed.AveragePowerMW(elapsedNS, 72, 0.3, 0.9)
	pb := baseline.AveragePowerMW(elapsedNS, 72, 0.3, 0.9)
	reduction := 1 - pr/pb
	if reduction < 0.25 || reduction > 0.50 {
		t.Fatalf("power reduction = %.1f%%, want within [25%%, 50%%] (relaxed %v mW vs baseline %v mW)",
			reduction*100, pr, pb)
	}
}

func TestMeterPanics(t *testing.T) {
	m := NewMeter(Micron512MbX8())
	for name, f := range map[string]func(){
		"zero devices":     func() { m.RecordRead(0, 4) },
		"negative devices": func() { m.RecordActivate(-1) },
		"zero interval":    func() { m.AveragePowerMW(0, 72, 0, 0) },
		"zero total dev":   func() { m.AveragePowerMW(1, 0, 0, 0) },
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
