package power

import "fmt"

// Meter accumulates the operation energy of a memory channel and converts
// it, together with background power, into average power over a simulated
// interval. The memory controller records one Activate per row activation
// and one Read/Write burst per column access, each with the number of
// devices involved — 18 for a relaxed ARCC access, 36 for a baseline or
// upgraded access.
type Meter struct {
	params DeviceParams

	// actEnergy caches params.ActivateEnergy(); burstBeats/readEnergy/
	// writeEnergy memoise the per-burst energies for the last beat count
	// seen (controllers use one fixed burst length, so this is a plain
	// cache hit on every record). Recording an event is then one multiply
	// and one add — the meter sits on the simulator's per-access path.
	actEnergy   float64
	burstBeats  int
	readEnergy  float64
	writeEnergy float64

	activates    int64
	readBursts   int64
	writeBursts  int64
	opEnergyNJ   float64
	deviceBursts int64 // devices*bursts, for reporting
}

// NewMeter creates a Meter for devices with the given parameters.
func NewMeter(params DeviceParams) *Meter {
	return &Meter{params: params, actEnergy: params.ActivateEnergy(), burstBeats: -1}
}

// RecordActivate charges one activate+precharge pair on each of devices.
func (m *Meter) RecordActivate(devices int) {
	m.checkDevices(devices)
	m.activates++
	m.opEnergyNJ += float64(devices) * m.actEnergy
}

// RecordRead charges a read burst of beats beats on each of devices.
func (m *Meter) RecordRead(devices, beats int) {
	m.checkDevices(devices)
	if beats != m.burstBeats {
		m.memoBurst(beats)
	}
	m.readBursts++
	m.deviceBursts += int64(devices)
	m.opEnergyNJ += float64(devices) * m.readEnergy
}

// RecordWrite charges a write burst of beats beats on each of devices.
func (m *Meter) RecordWrite(devices, beats int) {
	m.checkDevices(devices)
	if beats != m.burstBeats {
		m.memoBurst(beats)
	}
	m.writeBursts++
	m.deviceBursts += int64(devices)
	m.opEnergyNJ += float64(devices) * m.writeEnergy
}

func (m *Meter) memoBurst(beats int) {
	m.burstBeats = beats
	m.readEnergy = m.params.ReadBurstEnergy(beats)
	m.writeEnergy = m.params.WriteBurstEnergy(beats)
}

func (m *Meter) checkDevices(devices int) {
	if devices <= 0 {
		panic(fmt.Sprintf("power: non-positive device count %d", devices))
	}
}

// OperationEnergyNJ returns the accumulated operation energy in nanojoules.
func (m *Meter) OperationEnergyNJ() float64 { return m.opEnergyNJ }

// Counts returns the recorded event counts (activates, reads, writes).
func (m *Meter) Counts() (activates, reads, writes int64) {
	return m.activates, m.readBursts, m.writeBursts
}

// AveragePowerMW converts accumulated energy plus background power into the
// average channel power in milliwatts over an interval of elapsedNS
// nanoseconds, for a memory system with totalDevices powered devices whose
// banks are active activeFraction of the time and which spend
// powerDownFraction of their idle time in CKE power-down (memory controllers
// with closed-page policies power idle ranks down aggressively; DRAMsim
// models the same mechanism).
func (m *Meter) AveragePowerMW(elapsedNS float64, totalDevices int, activeFraction, powerDownFraction float64) float64 {
	if elapsedNS <= 0 {
		panic("power: non-positive interval")
	}
	if totalDevices <= 0 {
		panic("power: non-positive device count")
	}
	opPower := m.opEnergyNJ / elapsedNS * 1e3 // nJ/ns = W; *1e3 -> mW
	bg := float64(totalDevices) * m.params.BackgroundPower(activeFraction, powerDownFraction)
	return opPower + bg
}

// Reset clears accumulated energy and counts.
func (m *Meter) Reset() {
	m.activates, m.readBursts, m.writeBursts = 0, 0, 0
	m.opEnergyNJ, m.deviceBursts = 0, 0
}
