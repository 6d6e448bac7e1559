// Package power implements the DDR2 memory power model used by the
// experiments: the Micron system-power-calculator equations (the same
// methodology DRAMsim uses), driven by datasheet IDD currents.
//
// The model splits device power into background (standby) power, which every
// powered device pays whether or not it is accessed, and operation power
// (activate/precharge plus read/write burst), which scales with the number
// of devices accessed per request. That split is the mechanism behind
// ARCC's headline result: a relaxed access touches 18 devices instead of 36,
// halving operation energy per access while background power stays fixed,
// which nets out to the ~36% average power reduction of Fig. 7.1.
package power

// DeviceParams holds the datasheet parameters of one DRAM device. Currents
// are in milliamps, voltage in volts, times in nanoseconds. Values follow
// the Micron 512 Mb DDR2-667 datasheet the paper cites [13].
type DeviceParams struct {
	Name string
	// IDD values per the DDR2 datasheet.
	IDD0  float64 // one-bank activate-precharge current
	IDD2P float64 // precharge power-down standby
	IDD2N float64 // precharge standby
	IDD3N float64 // active standby
	IDD3P float64 // active power-down standby
	IDD4R float64 // burst read current
	IDD4W float64 // burst write current
	IDD5  float64 // burst refresh current
	VDD   float64 // supply voltage
	// Timing.
	TCK  float64 // clock period, ns (DDR2-667: 3.0 ns at 333 MHz)
	TRC  float64 // activate-to-activate, ns
	TRAS float64 // activate-to-precharge, ns
	TRFC float64 // refresh cycle time, ns
	TREF float64 // average refresh interval, ns (64 ms / 8192 rows)
}

// Micron512MbX4 is a DDR2-667 512 Mb x4 device (baseline config, Table 7.1).
func Micron512MbX4() DeviceParams {
	return DeviceParams{
		Name: "MT47H128M4-3 (512Mb x4 DDR2-667)",
		IDD0: 90, IDD2P: 7, IDD2N: 40, IDD3N: 55, IDD3P: 25,
		IDD4R: 115, IDD4W: 125, IDD5: 230,
		VDD: 1.8,
		TCK: 3.0, TRC: 55, TRAS: 40, TRFC: 105, TREF: 7812.5,
	}
}

// Micron512MbX8 is a DDR2-667 512 Mb x8 device (ARCC config, Table 7.1).
// x8 devices draw slightly more burst current than x4 parts.
func Micron512MbX8() DeviceParams {
	return DeviceParams{
		Name: "MT47H64M8-3 (512Mb x8 DDR2-667)",
		IDD0: 90, IDD2P: 7, IDD2N: 40, IDD3N: 55, IDD3P: 25,
		IDD4R: 125, IDD4W: 135, IDD5: 230,
		VDD: 1.8,
		TCK: 3.0, TRC: 55, TRAS: 40, TRFC: 105, TREF: 7812.5,
	}
}

// ActivateEnergy returns the energy in nanojoules of one activate+precharge
// pair on one device: E = VDD * (IDD0 - IDD3N*tRAS/tRC - IDD2N*(tRC-tRAS)/tRC) * tRC,
// the Micron power-calculator formulation of ACT/PRE power net of standby.
func (p DeviceParams) ActivateEnergy() float64 {
	net := p.IDD0 - (p.IDD3N*p.TRAS+p.IDD2N*(p.TRC-p.TRAS))/p.TRC
	return p.VDD * net * p.TRC * 1e-3 // mA * ns * V = pJ; /1e3 -> nJ
}

// ReadBurstEnergy returns the energy in nanojoules of one read burst of
// nBeats beats on one device, net of active standby.
func (p DeviceParams) ReadBurstEnergy(nBeats int) float64 {
	dur := float64(nBeats) / 2 * p.TCK // DDR: two beats per clock
	return p.VDD * (p.IDD4R - p.IDD3N) * dur * 1e-3
}

// WriteBurstEnergy returns the energy in nanojoules of one write burst of
// nBeats beats on one device, net of active standby.
func (p DeviceParams) WriteBurstEnergy(nBeats int) float64 {
	dur := float64(nBeats) / 2 * p.TCK
	return p.VDD * (p.IDD4W - p.IDD3N) * dur * 1e-3
}

// BackgroundPower returns the standby power in milliwatts of one device,
// given the fraction of time any bank is active and the fraction of idle
// time spent in power-down. Refresh power is folded in.
func (p DeviceParams) BackgroundPower(activeFraction, powerDownFraction float64) float64 {
	if activeFraction < 0 || activeFraction > 1 || powerDownFraction < 0 || powerDownFraction > 1 {
		panic("power: fractions must be within [0, 1]")
	}
	idle := 1 - activeFraction
	standby := activeFraction*p.IDD3N +
		idle*(powerDownFraction*p.IDD2P+(1-powerDownFraction)*p.IDD2N)
	refresh := (p.IDD5 - p.IDD2N) * p.TRFC / p.TREF
	return p.VDD * (standby + refresh)
}
