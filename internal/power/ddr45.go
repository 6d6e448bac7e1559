package power

// DDR4 and DDR5 device profiles for the generation scenario axis. The
// paper's evaluation is DDR2-667; these profiles let the same power model
// answer "what does the relaxed/upgraded split look like on a modern
// part". Values are representative of mainstream 8 Gb DDR4-2400 (1.2 V)
// and 16 Gb DDR5-4800 (1.1 V) datasheets — like the timing presets, they
// support configuration *comparisons*, not part certification.

// DDR4x8Device is an 8 Gb x8 DDR4-2400 device.
func DDR4x8Device() DeviceParams {
	return DeviceParams{
		Name: "8Gb x8 DDR4-2400",
		IDD0: 58, IDD2P: 25, IDD2N: 37, IDD3N: 50, IDD3P: 32,
		IDD4R: 150, IDD4W: 145, IDD5: 190,
		VDD: 1.2,
		TCK: 0.833, TRC: 45.3, TRAS: 32, TRFC: 350, TREF: 7812.5,
	}
}

// DDR4x4Device is an 8 Gb x4 DDR4-2400 device (slightly lower burst
// current than the x8 part).
func DDR4x4Device() DeviceParams {
	p := DDR4x8Device()
	p.Name = "8Gb x4 DDR4-2400"
	p.IDD4R, p.IDD4W = 135, 130
	return p
}

// DDR4x16Device is an 8 Gb x16 DDR4-2400 device (higher burst current).
func DDR4x16Device() DeviceParams {
	p := DDR4x8Device()
	p.Name = "8Gb x16 DDR4-2400"
	p.IDD4R, p.IDD4W = 180, 175
	return p
}

// DDR5x8Device is a 16 Gb x8 DDR5-4800 device. DDR5 refreshes at fine
// granularity (tREFI 3.9 us) with a shorter tRFC.
func DDR5x8Device() DeviceParams {
	return DeviceParams{
		Name: "16Gb x8 DDR5-4800",
		IDD0: 65, IDD2P: 22, IDD2N: 34, IDD3N: 45, IDD3P: 30,
		IDD4R: 170, IDD4W: 160, IDD5: 175,
		VDD: 1.1,
		TCK: 0.417, TRC: 48, TRAS: 32, TRFC: 295, TREF: 3906.25,
	}
}

// DDR5x4Device is a 16 Gb x4 DDR5-4800 device.
func DDR5x4Device() DeviceParams {
	p := DDR5x8Device()
	p.Name = "16Gb x4 DDR5-4800"
	p.IDD4R, p.IDD4W = 155, 145
	return p
}

// DDR5x16Device is a 16 Gb x16 DDR5-4800 device.
func DDR5x16Device() DeviceParams {
	p := DDR5x8Device()
	p.Name = "16Gb x16 DDR5-4800"
	p.IDD4R, p.IDD4W = 200, 190
	return p
}
