package cpufeat

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// Vector reports which vector kernels the CPU and the OS support. AVX2
// needs CPUID.(7,0):EBX bit 5, OSXSAVE and AVX in CPUID.1:ECX (bits 27,
// 28), and SSE and AVX state in XCR0 (bits 1, 2). AVX-512F needs
// CPUID.(7,0):EBX bit 16, OSXSAVE, and SSE, AVX, opmask, ZMM_Hi256 and
// Hi16_ZMM state in XCR0 (bits 1, 2 and 5–7). XGETBV faults without
// OSXSAVE, so it runs only after that check.
func Vector() (avx2, avx512f bool) {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false, false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(1<<27) == 0 {
		return false, false
	}
	xcr0 := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	avx2 = ecx&(1<<28) != 0 && xcr0&0x6 == 0x6 && ebx&(1<<5) != 0
	avx512f = xcr0&0xe6 == 0xe6 && ebx&(1<<16) != 0
	return avx2, avx512f
}
