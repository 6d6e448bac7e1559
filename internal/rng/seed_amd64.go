package rng

// seedAVX2 is Seed's vector kernel (seed_amd64.s).
//
//go:noescape
func seedAVX2(x uint64, vec *[rngLen]int64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

func init() {
	if hasAVX2() {
		seedKernel = seedAVX2
	}
}

// hasAVX2 reports whether the CPU has AVX2 (CPUID.(7,0):EBX bit 5) and
// the OS saves YMM state: OSXSAVE and AVX in CPUID.1:ECX (bits 27, 28),
// SSE and AVX state in XCR0 (bits 1, 2).
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(1<<27) == 0 || ecx&(1<<28) == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
