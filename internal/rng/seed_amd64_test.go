package rng

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

func init() {
	if avx2, _ := vectorISA(); avx2 {
		avx2SeedKernel = seedAVX2
	}
}

// TestSeedKernelInstalled checks the init-time choice of Seed's path
// against the kernel's own view of the CPU: on Linux the AVX-512 kernel
// must be installed exactly when /proc/cpuinfo lists avx512f, and
// otherwise the AVX2 kernel exactly when it lists avx2 (flags Linux clears
// when it does not save ZMM or YMM state).
func TestSeedKernelInstalled(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	var flags string
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = line + " "
			break
		}
	}
	avx512f, avx2 := strings.Contains(flags, " avx512f "), strings.Contains(flags, " avx2 ")
	if gotAVX2, gotAVX512F := vectorISA(); gotAVX2 != avx2 || gotAVX512F != avx512f {
		t.Fatalf("vectorISA: avx2 = %v, avx512f = %v; /proc/cpuinfo lists avx2 = %v, avx512f = %v", gotAVX2, gotAVX512F, avx2, avx512f)
	}
	var want func(uint64, *[rngLen]int64)
	name := "none"
	switch {
	case avx512f:
		want, name = seedAVX512, "seedAVX512"
	case avx2:
		want, name = seedAVX2, "seedAVX2"
	}
	if (seedKernel == nil) != (want == nil) ||
		want != nil && reflect.ValueOf(seedKernel).Pointer() != reflect.ValueOf(want).Pointer() {
		t.Fatalf("installed seed kernel is not %s", name)
	}
}
