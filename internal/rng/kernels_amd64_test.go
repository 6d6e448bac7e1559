package rng

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"arcc/internal/cpufeat"
)

func init() {
	if avx2, _ := cpufeat.Vector(); avx2 {
		avx2SeedKernel = seedAVX2
	}
}

// TestSeedKernelInstalled checks the init-time choice of the kernels
// against Linux's view of the CPU: the AVX-512 seed and run kernels must
// be installed exactly when /proc/cpuinfo lists avx512f, and otherwise
// the AVX2 seed kernel exactly when it lists avx2 (flags Linux clears
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
	if (runsKernel != nil) != avx512f ||
		avx512f && reflect.ValueOf(runsKernel).Pointer() != reflect.ValueOf(runsAVX512).Pointer() {
		t.Fatalf("run kernel installed: %v; /proc/cpuinfo lists avx512f: %v", runsKernel != nil, avx512f)
	}
}
