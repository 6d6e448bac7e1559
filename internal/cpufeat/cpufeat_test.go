package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// cpuFlags returns the flags /proc/cpuinfo lists for the first CPU, each
// followed by a space, or skips t where there is no such file.
func cpuFlags(t *testing.T) string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			return line + " "
		}
	}
	return ""
}

// TestVectorMatchesCPUInfo checks Vector against Linux's view of the CPU:
// it must report AVX2 and AVX-512F exactly when /proc/cpuinfo lists avx2
// and avx512f (flags Linux clears when it does not save YMM or ZMM state),
// and neither off amd64.
func TestVectorMatchesCPUInfo(t *testing.T) {
	flags := cpuFlags(t)
	avx2, avx512f := strings.Contains(flags, " avx2 "), strings.Contains(flags, " avx512f ")
	if runtime.GOARCH != "amd64" {
		avx2, avx512f = false, false
	}
	if gotAVX2, gotAVX512F := Vector(); gotAVX2 != avx2 || gotAVX512F != avx512f {
		t.Fatalf("Vector: avx2 = %v, avx512f = %v; want %v, %v from /proc/cpuinfo", gotAVX2, gotAVX512F, avx2, avx512f)
	}
}
