package rng

import (
	"os"
	"strings"
	"testing"
)

// TestSeedKernelInstalled checks the init-time choice of Seed's path
// against the kernel's own view of the CPU: on Linux the vector kernel
// must be installed exactly when /proc/cpuinfo lists avx2 (a flag Linux
// clears when it does not save YMM state).
func TestSeedKernelInstalled(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			listed = strings.Contains(line+" ", " avx2 ")
			break
		}
	}
	if got := seedKernel != nil; got != listed || hasAVX2() != listed {
		t.Fatalf("vector seed kernel installed = %v, hasAVX2 = %v, /proc/cpuinfo lists avx2 = %v", got, hasAVX2(), listed)
	}
}
