//go:build !amd64

package cpufeat

// Vector reports no vector kernels off amd64.
func Vector() (avx2, avx512f bool) { return false, false }
