// Package cpufeat reports which x86 vector extensions the CPU and the
// operating system support, so that packages with vector kernels (rng's
// seeding and run draws, mc's weighted fold, reliability's per-year
// series) can install them once at init. On other architectures it
// reports none, and those packages run their Go loops.
package cpufeat
