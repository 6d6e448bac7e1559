// Package arcc is a from-scratch reproduction of "Adaptive Reliability
// Chipkill Correct (ARCC)" (Jian & Kumar, HPCA 2013): an adaptive chipkill
// memory system that keeps fault-free pages in a cheap 2-check-symbol mode
// and upgrades faulty pages, page by page, to a 4-check-symbol mode by
// joining codewords across two memory channels.
//
// The implementation lives under internal/: Galois-field arithmetic and a
// Reed–Solomon codec at the bottom; chipkill ECC schemes (commercial
// SCCDCD, double chip sparing, LOT-ECC); DRAM, power, cache, memory
// controller and CPU models; the ARCC controller itself (internal/core);
// the enhanced scrubber; the sharded Monte Carlo engine (internal/mc) that
// every lifetime sweep runs on; and the reliability and experiment
// harnesses that regenerate every table and figure of the paper's
// evaluation.
//
// Every experiment is an exhibit (internal/exhibit): a named entry point
// registered by internal/experiments that runs under a context with a
// functional-options Config and returns a structured Report renderable as
// text (byte-identical to the golden files), JSON, or CSV. Declarative
// scenarios — JSON files describing fault mixes, channel geometry, ECC
// upgrade costs, and workload sweeps — compile into exhibits too, so
// studies the paper never shipped run through the same machinery
// (arcc-experiments -scenario). See DESIGN.md for the system inventory,
// the engine's determinism contract, and the exhibit API.
//
// The exhibits are also servable: cmd/arcc-server runs a long-lived HTTP
// sweep service (internal/server) that accepts exhibit and scenario jobs,
// executes them on a bounded worker pool with live progress and one-shard
// cancellation, deduplicates identical runs through a content-addressed
// result cache, and streams reports in any registered format — a served
// report is byte-identical to the CLI's output for the same parameters.
//
// Lifetime sweeps can be accelerated for rare-event regimes: the fault
// model offers conditional ("at least one fault") and rate-tilted
// importance samplers with closed-form likelihood ratios, the engine runs
// weighted trials (an internal/mc.Job accumulating into mc.NewWeightedSet)
// through mergeable streaming estimators (internal/stats: weighted moments, 95% CIs, Kish effective
// sample size, a deterministic quantile sketch), and scenarios opt in via
// accel/ci fields, which the -accel/-ci flags set. Weighted merges keep the
// bit-identical-at-any-parallelism contract, and the unaccelerated path
// reproduces the legacy estimators bit for bit, so goldens never move.
//
// The codec hot path under all of this is one recurrence: internal/rs
// keeps a codeword's whole division remainder (at most eight check
// symbols) in one uint64 and advances it one symbol per table lookup.
// Encoding runs it over the data symbols; the batch decoder runs it over
// four codewords at a time, interleaved, and a codeword is clean iff its
// remainder is zero, so the all-clean burst never reaches the scalar
// decoder. The controller decodes each burst's codewords as one batch
// call. The resulting per-PR perf
// trajectory (BENCH_PR<N>.json, recorded by scripts/bench.sh) is enforced
// by cmd/arcc-benchcmp, which CI runs on every push and which fails on
// >15% ns/op regressions or new steady-state allocations.
//
// The functional memory under the controller is sparse: internal/pagedmem
// is a page-granular memory core in which only touched pages are
// materialised, holes read as zero, and scrub-verified all-zero pages are
// released back to holes — so terabyte-scale systems cost host memory
// proportional to their touched footprint. On top of it the scenario
// layer grew declarative axes: DDR4/DDR5 geometries and device widths
// (dram/width), correlated row-adjacent and bank-burst fault clustering
// with exact per-burst likelihoods that compose with the importance
// samplers (burst), multi-tenant interference mixes on private or shared
// LLCs (tenants/shared_llc/llc_bytes), and trace-file replay through a
// first-class workload source (trace, recorded by arcc-memsim
// -dump-trace). Example scenarios live under examples/scenarios/.
//
// The benchmarks in bench_test.go regenerate one table or figure each:
//
//	go test -bench=. -benchmem .
package arcc
