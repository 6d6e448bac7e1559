#!/usr/bin/env bash
# bench.sh — run the repository's hot-path benchmark suite with -benchmem
# and emit the results in machine-readable form.
#
# Usage: scripts/bench.sh [output.json]
#
# Each benchmark runs five times (-count=5). Writes one JSON array with an
# object per sample — {name, iterations, ns_per_op, bytes_per_op,
# allocs_per_op}, so a name repeats once per sample and arcc-benchcmp
# gates on each benchmark's median — plus the raw `go test -bench`
# text alongside it (same path, .txt). The output name comes from the
# first argument, then $BENCH_OUT, then BENCH_dev.json: the trajectory
# points checked in per PR are named BENCH_PR<N>.json (CI passes the PR
# number), and the default deliberately never collides with them so a
# bare local run cannot overwrite a recorded point. Compare two checkouts
# by diffing the JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-${BENCH_OUT:-BENCH_dev.json}}"
raw="${out%.json}.txt"
: >"$raw"

run() { go test -run=xxx -benchmem -count=5 "$@" | tee -a "$raw"; }

# GF/RS codec kernels and scratch decoding, plus the batch decoder: the
# batch benchmarks report ns per CODEWORD, so BenchmarkDecodeBatchClean vs
# BenchmarkDecodeScratchClean is the batch speedup on the clean read that
# dominates every access (the packed-word remainder over four interleaved
# codewords), and BenchmarkDecodeBatch1Dirty prices a 2-error lane's
# scalar fallback amortised over seven clean lanes.
run -bench='MulAddSlice|EncodeInto|Syndromes|ChienSearch|DecodeScratch|DecodeBatch|DecodeErasuresScratch' \
    ./internal/gf/ ./internal/rs/
# Fault-arrival sampling, including the conditional ("at least one
# fault") and rate-tilted importance samplers: per call through the
# reference samplers on a *rand.Rand, and from a Sampler built once per
# process on the rng.Source a Monte Carlo trial draws from, in each
# proposal (SamplerSampleInto, ...Conditional, ...Tilted).
run -bench='SampleArrivals|SamplerSampleInto(Conditional|Tilted)?$' ./internal/faultmodel/
# Streaming estimators and the weighted MC path (PR 9): per-observation
# accumulator costs; RunWeighted, a weighted job (an mc.Job whose
# accumulator is mc.NewWeightedSet) through RunCtx; one WeightedSet
# shard's checkpoint round trip (seven years, with and without a
# final-year sketch); RunCheckpointed, a 2,048-shard weighted job
# snapshotting after every shard into a JSON-encoding sink (what
# checkpointing costs a long served job); WeightedSetAdd, one
# seven-year trial folded into a set, on Add's AVX-512 kernel and its Go
# loop; the lifetime sweeps end to end: the conditional and tilted
# rare-event ones, and the plain-sampling serial sweep (20,000 channels
# through the plain shard loop into per-year sums); and FaultyPageSeries,
# one faulty history's seven-year series, on the kernel and the Go loop.
run -bench='WelfordAdd|WeightedAdd|QuantileSketch' ./internal/stats/
run -bench='RunWeighted|WeightedSnapshot|RunCheckpointed|WeightedSetAdd' ./internal/mc/
run -bench='LifetimeOverheadStats(Conditional|Tilted)|LifetimeOverheadSerial|FaultyPageSeries' ./internal/reliability/
# The paged sparse memory core (PR 10): a terabyte-span line sweep over
# lazily materialised pages — ns/op and B/op gate the zero-alloc
# steady-state contract, and the bytes-resident/pages-resident metrics
# record the footprint-proportional residency — plus first-touch page
# materialisation cost.
run -bench='PagedMemTerabyteSweep|PagedMemMaterialise' ./internal/pagedmem/
# Scheme-level four-codeword encode and decode bursts, the functional data
# path's per-access work: DecodeBatchInto*Clean is the clean read, and
# DecodeBatchInto*1Err, one bad symbol in every codeword, is each read of a
# page upgraded after a device failure, corrected straight from the
# remainder; DecodeSparedBatchInto1Err erases the spared position and has
# one more bad symbol per codeword, so every lane still runs the scalar
# errors-and-erasures decoder.
run -bench='EncodeBurst|DecodeBatchInto|DecodeSparedBatchInto' ./internal/ecc/
# One line access through the controller's group path in each page mode
# (relaxed, upgraded, upgraded8): a fault-free read, a fault-free write
# (read-modify-write above one channel), and a correction of a dead
# device written back; the core layer between ecc and pagedmem.
run -bench='ControllerAccess' ./internal/core/
# The full-system simulator steady state.
run -bench='SimRunSteadyState' ./internal/sim/
# The simulator's LLC step on its own (Access, then InsertInto on a miss)
# at 0%, 50% and 100% of pages upgraded, on a full cache and on a cold one
# (reset every 16K accesses, as empty as in a simulator run), so the LLC
# layer is gated apart from the simulator steady state that contains it.
run -bench='LLCMissPath' ./internal/cache/
# The synthetic access generator on its own, per access.
run -bench='StreamNext' ./internal/workload/
# Reseeding the in-repo math/rand source in place (what the Monte Carlo
# engine pays per shard) on each of its three paths — the installed kernel
# (AVX-512 where the CPU has it), the AVX2 kernel and the Go loop — next
# to building one with rand.NewSource; Int63sAtMost over seven bounds,
# an empty lifetime trial's draws; and EmptyRuns, a shard's 64 empty
# trials through Int63RunsAtMost on its AVX-512 kernel (eight draws per
# instruction) and its Go loop, next to 64 Int63sAtMost calls.
run -bench='Seed|Int63sAtMost|EmptyRuns' ./internal/rng/
# End-to-end exhibit regenerators (quick profile). A handful of iterations
# per sample rather than one, so each recorded ns/op is comparable across
# PRs instead of a single noisy wall-time sample.
run -bench='Fig71|Fig72|Fig73|Fig74' -benchtime=3x .

awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1; iters = $2; ns = "null"; bytes = "null"; allocs = "null"; pages = ""
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "B/op") bytes = $i
        if ($(i + 1) == "allocs/op") allocs = $i
        if ($(i + 1) == "pages-resident") pages = $i
    }
    if (!first) printf(",\n")
    first = 0
    printf("  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
           name, iters, ns, bytes, allocs)
    if (pages != "") printf(", \"pages_resident\": %s", pages)
    printf("}")
}
END { print "\n]" }
' "$raw" >"$out"

echo "wrote $out and $raw"
