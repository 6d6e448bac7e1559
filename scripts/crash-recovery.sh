#!/usr/bin/env bash
# crash-recovery.sh — kill -9 the sweep service mid-run and prove the
# resumed report is byte-identical to an uninterrupted run.
#
# Builds cmd/arcc-server and cmd/arcc-experiments, starts the server with
# a -state-dir, a 100ms checkpoint period and a trial cap raised to the
# job's 2M trials, submits a serial multi-million-trial scenario sweep,
# waits for the first checkpoint file to land, and SIGKILLs the process
# — no drain, no flush, the real crash.
# A second server on the same state dir must replay the journal, re-enqueue
# the interrupted job from its checkpoint, and finish it; the fetched
# report is then compared byte for byte against what the arcc-experiments
# CLI produces for the same scenario with no server and no crash. Any
# divergence — a lost shard, a double-merged accumulator, a reordered
# merge — fails the diff.
# The second server is SIGKILLed too, the moment the resumed job's result
# is served: the job then reads done in memory while its result file,
# terminal journal record and checkpoint removal may still be on their
# way to disk. A third server on the same state dir must bring the job
# back done — restored from its journal record, or settled again from its
# result file or checkpoint — with the same bytes, and leave no
# checkpoint file behind.
#
# Usage: scripts/crash-recovery.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-8842}"
base="http://127.0.0.1:${port}/v1"
work="$(mktemp -d)"
state="$work/state"
server_pid=""
trap '[ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/arcc-server" ./cmd/arcc-server
go build -o "$work/arcc-experiments" ./cmd/arcc-experiments

# The raised rate factor makes each trial sample more arrivals, so the
# sweep runs for most of a second and its checkpoint file is on disk long
# enough for the poll below to see it on a fast machine too; at field
# rates it ran for about 0.2 s and the poll missed the file in about one
# run in three.
cat > "$work/scenario.json" <<'EOF'
{"name": "crash-recovery", "trials": 2000000, "rate_factor": 10}
EOF

wait_healthy() {
    for _ in $(seq 1 100); do
        if curl -fsS "$base/healthz" >/dev/null 2>&1; then return 0; fi
        kill -0 "$server_pid" 2>/dev/null || { echo "server process died during startup"; return 1; }
        sleep 0.1
    done
    echo "server never became healthy"
    return 1
}

start_server() {
    "$work/arcc-server" -addr "127.0.0.1:${port}" -workers 1 \
        -state-dir "$state" -checkpoint-period 100ms -max-trials 2000000 &
    server_pid=$!
    wait_healthy
}

echo "== first server: submit, checkpoint, kill -9 =="
start_server

payload=$(printf '{"scenario": %s, "seed": 9, "parallel": 1, "format": "json"}' \
    "$(cat "$work/scenario.json")")
submit=$(curl -fsS -X POST -d "$payload" "$base/jobs")
id=$(printf '%s' "$submit" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "no job id in submit response: $submit"; exit 1; }
echo "submitted $id"

# Kill the instant the first checkpoint file lands on disk: the job is
# provably mid-run with completed shards persisted.
for _ in $(seq 1 200); do
    [ -s "$state/checkpoints/$id.json" ] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "server died before checkpointing"; exit 1; }
    sleep 0.05
done
[ -s "$state/checkpoints/$id.json" ] || { echo "no checkpoint ever appeared"; exit 1; }
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "killed mid-sweep with $(wc -c < "$state/checkpoints/$id.json") bytes of checkpoint"

echo "== second server: recover, resume, compare =="
start_server

# Recovered alone would also pass a recovery that dropped the checkpoint
# and re-ran from scratch; resumed says it restarted from the checkpoint.
status=$(curl -fsS "$base/jobs/$id")
printf '%s' "$status" | grep -q '"recovered": true' || { echo "job not recovered: $status"; exit 1; }
printf '%s' "$status" | grep -q '"resumed": true' || { echo "job not resumed from its checkpoint: $status"; exit 1; }

result="$work/resumed.json"
code=""
for _ in $(seq 1 600); do
    code=$(curl -sS -o "$result" -w '%{http_code}' "$base/jobs/$id/result")
    case "$code" in
        200) break ;;
        202) sleep 0.2 ;;
        *) echo "resumed job failed with HTTP $code:"; cat "$result"; exit 1 ;;
    esac
done
[ "$code" = 200 ] || { echo "resumed job never completed (last HTTP $code)"; exit 1; }
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

"$work/arcc-experiments" -scenario "$work/scenario.json" -format json \
    -seed 9 -parallel 1 > "$work/uninterrupted.json"

if ! diff -u "$work/uninterrupted.json" "$result"; then
    echo "FAIL: resumed report differs from an uninterrupted run"
    exit 1
fi

echo "== third server: restart after a kill -9 at done, compare again =="
start_server
again="$work/again.json"
for _ in $(seq 1 600); do
    code=$(curl -sS -o "$again" -w '%{http_code}' "$base/jobs/$id/result")
    case "$code" in
        200) break ;;
        202) sleep 0.2 ;;
        *) echo "job failed after the second restart with HTTP $code:"; cat "$again"; exit 1 ;;
    esac
done
[ "$code" = 200 ] || { echo "job never done after the second restart (last HTTP $code)"; exit 1; }
status=$(curl -fsS "$base/jobs/$id")
printf '%s' "$status" | grep -q '"state": "done"' || { echo "job not done after the second restart: $status"; exit 1; }
if ! diff -u "$work/uninterrupted.json" "$again"; then
    echo "FAIL: report after the second restart differs from an uninterrupted run"
    exit 1
fi
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
if [ -n "$(ls -A "$state/checkpoints")" ]; then
    echo "FAIL: checkpoint files left once the job ended: $(ls -A "$state/checkpoints")"
    exit 1
fi
echo "crash recovery OK: resumed report is byte-identical, and again after a kill -9 at done"
