#!/usr/bin/env bash
# capacity_smoke.sh — end-to-end fleet-serving gate. Trains a tiny model,
# boots two gendt-serve replicas behind a gendt-lb front tier, and asserts:
#
#   1. responses through the LB are bit-identical to each direct replica
#      (consistent hashing must not change what a seed generates);
#   2. a fixed-rate open-loop window sees zero errors after warmup;
#   3. SIGKILLing one replica mid-run leaves the fleet >=99% successful —
#      connect errors fail over to ring successors and the prober ejects
#      the dead replica;
#   4. /debug/vars records the ejection.
#
# Correctness only: latency is measured by benchmark/ (see BENCHMARK.json),
# parent against change on one machine. Set CAPACITY_OUT to a directory to
# keep the JSON reports (CI uploads them as artifacts).
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

# World + model sizing matches the statistical gate: big enough to exercise
# real generation, small enough for a shared CI runner.
DATASET=(-dataset A -scale 0.02 -seed 7)
TRAIN_ARGS=("${DATASET[@]}" -channels rsrp,rsrq
    -epochs 2 -hidden 12 -batch 12 -step 6 -maxcells 6 -workers 2)

LB=http://127.0.0.1:18080
R1=http://127.0.0.1:18081
R2=http://127.0.0.1:18082

echo "=== build ==="
go build -o "$work/" ./cmd/gendt-train ./cmd/gendt-serve ./cmd/gendt-lb ./cmd/gendt-bench

echo "=== train the served model ==="
"$work/gendt-train" "${TRAIN_ARGS[@]}" -out "$work/model.json"

wait_http() {
    local url="$1"
    for _ in $(seq 1 200); do
        if curl -fsS -o /dev/null "$url" 2>/dev/null; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: $url never became healthy"
    return 1
}

for url in "$LB" "$R1" "$R2"; do
    if curl -fsS -o /dev/null "$url/healthz" 2>/dev/null; then
        echo "FAIL: something is already listening at $url — stale fleet from an earlier run?"
        exit 1
    fi
done

echo "=== boot fleet: 2 replicas + lb ==="
"$work/gendt-serve" -model "$work/model.json" "${DATASET[@]}" \
    -addr 127.0.0.1:18081 >"$work/r1.log" 2>&1 &
pids+=($!)
"$work/gendt-serve" -model "$work/model.json" "${DATASET[@]}" \
    -addr 127.0.0.1:18082 >"$work/r2.log" 2>&1 &
r2_pid=$!
pids+=("$r2_pid")
wait_http "$R1/healthz"
wait_http "$R2/healthz"

"$work/gendt-lb" -addr 127.0.0.1:18080 -replica "$R1" -replica "$R2" \
    -probe-interval 100ms -probe-timeout 1s >"$work/lb.log" 2>&1 &
pids+=($!)
wait_http "$LB/healthz"

# Bench trace must be synthesized from the same world the fleet serves.
BENCH=("${DATASET[@]}" -routes 6 -steps 40 -trace-seed 1 -arrival fixed -timeout 10s)

echo "=== bit-identity: LB vs each direct replica ==="
"$work/gendt-bench" -target "$LB" -verify-against "$R1" -verify-n 4 "${BENCH[@]}"
"$work/gendt-bench" -target "$LB" -verify-against "$R2" -verify-n 4 "${BENCH[@]}"

echo "=== clean fixed-rate window: zero errors after warmup ==="
"$work/gendt-bench" -target "$LB" "${BENCH[@]}" -rps 12 -duration 6s -warmup 2s \
    -name capacity-smoke -max-error-rate 0 -out "$work/bench-serve.json"

echo "=== SIGKILL replica 2 mid-run: fleet must stay >=99% successful ==="
"$work/gendt-bench" -target "$LB" "${BENCH[@]}" -rps 12 -duration 10s -warmup 1s \
    -name capacity-kill -max-error-rate 0.01 -out "$work/bench-kill.json" &
bench_pid=$!
sleep 3
kill -KILL "$r2_pid"
echo "replica 2 killed"
if ! wait "$bench_pid"; then
    echo "FAIL: load window with one replica killed exceeded 1% errors"
    tail -5 "$work/lb.log" || true
    exit 1
fi

echo "=== LB must have ejected the killed replica ==="
vars="$(curl -fsS "$LB/debug/vars")"
if ! echo "$vars" | grep -Eq '"ejections": [1-9]'; then
    echo "FAIL: no ejection recorded in /debug/vars:"
    echo "$vars"
    exit 1
fi
if ! echo "$vars" | grep -q '"healthy": false'; then
    echo "FAIL: killed replica still marked healthy in /debug/vars:"
    echo "$vars"
    exit 1
fi
echo "ejection recorded; surviving fleet:"
echo "$vars" | grep -E '"(healthy|requests|retries|ejections)":' || true

if [ -n "${CAPACITY_OUT:-}" ]; then
    mkdir -p "$CAPACITY_OUT"
    cp "$work/bench-serve.json" "$work/bench-kill.json" "$CAPACITY_OUT/"
    echo "reports copied to $CAPACITY_OUT/"
fi

echo "capacity-smoke: OK"
