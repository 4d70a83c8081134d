#!/usr/bin/env bash
# statistical_gate.sh — end-to-end proof that the statistical model-quality
# gate works AND has teeth. Trains a small fixed-seed model, validates it
# against the committed golden tolerances (must pass every check), then
# corrupts the same model's weights with Gaussian noise via the -corrupt
# hook and asserts gendt-validate rejects it with at least one named
# failing distributional check.
#
# The golden file is regenerated with:
#   go run ./cmd/gendt-validate -model <model> $GATE_ARGS \
#       -golden validate/golden/gate-a.json -update-golden
# after retraining with $TRAIN_ARGS below; the derivation is deterministic,
# so a regeneration with an unchanged model is a no-op diff.
#
# A second, lighter section repeats the train -> pass -> corrupt-must-fail
# -> golden-stable loop on the NR5G scenario, selecting its world by file
# (-scenario-file scenarios/nr5g-dense.toml, no -dataset) the way a user's
# own config would be, and then serves that model from the same file and
# replays a trace against it — a file-selected world trained, gated and
# served through the one set of world flags every binary shares.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Must match the parameters the committed golden file was derived under.
# Workers is pinned so training is bit-identical regardless of runner CPUs.
TRAIN_ARGS=(-dataset A -scale 0.02 -seed 7 -channels rsrp,rsrq
    -epochs 2 -hidden 12 -batch 12 -step 6 -maxcells 6 -workers 2)
GATE_ARGS=(-dataset A -scale 0.02 -seed 7)
GOLDEN=validate/golden/gate-a.json

go build -o "$work/gendt-train" ./cmd/gendt-train
go build -o "$work/gendt-validate" ./cmd/gendt-validate
go build -o "$work/gendt-serve" ./cmd/gendt-serve
go build -o "$work/gendt-bench" ./cmd/gendt-bench

echo "=== statistical gate: train fixed-seed model ==="
"$work/gendt-train" "${TRAIN_ARGS[@]}" -out "$work/model.json" -fingerprint

echo "=== statistical gate: healthy model must pass ==="
"$work/gendt-validate" -model "$work/model.json" "${GATE_ARGS[@]}" \
    -golden "$GOLDEN" | tee "$work/pass.log"

echo "=== statistical gate: -json stdout is one document, served check passed ==="
# Progress and the summary go to stderr, so stdout pipes straight into jq.
"$work/gendt-validate" -model "$work/model.json" "${GATE_ARGS[@]}" \
    -golden "$GOLDEN" -json \
    | jq -e '.checks[] | select(.name=="meta/seed-determinism-http") | .passed'

echo "=== statistical gate: frozen f32/int8 backends must pass ==="
# The frozen inference kernels serve the same statistical contract as the
# live model: every distributional tolerance and metamorphic invariant
# must hold at both quantized precisions (determinism is checked per
# precision inside the suite).
for prec in f32 int8; do
    "$work/gendt-validate" -model "$work/model.json" "${GATE_ARGS[@]}" \
        -golden "$GOLDEN" -precision "$prec" | tee "$work/pass-$prec.log"
    # The batched-GEMM engine identity check must have actually run (not
    # skipped) for every frozen backend — it is the in-process half of the
    # serial-vs-batched bit-identity contract.
    if ! grep -q '^ok   *meta/batched-engine-identity' "$work/pass-$prec.log"; then
        echo "FAIL: meta/batched-engine-identity did not run for $prec"
        exit 1
    fi
done

echo "=== statistical gate: batched serving is bit-identical under load ==="
# Two replicas of the same frozen model per precision, one coalescing
# requests into engine batches and one with -batch-max 1 (every job alone
# in the engine). Open-loop load keeps the batched replica's micro-batcher
# coalescing multi-request batches while the verify loop asserts per-seed
# responses are float-exact across the two — HTTP-level proof that a job's
# output does not depend on what shares the engine with it.
BATCHED=http://127.0.0.1:18073
UNBATCHED=http://127.0.0.1:18074
wait_http() {
    for _ in $(seq 1 200); do
        if curl -fsS -o /dev/null "$1" 2>/dev/null; then return 0; fi
        sleep 0.1
    done
    echo "FAIL: $1 never became healthy"
    return 1
}
for url in "$BATCHED" "$UNBATCHED"; do
    if curl -fsS -o /dev/null "$url/healthz" 2>/dev/null; then
        echo "FAIL: something is already listening at $url — stale server from an earlier run?"
        exit 1
    fi
done
BENCH_TRACE=(-dataset A -scale 0.02 -seed 7 -routes 4 -steps 30 -trace-seed 1 -timeout 10s)
for prec in f32 int8; do
    echo "--- $prec: batched vs unbatched replicas"
    "$work/gendt-serve" -model "$work/model.json" -dataset A -scale 0.02 -seed 7 \
        -precision "$prec" -addr 127.0.0.1:18073 >"$work/serve-batched-$prec.log" 2>&1 &
    batched_pid=$!
    "$work/gendt-serve" -model "$work/model.json" -dataset A -scale 0.02 -seed 7 \
        -precision "$prec" -batch-max 1 -addr 127.0.0.1:18074 >"$work/serve-unbatched-$prec.log" 2>&1 &
    unbatched_pid=$!
    trap 'kill "$batched_pid" "$unbatched_pid" 2>/dev/null || true; rm -rf "$work"' EXIT
    wait_http "$BATCHED/healthz"
    wait_http "$UNBATCHED/healthz"
    "$work/gendt-bench" -target "$BATCHED" "${BENCH_TRACE[@]}" \
        -rps 30 -duration 3s -warmup 0s -arrival fixed \
        -max-error-rate 0 -out "$work/load-$prec.json" >"$work/load-$prec.log" 2>&1 &
    load_pid=$!
    if ! "$work/gendt-bench" -target "$BATCHED" -verify-against "$UNBATCHED" \
        -verify-n 4 "${BENCH_TRACE[@]}"; then
        echo "FAIL: $prec: batched vs unbatched serving outputs differ"
        cat "$work/serve-batched-$prec.log" "$work/serve-unbatched-$prec.log"
        exit 1
    fi
    if ! wait "$load_pid"; then
        echo "FAIL: $prec: load window against the batched replica saw errors"
        cat "$work/load-$prec.log"
        exit 1
    fi
    kill "$batched_pid" "$unbatched_pid" 2>/dev/null || true
    wait "$batched_pid" "$unbatched_pid" 2>/dev/null || true
    trap 'rm -rf "$work"' EXIT
done

echo "=== statistical gate: corrupted model must fail ==="
if "$work/gendt-validate" -model "$work/model.json" "${GATE_ARGS[@]}" \
    -golden "$GOLDEN" -corrupt 0.5 >"$work/fail.log" 2>&1; then
    echo "FAIL: gate passed a noise-corrupted model"
    cat "$work/fail.log"
    exit 1
fi
cat "$work/fail.log"
if ! grep -q '^FAIL dist/' "$work/fail.log"; then
    echo "FAIL: corrupted run exited non-zero but named no failing dist/ check"
    exit 1
fi
echo "corrupted model rejected with named checks:"
grep '^FAIL ' "$work/fail.log" | sort -u

echo "=== statistical gate: golden regeneration is a no-op ==="
cp "$GOLDEN" "$work/golden.orig"
"$work/gendt-validate" -model "$work/model.json" "${GATE_ARGS[@]}" \
    -golden "$GOLDEN" -update-golden >/dev/null
if ! cmp -s "$GOLDEN" "$work/golden.orig"; then
    echo "FAIL: regenerated golden differs from the committed file"
    diff "$work/golden.orig" "$GOLDEN" || true
    cp "$work/golden.orig" "$GOLDEN"
    exit 1
fi

echo "=== statistical gate: NR5G scenario (config-defined world) ==="
# Same teeth, different world, named by its config file alone. Must match
# the parameters validate/golden/gate-nr5g.json was derived under.
NR_GATE_ARGS=(-scenario-file scenarios/nr5g-dense.toml -scale 0.05 -seed 7)
NR_TRAIN_ARGS=("${NR_GATE_ARGS[@]}" -channels rsrp,rsrq
    -epochs 2 -hidden 12 -batch 12 -step 6 -maxcells 6 -workers 2)
NR_GOLDEN=validate/golden/gate-nr5g.json

"$work/gendt-train" "${NR_TRAIN_ARGS[@]}" -out "$work/model-nr5g.json" -fingerprint

echo "--- NR5G: healthy model must pass"
"$work/gendt-validate" -model "$work/model-nr5g.json" "${NR_GATE_ARGS[@]}" \
    -golden "$NR_GOLDEN" | tee "$work/pass-nr5g.log"

echo "--- NR5G: corrupted model must fail"
if "$work/gendt-validate" -model "$work/model-nr5g.json" "${NR_GATE_ARGS[@]}" \
    -golden "$NR_GOLDEN" -corrupt 0.5 >"$work/fail-nr5g.log" 2>&1; then
    echo "FAIL: NR5G gate passed a noise-corrupted model"
    cat "$work/fail-nr5g.log"
    exit 1
fi
if ! grep -q '^FAIL dist/' "$work/fail-nr5g.log"; then
    echo "FAIL: corrupted NR5G run exited non-zero but named no failing dist/ check"
    cat "$work/fail-nr5g.log"
    exit 1
fi
echo "corrupted NR5G model rejected with named checks:"
grep '^FAIL ' "$work/fail-nr5g.log" | sort -u

echo "--- NR5G: golden regeneration is a no-op"
cp "$NR_GOLDEN" "$work/golden-nr5g.orig"
"$work/gendt-validate" -model "$work/model-nr5g.json" "${NR_GATE_ARGS[@]}" \
    -golden "$NR_GOLDEN" -update-golden >/dev/null
if ! cmp -s "$NR_GOLDEN" "$work/golden-nr5g.orig"; then
    echo "FAIL: regenerated NR5G golden differs from the committed file"
    diff "$work/golden-nr5g.orig" "$NR_GOLDEN" || true
    cp "$work/golden-nr5g.orig" "$NR_GOLDEN"
    exit 1
fi

echo "--- NR5G: the file-selected world serves"
"$work/gendt-serve" -model "$work/model-nr5g.json" "${NR_GATE_ARGS[@]}" \
    -addr 127.0.0.1:18073 >"$work/serve-nr5g.log" 2>&1 &
nr_pid=$!
trap 'kill "$nr_pid" 2>/dev/null || true; rm -rf "$work"' EXIT
wait_http "$BATCHED/healthz"
if ! "$work/gendt-bench" -target "$BATCHED" "${NR_GATE_ARGS[@]}" \
    -routes 4 -steps 30 -trace-seed 1 -timeout 10s \
    -rps 20 -duration 2s -warmup 0s -arrival fixed \
    -max-error-rate 0 -out "$work/load-nr5g.json" >"$work/load-nr5g.log" 2>&1; then
    echo "FAIL: NR5G: replay against the file-selected world saw errors"
    cat "$work/load-nr5g.log" "$work/serve-nr5g.log"
    exit 1
fi
grep 'rps 20: sent' "$work/load-nr5g.log"
kill "$nr_pid" 2>/dev/null || true
wait "$nr_pid" 2>/dev/null || true
trap 'rm -rf "$work"' EXIT

echo "statistical gate: pass on healthy, fail on corrupted, golden stable (A + NR5G), NR5G served from its file"
