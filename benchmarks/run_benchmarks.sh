#!/usr/bin/env bash
# Run the solver-kernel and serving micro-benchmarks and save
# machine-readable results.
#
# Usage:
#   benchmarks/run_benchmarks.sh [output.json] [extra pytest args...]
#   benchmarks/run_benchmarks.sh --smoke [extra pytest args...]
#
# --smoke is the fast CI/verify mode: it byte-compiles the whole source
# tree, sanity-checks the CLI surface, and runs the kernel + serving
# benchmark bodies once each (--benchmark-disable) so every measured code
# path is exercised without the timing repetitions.  Full runs write
# .benchmarks/kernels.json by default: an untracked local file for
# pytest-benchmark's own --benchmark-compare.  perfbench/ is the benchmark
# of record.  GC is disabled during timing for stable numbers.
# bench_serving.py records the serving acceptance numbers: served fvm
# requests/sec vs the per-request cold-solver baseline (>= 5x), closed-loop
# p50/p95/p99 latency for the fvm and operator backends, deadline shedding
# under a backlog of concurrent callers and the telemetry overhead (< 3%).
set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${1:-}" == "--smoke" ]]; then
    shift || true
    echo "== smoke: byte-compiling src =="
    python -m compileall -q src
    echo "== smoke: CLI surface sanity =="
    python -m repro.cli chips > /dev/null
    echo "== smoke: generate (dataset generation) =="
    SMOKE_DATASET="$(mktemp -t repro_smoke_dataset_XXXXXX.npz)"
    trap 'rm -f "$SMOKE_DATASET"' EXIT
    python -m repro.cli generate --chip chip1 --resolution 12 --samples 8 \
        --batch-size 4 --output "$SMOKE_DATASET" > /dev/null
    echo "== smoke: serve --max-queue 64 end-to-end (solve + transient + stats + events + metrics + watch) =="
    python benchmarks/smoke_serving.py
    echo "== smoke: streaming (streamed /solve_transient, first segment beats blocking, resume) =="
    python benchmarks/smoke_streaming.py
    echo "== smoke: benchmark bodies (no timing repetitions) =="
    python -m pytest \
        benchmarks/bench_solver_kernels.py \
        benchmarks/bench_serving.py \
        --benchmark-disable \
        -q "$@"
    echo "smoke benchmarks ok"
    exit 0
fi

OUTPUT="${1:-.benchmarks/kernels.json}"
shift || true
mkdir -p "$(dirname "$OUTPUT")"

python -m pytest \
    benchmarks/bench_solver_kernels.py \
    benchmarks/bench_serving.py \
    --benchmark-only \
    --benchmark-disable-gc \
    --benchmark-json="$OUTPUT" \
    -q "$@"

echo "benchmark results written to $OUTPUT"
