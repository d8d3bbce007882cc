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
# bench_serving.py records the serving acceptance numbers: micro-batched fvm
# requests/sec vs the unbatched per-request baseline (>= 5x at batch >= 8),
# closed-loop p50/p95/p99 latency for the fvm and operator backends, the
# multi-worker scaling curve (>= 1.5x throughput at --workers 4 vs 1 for
# mixed-chip fvm load at resolution 32), and the speculative
# time-to-first-answer datapoint (surrogate first frame >= 5x faster than
# the blocking exact p50).  bench_exec.py records the
# execution-plane scaling numbers: fvm dataset generation through a 4-worker
# ProcessPlane vs SerialPlane (>= 1.7x on hosts with >= 4 cores, bitwise
# identical outputs) and serving throughput inline vs on a process plane.
set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${1:-}" == "--smoke" ]]; then
    shift || true
    echo "== smoke: byte-compiling src =="
    python -m compileall -q src
    echo "== smoke: CLI surface sanity =="
    python -m repro.cli chips > /dev/null
    echo "== smoke: generate --exec processes (2-worker dataset generation) =="
    SMOKE_DATASET="$(mktemp -t repro_smoke_dataset_XXXXXX.npz)"
    trap 'rm -f "$SMOKE_DATASET"' EXIT
    python -m repro.cli generate --chip chip1 --resolution 12 --samples 8 \
        --batch-size 4 --exec processes --exec-workers 2 \
        --output "$SMOKE_DATASET" > /dev/null
    echo "== smoke: serve --workers 2 end-to-end (solve + transient + stats) =="
    python benchmarks/smoke_serving.py
    echo "== smoke: serve --exec processes end-to-end (plane-backed solves) =="
    python benchmarks/smoke_serving.py --exec processes --exec-workers 2
    echo "== smoke: serve --chaos (killed plane worker, zero failed requests, incident on /events + /metrics + watch) =="
    python benchmarks/smoke_serving.py --exec processes --exec-workers 2 \
        --chaos kill-worker:0@5 --sample-interval 0.2
    echo "== smoke: fleet (2 replicas + router, SIGKILL one, zero failed requests, degraded->ok, fleet generate) =="
    python benchmarks/smoke_fleet.py
    echo "== smoke: streaming (speculative /solve + streamed /solve_transient, replica and router, first frame beats blocking) =="
    python benchmarks/smoke_streaming.py
    echo "== smoke: benchmark bodies (no timing repetitions) =="
    python -m pytest \
        benchmarks/bench_solver_kernels.py \
        benchmarks/bench_serving.py \
        benchmarks/bench_exec.py \
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
    benchmarks/bench_exec.py \
    --benchmark-only \
    --benchmark-disable-gc \
    --benchmark-json="$OUTPUT" \
    -q "$@"

echo "benchmark results written to $OUTPUT"
