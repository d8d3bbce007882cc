"""Serve / generate / train benchmark of the SAU-FNO thermal reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve|generate|train --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off: the workload is set up ``SETUPS`` times, each in a fresh
process (``setup_s`` is the median), and the last set-up goes on to the
timed phase, after which its answers are checked.  ``--trace 1`` runs a
fixed, seed-determined amount of work twice, untraced and then traced, and
reports the per-layer metrics from the traced run's spans plus the tracing
overhead.  Human-readable lines go first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

#: Fresh-process set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3
#: Every run must end within 180 s; children are stopped before this.
RUN_BUDGET_S = 170.0
#: BLAS / OpenMP pools are pinned to one thread in every launched process
#: (OpenBLAS would start nproc threads), so busy threads stay <= nproc.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Launcher:
    """Starts worker processes and reaps them (and their children) on every path."""

    def __init__(self, args, run_dir: Path, deadline: float):
        self.args = args
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **THREAD_ENV)
        self.live: Optional[subprocess.Popen] = None

    def run(self, mode: str, trace_out: Optional[Path] = None) -> Dict[str, Any]:
        """Run one worker to completion and return the result it wrote."""
        stderr_path = self.run_dir / f"{mode}-{time.monotonic_ns()}.stderr"
        spawned_at = time.monotonic()
        command = [
            sys.executable, str(BENCH_DIR / "worker.py"), mode, self.args.workload,
            "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
            "--run-dir", str(self.run_dir), "--spawned-at", repr(spawned_at),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        with open(stderr_path, "w", encoding="utf-8") as stderr:
            # A new session makes the worker a process-group leader, so the
            # server it starts can be signalled together with it.
            self.live = subprocess.Popen(
                command, cwd=str(ROOT), env=self.env, stdout=stderr, stderr=stderr,
                start_new_session=True,
            )
            result_path = self.run_dir / f"{mode}-{self.live.pid}.json"
            try:
                code = self.live.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                self.reap()
                raise BenchError(f"{mode} worker exceeded the run budget; {tail(stderr_path)}")
            finally:
                self.reap()
        if code != 0:
            raise BenchError(f"{mode} worker exited with status {code}; {tail(stderr_path)}")
        if not result_path.is_file():
            raise BenchError(f"{mode} worker wrote no result; {tail(stderr_path)}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def reap(self) -> None:
        """SIGINT the worker's process group, then SIGKILL what is left."""
        proc, self.live = self.live, None
        if proc is None:
            return
        for sig, grace in ((signal.SIGINT, 10.0), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            end = time.monotonic() + grace
            while time.monotonic() < end:
                if proc.poll() is not None and not group_alive(proc.pid):
                    break
                time.sleep(0.05)
        proc.wait(timeout=10.0)


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def tail(path: Path, limit: int = 3000) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip()
    return f"worker output:\n{text[-limit:]}" if text else "no worker output"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Linearly interpolated percentile (NumPy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(count: int) -> float:
    """p95 when at least ten samples lie beyond it, else the median.

    Not p99: on ``serve`` the slowest ~1 % are operator requests queued
    behind the other client's operator request, a cluster whose size varies
    from run to run, so p99 jumps between its edge and its inside.  p95 lies
    within the operator class's bulk.  ``generate`` and ``train`` runs hold
    too few operations for a tail; one fixed quantile keeps their runs
    comparable whatever their operation counts.
    """
    return 95.0 if count >= 200 else 50.0


def end_to_end(results: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of one timed run plus its sibling set-ups."""
    final = results[-1]
    op_ms = final["op_ms"]
    q = tail_quantile(len(op_ms))
    # p99 is printed beside the metric when ten samples lie beyond it.
    p99 = f"; p99 {percentile(op_ms, 99.0):.4g} ms" if len(op_ms) >= 1000 else ""
    setups = [r["setup_s"] for r in results]
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups: "
                    + ", ".join(f"{s:.3f}" for s in setups)),
        "throughput_per_s": (final["work"] / final["steady_s"],
                             f"{final['work']} units in {final['steady_s']:.2f} s"),
        "latency_p50_ms": (statistics.median(op_ms), f"per {final['op_unit']}, n={len(op_ms)}"),
        "latency_tail_ms": (percentile(op_ms, q), f"p{q:.4g} per {final['op_unit']}, "
                            f"n={len(op_ms)}, {len(op_ms) - math.ceil(len(op_ms) * q / 100)} beyond{p99}"),
        "peak_rss_mb": (final["peak_rss_mb"], "VmHWM of the "
                        + ("server process" if final["op_unit"] == "request" else "workload process")),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def host_lines(spec: Dict[str, Any], workload: str) -> List[str]:
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {importlib.metadata.version(package)}")
        except importlib.metadata.PackageNotFoundError:
            versions.append(f"{package} missing")
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown (git failed)"
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.read_bytes())
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    return [
        f"# workload {workload}: {why}",
        f"# host: nproc={os.cpu_count()} python {platform.python_version()} "
        f"{' '.join(versions)} threads: {threads}",
        f"# commit {commit}, src digest {digest.hexdigest()[:12]}",
    ]


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:42s} {value:>14.6g} {unit:6s} {note}")


def verdict(result: Dict[str, Any], label: str) -> bool:
    """Print the correctness verdict of one worker; True when nothing failed."""
    share = result["failed"] / max(result["attempted"], 1)
    print(f"# {label}: {result['attempted']} attempted, {result['failed']} failed, "
          f"error_share {share:.4g}")
    for failure in result["failures"][:10]:
        print(f"#   FAILED {failure}")
    return result["failed"] == 0 and not result["failures"]


# ----------------------------------------------------------------------
def measure(spec, launcher: Launcher) -> Dict[str, Any]:
    results = [launcher.run("setup") for _ in range(SETUPS - 1)]
    results.append(launcher.run("measure"))
    final = results[-1]
    correct = verdict(final, "correctness (checked after the timed phase)")
    metrics = {}
    values = end_to_end(results)
    for metric in spec["end_to_end"]:
        value, note = values[metric["name"]]
        print_metric(metric["name"], value, metric["unit"], note)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": correct, "attempted": final["attempted"],
            "failed": final["failed"], "metrics": metrics}


def trace(spec, launcher: Launcher, args) -> Dict[str, Any]:
    sys.path.insert(0, str(BENCH_DIR))
    from tracer import steady_by_phase, steady_by_request, summarize

    base = launcher.run("fixed")
    span_path = launcher.run_dir / "spans.json"
    traced = launcher.run("fixed", trace_out=span_path)
    raw = json.loads(span_path.read_text(encoding="utf-8"))["spans"]
    if args.workload == "serve":
        values = summarize(raw, steady_by_request, traced["client_latency"])
        for kind, info in base["classes"].items():
            values[f"requests.{kind}.latency_p50_ms"] = info["latency_p50_ms"]
            values[f"requests.{kind}.count"] = info["count"]
        hits, misses = traced["cache"]["hits"], traced["cache"]["misses"]
        values["api.session.cache_hits"] = hits
        values["api.session.cache_misses"] = misses
        values["api.session.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    else:
        values = summarize(raw, steady_by_phase)

    untraced_rate = base["work"] / base["steady_s"]
    traced_rate = traced["work"] / traced["steady_s"]
    values["tracing.throughput_delta_pct"] = 100.0 * (traced_rate - untraced_rate) / untraced_rate
    print(f"# spans recorded: {len(raw)}; per-layer values below come from the traced run, "
          "request classes from the untraced one; 0 marks a layer this workload bypasses")
    print("# tracing overhead (traced minus untraced, same fixed work):")
    base_e2e, traced_e2e = end_to_end([base]), end_to_end([traced])
    for name in (metric["name"] for metric in spec["end_to_end"]):
        delta = traced_e2e[name][0] - base_e2e[name][0]
        print(f"#   {name:18s} untraced {base_e2e[name][0]:12.6g}  traced "
              f"{traced_e2e[name][0]:12.6g}  delta {delta:+.6g}")
    correct = verdict(base, "correctness, untraced pass") & verdict(traced, "correctness, traced pass")
    metrics = {}
    for metric in spec["per_layer"]:
        value = float(values.get(metric["name"], 0.0))
        print_metric(metric["name"], value, metric["unit"])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": correct, "attempted": base["attempted"] + traced["attempted"],
            "failed": base["failed"] + traced["failed"], "metrics": metrics}


def _interrupt(_signum, _frame) -> None:
    """SIGTERM unwinds like Ctrl-C, so ``main``'s finally block reaps the children."""
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["serve", "generate", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    signal.signal(signal.SIGTERM, _interrupt)
    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(args, run_dir, deadline)
    try:
        for line in host_lines(spec, args.workload):
            print(line)
        if args.workload == "serve":
            launcher.run("prepare")
        summary = trace(spec, launcher, args) if args.trace else measure(spec, launcher)
    except (BenchError, KeyboardInterrupt) as error:
        print(f"error: {error or 'interrupted'}", file=sys.stderr)
        return 1
    finally:
        launcher.reap()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
