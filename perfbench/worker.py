"""One benchmark process: set up a workload, run it, check the answers.

``run.py`` starts a fresh process of this script for every set-up and every
timed run (with ``PYTHONPATH`` pointing at ``src/``).  Usage::

    worker.py MODE WORKLOAD --seed N --seconds S --run-dir DIR --spawned-at T
              [--trace-out FILE]

MODE is ``prepare`` (serve only: write the request bodies and the operator
model file), ``setup`` (set up, report ``setup_s`` and exit), ``measure``
(set up, then run for ``--seconds``) or ``fixed`` (set up, then run a fixed,
seed-determined amount of work — the traced comparison).  ``--trace-out``
installs the span recorder and writes the spans there.  The result is one
JSON file, ``<run-dir>/<MODE>-<pid>.json``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent

CHIPS = ("chip1", "chip2", "chip3")

# serve ----------------------------------------------------------------
SERVE_RESOLUTIONS = (32, 48)
OPERATOR_CHIP, OPERATOR_RESOLUTION = "chip1", 32
#: Request classes and how many of every 20 requests each gets (65/25/10 %).
#: Classes, and fvm geometries, are dealt from shuffled bags, so every seed
#: sends the same mix and only the order and the powers vary.
CLASS_BAG = (("fvm", 13), ("cached", 5), ("operator", 2))
#: A repeat re-sends one of the client's last this-many fresh fvm bodies.
REPEAT_WINDOW = 32
CLIENTS = 2
#: At least this many answers per timed run, so 50 lie beyond its p95.
MIN_REQUESTS = 1000
#: Requests per client per second of ``--seconds`` in the fixed-work pass.
FIXED_REQUESTS_PER_S = 30
REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
#: Tolerances of the correctness gate.  fvm: the serving exactness bar
#: (kernel swaps move answers by ~1e-9 K, a wrong or mis-cached answer by
#: kelvins).  operator: leaves room for float32 inference and batch-shape
#: rounding; two different power maps differ by ~1 K on this model.
FVM_TOLERANCE_K = 1e-3
OPERATOR_TOLERANCE_K = 1e-2
#: Fresh fvm answers re-solved per run; every cached answer is re-solved.
FVM_CHECK_SAMPLE = 48

# generate -------------------------------------------------------------
GENERATE_RESOLUTION = 48
GENERATE_CASES = 128
#: Target tolerance: the documented float32 single-sweep bound for
#: training data (``FLOAT32_SINGLE_SWEEP_BOUND_K``).
GENERATE_TOLERANCE_K = 5e-2
#: Full chip rotations (3 datasets each) per 10 s of the fixed-work pass.
FIXED_ROTATIONS_PER_10S = 2

# train ----------------------------------------------------------------
TRAIN_CHIP, TRAIN_RESOLUTION, TRAIN_CASES, TRAIN_BATCH = "chip1", 40, 32, 4


def derive_seed(*parts: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a stream label."""
    import numpy as np

    return int(np.random.SeedSequence([part % (1 << 64) for part in parts]).generate_state(1)[0])


def vmhwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


# ======================================================================
# serve
# ======================================================================
def prepare_serve(args) -> Dict[str, Any]:
    """Write the operator model file and every request body (untimed)."""
    import numpy as np

    from repro.chip.designs import get_chip
    from repro.data.generation import DatasetSpec, generate_dataset
    from repro.data.power import PowerSampler
    from repro.evaluation.config import get_scale
    from repro.operators.factory import build_operator, save_operator

    data = generate_dataset(
        DatasetSpec(OPERATOR_CHIP, OPERATOR_RESOLUTION, 8, seed=derive_seed(args.seed, 1))
    )
    model = build_operator(
        "sau_fno", data.num_input_channels, data.num_output_channels,
        get_scale("tiny").model.as_dict(), np.random.default_rng(derive_seed(args.seed, 2)),
    )
    input_normalizer, output_normalizer = data.fit_normalizers()
    model_path = str(Path(args.run_dir) / "sau_fno_tiny.npz")
    save_operator(model, model_path, input_normalizer, output_normalizer,
                  chip_name=OPERATOR_CHIP, resolution=OPERATOR_RESOLUTION)

    samplers = {name: PowerSampler(get_chip(name)) for name in CHIPS}
    warm_rng = np.random.default_rng(derive_seed(args.seed, 3))
    warmup = [
        {"chip": chip, "resolution": resolution, "request_id": f"warm-{chip}-{resolution}",
         "powers": samplers[chip].sample(warm_rng).assignment}
        for chip in CHIPS for resolution in SERVE_RESOLUTIONS
    ]
    warmup.append({"chip": OPERATOR_CHIP, "resolution": OPERATOR_RESOLUTION,
                   "backend": "operator", "request_id": "warm-operator",
                   "powers": samplers[OPERATOR_CHIP].sample(warm_rng).assignment})

    # Enough bodies for the longest timed phase (3x --seconds at 200 req/s).
    per_client = int(3 * args.seconds * 200 / CLIENTS)
    class_bag = [name for name, count in CLASS_BAG for _ in range(count)]
    geometry_bag = [(chip, resolution) for chip in CHIPS for resolution in SERVE_RESOLUTIONS]
    clients = []
    for client in range(CLIENTS):
        rng = np.random.default_rng(derive_seed(args.seed, 4, client))
        kinds, geometries = _dealer(class_bag, rng), _dealer(geometry_bag, rng)
        bodies: List[list] = []
        recent: List[dict] = []
        for index in range(per_client):
            kind = next(kinds)
            rid = f"c{client}-{index}"
            if kind == "cached" and recent:
                body = dict(recent[int(rng.integers(len(recent)))], request_id=rid)
            elif kind == "operator":
                body = {"chip": OPERATOR_CHIP, "resolution": OPERATOR_RESOLUTION,
                        "backend": "operator", "request_id": rid,
                        "powers": samplers[OPERATOR_CHIP].sample(rng).assignment}
            else:
                kind = "fvm"
                chip, resolution = next(geometries)
                body = {"chip": chip, "request_id": rid, "resolution": resolution,
                        "powers": samplers[chip].sample(rng).assignment}
                recent = (recent + [body])[-REPEAT_WINDOW:]
            bodies.append([kind, body])
        clients.append(bodies)
    fixtures = {"model": model_path, "warmup": warmup, "clients": clients}
    with open(Path(args.run_dir) / "serve_fixtures.json", "w", encoding="utf-8") as handle:
        json.dump(fixtures, handle)
    return {}


def _dealer(bag: list, rng):
    """Endless stream of ``bag``'s items, reshuffled after every pass."""
    while True:
        for index in rng.permutation(len(bag)):
            yield bag[index]


class ServerProcess:
    """``repro-thermal serve`` in its own process, reaped on every path."""

    def __init__(self, model_path: str, run_dir: str, trace_out: Optional[str]):
        command = [sys.executable, str(BENCH_DIR / "serve_entry.py")]
        if trace_out:
            command += ["--trace-out", trace_out]
        command += ["--port", "0", "--model", model_path]
        self.stderr_path = Path(run_dir) / f"server-{os.getpid()}.stderr"
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.trace_out = trace_out
        self.spawned_at = time.monotonic()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, text=True
        )
        self.url: Optional[str] = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()

    def _read_stdout(self) -> None:
        # Keep draining after boot so the server never blocks on a full pipe.
        for line in self.proc.stdout:
            if self.url is None and "listening on " in line:
                self.url = line.rsplit("listening on ", 1)[1].strip()
                self._ready.set()
        self._ready.set()

    def wait_listening(self) -> str:
        if not self._ready.wait(BOOT_TIMEOUT_S) or self.url is None:
            raise RuntimeError(f"server did not come up: {self.stderr_tail()}")
        return self.url

    def dump_spans(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(self.trace_out):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"server wrote no spans: {self.stderr_tail()}")
            time.sleep(0.05)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
        self._reader.join(timeout=5.0)
        self._stderr.close()

    def stderr_tail(self) -> str:
        self._stderr.flush()
        return self.stderr_path.read_text(encoding="utf-8")[-2000:]


class Connection:
    """One keep-alive HTTP connection with a per-request timeout."""

    def __init__(self, url: str):
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)
        self.conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """``(status, decoded body)``; a transport error raises OSError/HTTPException."""
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        try:
            self.conn.request(method, path, payload, headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            # Reconnect for the next request; this one has failed.
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
            raise
        return response.status, json.loads(data)

    def close(self) -> None:
        self.conn.close()


def _client_loop(url: str, bodies: list, stop, records: list) -> None:
    connection = Connection(url)
    try:
        for index, (kind, body) in enumerate(bodies):
            if stop(index):
                return
            start = time.perf_counter()
            answer, error = None, None
            try:
                status, answer = connection.request("POST", "/solve", body)
                if status != 200:
                    error = f"HTTP {status}: {answer.get('error')}"
                elif answer.get("request_id") != body["request_id"]:
                    error = f"answer for {answer.get('request_id')} to {body['request_id']}"
            except (OSError, http.client.HTTPException, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            records.append({
                "kind": kind, "body": body, "start": start, "end": end, "error": error,
                "max_K": answer.get("max_K") if answer else None,
                "mean_K": answer.get("mean_K") if answer else None,
                "cached": bool(answer.get("cached")) if answer else False,
            })
    finally:
        connection.close()


def run_serve(args, mode: str) -> Dict[str, Any]:
    with open(Path(args.run_dir) / "serve_fixtures.json", encoding="utf-8") as handle:
        fixtures = json.load(handle)
    server = ServerProcess(fixtures["model"], args.run_dir, args.trace_out)
    result: Dict[str, Any] = {}
    try:
        url = server.wait_listening()
        control = Connection(url)
        for body in fixtures["warmup"]:
            status, answer = control.request("POST", "/solve", body)
            if status != 200:
                raise RuntimeError(f"warm-up request failed: HTTP {status} {answer}")
        result["setup_s"] = time.monotonic() - server.spawned_at
        if mode == "setup":
            control.close()
            return result

        _, stats_before = control.request("GET", "/stats")
        started = time.perf_counter()
        records: List[list] = [[] for _ in range(CLIENTS)]
        if mode == "fixed":
            limit = FIXED_REQUESTS_PER_S * args.seconds
            stop = lambda index: index >= limit
        else:
            deadline = started + args.seconds
            hard_deadline = started + 3 * args.seconds
            answered = lambda: sum(len(r) for r in records)

            def stop(_index):
                now = time.perf_counter()
                return now >= hard_deadline or (now >= deadline and answered() >= MIN_REQUESTS)

        threads = [
            threading.Thread(target=_client_loop, args=(url, fixtures["clients"][c], stop, records[c]))
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        steady_s = time.perf_counter() - started
        _, stats_after = control.request("GET", "/stats")
        control.close()
        result["peak_rss_mb"] = vmhwm_mb(server.proc.pid)
        if args.trace_out:
            server.dump_spans()
    finally:
        server.stop()

    flat = [record for client in records for record in client]
    cache_before = stats_before["session"]["result_cache"]
    cache_after = stats_after["session"]["result_cache"]
    failures = [f"{r['body']['request_id']}: {r['error']}" for r in flat if r["error"]]
    failures += check_serve(flat, fixtures["model"])
    result.update({
        "failed": len(failures),
        "steady_s": steady_s,
        "work": sum(1 for r in flat if r["error"] is None),
        "op_ms": [(r["end"] - r["start"]) * 1e3 for r in flat],
        "op_unit": "request",
        "attempted": len(flat),
        "failures": failures,
        "classes": {
            kind: {
                "count": sum(1 for r in flat if r["kind"] == kind),
                "latency_p50_ms": statistics.median(
                    [(r["end"] - r["start"]) * 1e3 for r in flat if r["kind"] == kind] or [0.0]
                ),
            }
            for kind, _ in CLASS_BAG
        },
        "cache": {
            "hits": cache_after["hits"] - cache_before["hits"],
            "misses": cache_after["misses"] - cache_before["misses"],
        },
        "client_latency": {r["body"]["request_id"]: r["end"] - r["start"] for r in flat},
    })
    return result


def check_serve(records: list, model_path: str) -> List[str]:
    """Re-solve a sample of fvm answers and every operator answer in-process."""
    import numpy as np

    from repro.chip.designs import get_chip
    from repro.data.power import rasterize_assignment
    from repro.operators.factory import load_operator
    from repro.solvers.fvm import FVMSolver

    failures: List[str] = []
    answered = [r for r in records if r["error"] is None]
    fresh = [r for r in answered if r["kind"] == "fvm"]
    # Every repeat is checked (a wrongly keyed cache shows there), plus an
    # evenly spaced sample of the fresh answers.
    checked = fresh[::max(1, len(fresh) // FVM_CHECK_SAMPLE)]
    checked += [r for r in answered if r["kind"] == "cached"]
    groups: Dict[tuple, list] = {}
    for record in checked:
        groups.setdefault((record["body"]["chip"], record["body"]["resolution"]), []).append(record)
    for (chip, resolution), group in sorted(groups.items()):
        # Single-RHS solves: an independent path from the server's batched one.
        solver = FVMSolver(get_chip(chip), nx=resolution)
        for record in group:
            field = solver.solve(record["body"]["powers"])
            failures += _compare(record, field.max_K, field.mean_K, FVM_TOLERANCE_K)

    surrogate = [r for r in answered if r["kind"] == "operator"]
    if surrogate:
        loaded = load_operator(model_path)
        chip = get_chip(OPERATOR_CHIP)
        inputs = np.stack([
            rasterize_assignment(chip, r["body"]["powers"], OPERATOR_RESOLUTION) for r in surrogate
        ]).astype(np.float32)
        maps = loaded.predict(inputs)
        for record, case_maps in zip(surrogate, maps):
            failures += _compare(record, case_maps.max(), case_maps.mean(), OPERATOR_TOLERANCE_K)
    return failures


def _compare(record: dict, max_K: float, mean_K: float, tolerance: float) -> List[str]:
    """One failure message when an answer's summary is off by more than ``tolerance``."""
    answer = (record["max_K"], record["mean_K"])
    if None in answer or max(abs(answer[0] - max_K), abs(answer[1] - mean_K)) > tolerance:
        return [f"{record['body']['request_id']}: answered max/mean {answer}, "
                f"expected {float(max_K):.6f}/{float(mean_K):.6f} K"]
    return []


# ======================================================================
# generate
# ======================================================================
def run_generate(args, mode: str, tracer) -> Dict[str, Any]:
    import numpy as np

    from repro.chip.designs import get_chip
    from repro.data import generation
    from repro.runtime.plane import SerialPlane

    chips = [get_chip(name) for name in CHIPS]
    plane = SerialPlane()
    # One small dataset per chip factorises it on the shared plane; the timed
    # datasets then reuse the warm solvers.
    for index, chip in enumerate(chips):
        generation.generate_dataset(
            generation.DatasetSpec(chip.name, GENERATE_RESOLUTION, 32, seed=derive_seed(args.seed, 90, index)),
            chip=chip, plane=plane,
        )
    result: Dict[str, Any] = {"setup_s": time.monotonic() - args.spawned_at}
    if mode == "setup":
        return result
    if tracer is not None:
        tracer.phase = "steady"

    rotations = max(1, FIXED_ROTATIONS_PER_10S * args.seconds // 10)
    pick = np.random.default_rng(derive_seed(args.seed, 91))
    op_ms, samples, failures = [], [], []
    work = attempted = failed = 0
    started = time.perf_counter()
    rotation = 0
    while True:
        # One operation is a rotation over the three chips: single datasets
        # differ by chip, so their median would jump between chips.
        begin = time.perf_counter()
        for index, chip in enumerate(chips):
            seed = derive_seed(args.seed, rotation, index)
            spec = generation.DatasetSpec(chip.name, GENERATE_RESOLUTION, GENERATE_CASES, seed=seed)
            attempted += GENERATE_CASES
            try:
                dataset = generation.generate_dataset(spec, chip=chip, plane=plane)
            except Exception as exc:  # noqa: BLE001 - a failed call counts, the run goes on
                failures.append(f"{chip.name} seed {seed}: {type(exc).__name__}: {exc}")
                failed += GENERATE_CASES
                continue
            work += GENERATE_CASES
            case = int(pick.integers(GENERATE_CASES))
            # Copies: a view would keep the whole dataset alive and inflate
            # peak_rss_mb with every rotation.
            samples.append((index, seed, case, dataset.inputs[case].copy(),
                            dataset.targets[case].copy()))
        op_ms.append((time.perf_counter() - begin) * 1e3)
        rotation += 1
        elapsed = time.perf_counter() - started
        if (rotation >= rotations) if mode == "fixed" else (elapsed >= args.seconds):
            break
    result.update({
        "steady_s": time.perf_counter() - started,
        "work": work,
        "op_ms": op_ms,
        "op_unit": "rotation of three 128-case datasets",
        "attempted": attempted,
        "peak_rss_mb": vmhwm_mb(os.getpid()),
    })
    if tracer is not None:
        tracer.phase = "check"
    wrong = check_generate(chips, samples)
    result.update(failures=failures + wrong, failed=failed + len(wrong))
    return result


def check_generate(chips, samples) -> List[str]:
    """Re-derive sampled cases from their seeds and re-solve them; one
    message per wrong case."""
    import numpy as np

    from repro.data.power import PowerSampler
    from repro.solvers.fvm import FVMSolver

    failures = []
    for index, chip in enumerate(chips):
        solver = FVMSolver(chip, nx=GENERATE_RESOLUTION)
        sampler = PowerSampler(chip)
        for _, seed, case, inputs, targets in (s for s in samples if s[0] == index):
            power_case = sampler.sample_many(GENERATE_CASES, np.random.default_rng(seed))[case]
            expected_inputs = sampler.rasterize(power_case, GENERATE_RESOLUTION)
            expected = solver.solve(power_case.assignment).power_layer_maps()
            error = float(np.max(np.abs(targets - expected)))
            if not np.array_equal(inputs, expected_inputs) or not error <= GENERATE_TOLERANCE_K:
                failures.append(f"{chip.name} seed {seed} case {case}: inputs equal "
                                f"{np.array_equal(inputs, expected_inputs)}, targets off by {error:.3g} K")
    return failures


# ======================================================================
# train
# ======================================================================
def run_train(args, mode: str, tracer) -> Dict[str, Any]:
    import numpy as np

    from repro.data.dataset import ThermalDataset
    from repro.data.generation import DatasetSpec, generate_dataset
    from repro.evaluation.config import get_scale
    from repro.operators.factory import build_operator
    from repro.training.trainer import Trainer, TrainingConfig

    class StampedDataset(ThermalDataset):
        """Time-stamps every batch handed to the trainer: the gap between two
        stamps is one training step (forward, loss, backward, optimiser
        step) plus fetching the next batch."""

        def batches(self, *a, **k):
            for batch in super().batches(*a, **k):
                self.stamps.append(time.perf_counter())
                yield batch
            self.stamps.append(time.perf_counter())

    scale = get_scale("tiny")
    base = generate_dataset(DatasetSpec(TRAIN_CHIP, TRAIN_RESOLUTION, TRAIN_CASES, seed=derive_seed(args.seed, 1)))
    data = StampedDataset(base.inputs, base.targets, base.chip_name, base.resolution)
    data.stamps = []
    model = build_operator("sau_fno", data.num_input_channels, data.num_output_channels,
                           scale.model.as_dict(), np.random.default_rng(derive_seed(args.seed, 2)))
    trainer = Trainer(model, TrainingConfig(
        epochs=1, batch_size=TRAIN_BATCH, learning_rate=scale.learning_rate,
        weight_decay=scale.weight_decay, seed=derive_seed(args.seed, 3),
    ))
    trainer.fit(data)  # the warm-up epoch
    result: Dict[str, Any] = {"setup_s": time.monotonic() - args.spawned_at}
    if mode == "setup":
        return result
    if tracer is not None:
        tracer.phase = "steady"

    # Whole epochs only: every fit() call re-seeds the shuffle, so each epoch
    # sees the same batches and the first and last epoch losses compare.
    step_ms: List[float] = []
    steps = 0
    epochs = max(1, args.seconds // 10)
    started = time.perf_counter()
    epoch = 0
    while True:
        data.stamps = []
        trainer.fit(data)
        step_ms += [(b - a) * 1e3 for a, b in zip(data.stamps, data.stamps[1:])]
        steps += len(data.stamps) - 1
        epoch += 1
        elapsed = time.perf_counter() - started
        if (epoch >= epochs) if mode == "fixed" else (elapsed >= args.seconds):
            break
    steady_s = time.perf_counter() - started
    losses = trainer.history.train_loss
    failures = []
    if not all(np.isfinite(losses)):
        failures.append(f"non-finite epoch loss in {losses}")
    elif not losses[-1] < losses[0]:
        failures.append(f"loss did not fall: first epoch {losses[0]:.4g}, last {losses[-1]:.4g}")
    work = steps * TRAIN_BATCH
    return dict(
        result, steady_s=steady_s, work=work, op_ms=step_ms, op_unit="training step",
        attempted=work, peak_rss_mb=vmhwm_mb(os.getpid()), failures=failures,
        failed=work if failures else 0,
    )


# ======================================================================
def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["prepare", "setup", "measure", "fixed"])
    parser.add_argument("workload", choices=["serve", "generate", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    if args.workload == "serve":
        # The serve worker is only the client; the server process is traced.
        result = prepare_serve(args) if args.mode == "prepare" else run_serve(args, args.mode)
    else:
        tracer = None
        if args.trace_out:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        runner = run_generate if args.workload == "generate" else run_train
        result = runner(args, args.mode, tracer)
        if tracer is not None:
            tracer.dump(args.trace_out)
    out = Path(args.run_dir) / f"{args.mode}-{os.getpid()}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
