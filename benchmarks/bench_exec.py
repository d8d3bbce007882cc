"""Execution-plane benchmarks: serial vs process scaling of the solve layers.

Measures what the :mod:`repro.runtime` refactor actually buys on this host,
for the two workloads it unified:

* **dataset generation** — the same fvm dataset generated through a warm
  :class:`~repro.runtime.plane.SerialPlane` (the historical single-core
  pipeline) and a warm :class:`~repro.runtime.plane.ProcessPlane`, with the
  acceptance bar that 4 process workers deliver >= 1.7x the serial
  throughput on a multi-core host (skipped below 4 cores — a process plane
  cannot beat serial without cores to run on) and that the outputs are
  bitwise-identical both to each other and to the seed batched pipeline;
* **serving** — a closed-loop mixed-chip fvm load through the serving
  engine with the session solving inline vs on a process plane.  The
  engine runs one solve at a time either way, so this records the plane's
  dispatch overhead per request.

Both benches run (with tiny shapes) under ``--benchmark-disable`` so the
process path is exercised on every smoke run; full runs save their numbers
to a local, untracked JSON file.  ``perfbench/`` is the benchmark of record.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api.session import ThermalSession
from repro.chip.designs import get_chip
from repro.data.generation import DatasetSpec, generate_dataset
from repro.data.power import PowerSampler
from repro.runtime import ProcessPlane, SerialPlane
from repro.serving.backends import build_backends
from repro.serving.engine import MicroBatchEngine
from repro.serving.request import ThermalRequest
from repro.solvers.fvm import FVMSolver

#: Dataset-generation acceptance bar: 4 process workers vs serial.
GENERATION_SPEEDUP_BAR = 1.7
GENERATION_WORKERS = 4

#: Serving workload shape (closed loop, mixed chips).
SERVING_CLIENTS = 8
SERVING_PER_CLIENT = 6


def _seed_pipeline(spec, batch_size):
    """The pre-plane generation loop: one solver, batches answered from its
    block basis.

    Re-implemented here verbatim so the bench can assert the plane-refactored
    ``generate_dataset`` still reproduces the seed pipeline bitwise.
    """
    chip = get_chip(spec.chip_name)
    rng = np.random.default_rng(spec.seed)
    sampler = PowerSampler(
        chip, core_bias=spec.core_bias, idle_probability=spec.idle_probability
    )
    solver = FVMSolver(chip, nx=spec.resolution, cells_per_layer=spec.cells_per_layer)
    cases = sampler.sample_many(spec.num_samples, rng)
    inputs, targets = [], []
    for start in range(0, spec.num_samples, batch_size):
        batch = cases[start:start + batch_size]
        maps = solver.solve_layer_maps([case.assignment for case in batch])
        for case, case_maps in zip(batch, maps):
            inputs.append(sampler.rasterize(case, solver.nx, solver.ny))
            targets.append(case_maps)
    return np.stack(inputs), np.stack(targets)


def _timed_generation(spec, plane, batch_size):
    begin = time.perf_counter()
    dataset = generate_dataset(spec, batch_size=batch_size, plane=plane)
    return dataset, time.perf_counter() - begin


def test_dataset_generation_process_scaling(benchmark):
    """The acceptance measurement: fvm dataset generation through a warm
    4-worker ProcessPlane vs the warm SerialPlane, plus the bitwise
    invariants (process == serial == seed pipeline)."""
    smoke = benchmark.disabled
    resolution = 16 if smoke else 48
    samples = 16 if smoke else 128
    batch_size = 4 if smoke else 8
    workers = 2 if smoke else GENERATION_WORKERS
    spec = DatasetSpec(chip_name="chip1", resolution=resolution,
                       num_samples=samples, seed=0)
    warm_spec = DatasetSpec(chip_name="chip1", resolution=resolution,
                            num_samples=2 * workers * batch_size, seed=99)

    results = {}

    def run_curve():
        serial = SerialPlane()
        generate_dataset(warm_spec, batch_size=batch_size, plane=serial)  # warm basis
        results["serial"], results["serial_s"] = _timed_generation(
            spec, serial, batch_size
        )
        with ProcessPlane(workers=workers) as plane:
            # Warm every worker's block basis and the import machinery so
            # the measurement sees steady-state throughput, not spawn cost.
            generate_dataset(warm_spec, batch_size=batch_size, plane=plane)
            results["process"], results["process_s"] = _timed_generation(
                spec, plane, batch_size
            )
        return results

    benchmark.pedantic(run_curve, rounds=1, iterations=1, warmup_rounds=0)

    serial, process = results["serial"], results["process"]
    assert np.array_equal(serial.inputs, process.inputs)
    assert np.array_equal(serial.targets, process.targets)
    seed_inputs, seed_targets = _seed_pipeline(spec, batch_size)
    assert np.array_equal(serial.inputs, seed_inputs)
    assert np.array_equal(serial.targets, seed_targets)

    speedup = results["serial_s"] / results["process_s"]
    benchmark.extra_info["resolution"] = resolution
    benchmark.extra_info["samples"] = samples
    benchmark.extra_info["process_workers"] = workers
    benchmark.extra_info["serial_cases_per_second"] = samples / results["serial_s"]
    benchmark.extra_info["process_cases_per_second"] = samples / results["process_s"]
    benchmark.extra_info["process_vs_serial_speedup"] = speedup
    # Acceptance bar: >= 1.7x with 4 workers — only meaningful on a host
    # with the cores to run them, and only on real (timed) benchmark runs.
    if not benchmark.disabled and (os.cpu_count() or 1) >= GENERATION_WORKERS:
        assert speedup >= GENERATION_SPEEDUP_BAR, (
            f"{workers} process workers delivered only {speedup:.2f}x over serial"
        )


def _closed_loop_round(plane, resolution):
    """One closed-loop mixed-chip fvm round; returns (rps, answers)."""
    session = ThermalSession(plane=plane)
    engine = MicroBatchEngine(build_backends(session=session))
    chips = ("chip1", "chip2")
    with engine:
        for chip in chips:  # warm the factorisations out of the measurement
            engine.solve(
                ThermalRequest.create(chip, total_power_W=39.0, resolution=resolution),
                timeout=300,
            )

        def client(index):
            answers = []
            for step in range(SERVING_PER_CLIENT):
                request = ThermalRequest.create(
                    chips[index % len(chips)],
                    total_power_W=40.0 + index + 0.01 * step,
                    resolution=resolution,
                )
                answers.append(engine.solve(request, timeout=300))
            return answers

        begin = time.perf_counter()
        with ThreadPoolExecutor(max_workers=SERVING_CLIENTS) as pool:
            answers = [a for batch in pool.map(client, range(SERVING_CLIENTS)) for a in batch]
        elapsed = time.perf_counter() - begin
    return len(answers) / elapsed, answers


def test_serving_process_plane_throughput(benchmark):
    """Serving throughput with the session solving inline vs on a process
    plane, same closed-loop mixed-chip fvm load; answers must be bitwise
    equal.  The scaling win needs spare cores, so only the numbers (not a
    bar) are recorded — capacity planning reads them from the trajectory."""
    smoke = benchmark.disabled
    resolution = 12 if smoke else 32
    workers = 2 if smoke else GENERATION_WORKERS

    results = {}

    def run_curve():
        results["inline_rps"], results["inline"] = _closed_loop_round(None, resolution)
        with ProcessPlane(workers=workers) as plane:
            session = ThermalSession(plane=plane)
            with MicroBatchEngine(build_backends(session=session)) as engine:
                engine.solve(  # spawn + import + first factorisation
                    ThermalRequest.create("chip1", total_power_W=39.0,
                                          resolution=resolution),
                    timeout=300,
                )
            results["plane_rps"], results["plane"] = _closed_loop_round(plane, resolution)
        return results

    benchmark.pedantic(run_curve, rounds=1, iterations=1, warmup_rounds=0)

    # Pair answers by the (unique) power each request carried, then compare
    # elementwise: a set comparison could not catch answers cross-wired
    # between concurrent clients.
    def paired(answers):
        ordered = sorted(answers, key=lambda a: a.total_power_W)
        assert len({a.total_power_W for a in ordered}) == len(ordered)
        return [a.max_K for a in ordered]

    assert paired(results["inline"]) == paired(results["plane"])  # bitwise

    benchmark.extra_info["resolution"] = resolution
    benchmark.extra_info["process_workers"] = workers
    benchmark.extra_info["inline_rps"] = results["inline_rps"]
    benchmark.extra_info["process_plane_rps"] = results["plane_rps"]
    benchmark.extra_info["plane_vs_inline_speedup"] = (
        results["plane_rps"] / results["inline_rps"]
    )
