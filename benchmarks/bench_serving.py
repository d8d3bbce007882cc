"""Serving-subsystem benchmarks: closed-loop load against the engine.

Measures what the thermal inference service actually delivers under
concurrent load, for the exact (fvm) and learned (operator) backends:

* requests/sec of the served fvm path (pooled block basis, one request at
  a time) versus the per-request baseline without the serving subsystem (a
  fresh solver per request — the cost model a naive one-shot CLI
  deployment would pay), with the acceptance bar of >= 5x;
* closed-loop p50/p95/p99 latency alongside requests/sec with a pool of
  synchronous clients, the numbers a load balancer in front of
  ``repro-thermal serve`` would see;
* deadline shedding under a synthetic backlog of concurrent callers;
* the telemetry overhead datapoint: the same fvm workload with the full
  observability pipeline live (event bus + subscriber + metrics sampler)
  versus telemetry disabled, with the acceptance bar that the pipeline
  costs < 3% of throughput.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api.session import DeadlineExceeded, ThermalSession
from repro.chip.designs import get_chip
from repro.data.generation import DatasetSpec, generate_dataset
from repro.operators.factory import build_operator, save_operator
from repro.serving.backends import build_backends
from repro.serving.engine import MicroBatchEngine
from repro.serving.request import ThermalRequest
from repro.solvers.fvm import FVMSolver
from repro.training.trainer import Trainer, TrainingConfig

#: Service-shaped workload: one chip, one resolution, many power maps.
RESOLUTION = 32
TOTAL_REQUESTS = 64
CLIENTS = 16

#: Deadline-shedding workload (see test_serving_deadline_shedding): a
#: backlog of concurrent callers far deeper than the latency budget can
#: drain.  The budget itself is derived from the machine's own unshed drain
#: time (floored here) so the overload crosses it on fast and slow hosts
#: alike.
SHED_BACKLOG = 48
SHED_MIN_DEADLINE_MS = 10.0


def _requests(count, backend="fvm", chip="chip1", offset=0):
    # Every request gets a unique power map: identical queries would be
    # answered by the session result cache and the benchmark would measure
    # dictionary lookups instead of stacked-RHS solving.
    return [
        ThermalRequest.create(
            chip,
            total_power_W=40.0 + 0.1 * (offset + i),
            resolution=RESOLUTION,
            backend=backend,
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def trained_model_path(tmp_path_factory):
    """A small SAU-FNO-family surrogate for the operator-backend benches."""
    dataset = generate_dataset(
        DatasetSpec(chip_name="chip1", resolution=RESOLUTION, num_samples=16, seed=11)
    )
    model = build_operator(
        "fno",
        dataset.num_input_channels,
        dataset.num_output_channels,
        {"width": 16, "modes1": 8, "modes2": 8},
        np.random.default_rng(0),
    )
    trainer = Trainer(model, TrainingConfig(epochs=2, batch_size=8, seed=0))
    trainer.fit(dataset)
    path = tmp_path_factory.mktemp("serving_models") / "fno_chip1.npz"
    save_operator(
        model,
        str(path),
        input_normalizer=trainer.input_normalizer,
        output_normalizer=trainer.output_normalizer,
        chip_name=dataset.chip_name,
        resolution=dataset.resolution,
    )
    return str(path)


def test_serving_fvm_unbatched_baseline(benchmark):
    """Per-request cost without the serving subsystem: a fresh solver
    (voxelise + assemble + factorise) for every query."""
    request = _requests(1)[0]
    chip = get_chip("chip1")
    field = benchmark(lambda: FVMSolver(chip, nx=RESOLUTION).solve(request.assignment))
    assert field.max_K > 300.0


def test_serving_fvm_microbatch_throughput(benchmark):
    """The acceptance measurement: 64 sequential queries answered through
    the engine and one pooled block basis, against the per-request baseline
    without the serving subsystem measured alongside.  Requires >= 5x."""
    chip = get_chip("chip1")
    requests = _requests(TOTAL_REQUESTS)

    cold_rounds = 5
    start = time.perf_counter()
    for index in range(cold_rounds):
        FVMSolver(chip, nx=RESOLUTION).solve(requests[index].assignment)
    cold_per_request = (time.perf_counter() - start) / cold_rounds

    elapsed = {}

    def run():
        with MicroBatchEngine(build_backends()) as engine:
            begin = time.perf_counter()
            results = [engine.solve(r, timeout=300) for r in requests]
            elapsed["seconds"] = time.perf_counter() - begin
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert len(results) == TOTAL_REQUESTS

    served_per_request = elapsed["seconds"] / TOTAL_REQUESTS
    speedup = cold_per_request / served_per_request
    benchmark.extra_info["cold_seconds_per_request"] = cold_per_request
    benchmark.extra_info["served_seconds_per_request"] = served_per_request
    benchmark.extra_info["requests_per_second"] = 1.0 / served_per_request
    benchmark.extra_info["served_vs_cold_speedup"] = speedup
    # Acceptance bar: served answers >= 5x the per-request baseline.
    # Timing assertions are meaningless in --benchmark-disable smoke runs on
    # loaded machines, so they only gate real benchmark runs.
    if not benchmark.disabled:
        assert speedup >= 5.0

    # The served answers are the exact solver's answers.
    reference = FVMSolver(chip, nx=RESOLUTION).solve(requests[0].assignment)
    assert abs(results[0].max_K - reference.max_K) <= 1e-9


def _closed_loop(engine, backend, clients=CLIENTS, per_client=4):
    """Each client thread issues sequential requests; returns engine stats."""
    def client(index):
        # Per-client offsets keep every power map unique across the clients —
        # see _requests on why duplicates must not reach the benchmark.
        for request in _requests(per_client, backend=backend,
                                 offset=1 + index * per_client):
            engine.solve(request, timeout=300)

    with ThreadPoolExecutor(max_workers=clients) as pool:
        list(pool.map(client, range(clients)))
    return engine.stats()


def _overload_round(deadline_ms, session, power_base):
    """Drain one synthetic-overload backlog; returns (latencies_s, shed).

    ``SHED_BACKLOG`` threads call the engine together; with a
    ``deadline_ms`` budget, requests whose budget is spent before they are
    solved are shed (their calls raise
    :class:`~repro.api.session.DeadlineExceeded`) instead of solved.
    """
    requests = [
        ThermalRequest.create(
            "chip1",
            total_power_W=power_base + 0.1 * index,
            resolution=RESOLUTION,
            deadline_ms=deadline_ms,
        )
        for index in range(SHED_BACKLOG)
    ]
    latencies, shed = [], 0
    with MicroBatchEngine(build_backends(session=session)) as engine, \
            ThreadPoolExecutor(max_workers=SHED_BACKLOG) as pool:
        futures = [pool.submit(engine.solve, request, 300) for request in requests]
        for future in futures:
            try:
                latencies.append(future.result(timeout=300).latency_seconds)
            except DeadlineExceeded:
                shed += 1
    return latencies, shed


def test_serving_deadline_shedding(benchmark):
    """Acceptance: under synthetic overload, deadline shedding keeps the p99
    of *answered* requests bounded near the latency budget, while the same
    backlog without deadlines drags its tail out to the full drain time.
    Sheds requests whose budget was spent waiting; never a solved one.
    """
    session = ThermalSession()
    # Warm the pooled block basis so both rounds measure steady-state
    # queue drain, not the first-hit prepare cost.
    session.solve("chip1", 40.0, resolution=RESOLUTION)
    outcome = {}

    def run_rounds():
        # The unshed round first: its worst queueing latency is the drain
        # time of this backlog on this machine, and 40% of it makes a
        # budget the backlog is guaranteed to overrun.
        # Distinct power bases per round: identical cases would let the
        # second round answer from the session result cache and drain
        # instantly, never stressing the deadline.
        outcome["off"] = _overload_round(None, session, power_base=60.0)
        deadline_ms = max(
            SHED_MIN_DEADLINE_MS, 0.4 * 1e3 * max(outcome["off"][0])
        )
        outcome["deadline_ms"] = deadline_ms
        outcome["on"] = _overload_round(deadline_ms, session, power_base=200.0)
        return outcome

    benchmark.pedantic(run_rounds, rounds=1, iterations=1, warmup_rounds=0)
    latencies_off, shed_off = outcome["off"]
    latencies_on, shed_on = outcome["on"]
    deadline_ms = outcome["deadline_ms"]
    assert shed_off == 0 and len(latencies_off) == SHED_BACKLOG
    assert len(latencies_on) + shed_on == SHED_BACKLOG  # zero hung callers
    p99_off = float(np.percentile(latencies_off, 99)) * 1e3
    p99_on = float(np.percentile(latencies_on, 99)) * 1e3 if latencies_on else 0.0
    benchmark.extra_info["backlog"] = SHED_BACKLOG
    benchmark.extra_info["deadline_ms"] = deadline_ms
    benchmark.extra_info["shed"] = shed_on
    benchmark.extra_info["answered"] = len(latencies_on)
    benchmark.extra_info["p99_ms_shedding_off"] = p99_off
    benchmark.extra_info["p99_ms_shedding_on"] = p99_on
    # Timing assertions are meaningless in --benchmark-disable smoke runs on
    # loaded machines, so they only gate real benchmark runs.
    if not benchmark.disabled:
        assert shed_on > 0, "the overload never crossed the latency budget"
        assert latencies_on, "shedding must answer the in-budget head of the queue"
        assert p99_on < p99_off, (
            f"shedding p99 {p99_on:.0f}ms did not beat unshed p99 {p99_off:.0f}ms"
        )
        # Bounded tail: answered requests stayed within budget plus one
        # solve (the request in flight when the budget expired), read off
        # the unshed round's fastest answer, which waited for nothing.
        assert p99_on <= deadline_ms + 1e3 * min(latencies_off)


#: Alternating measurement rounds per configuration for the telemetry
#: overhead datapoint; best-of keeps a background hiccup in one round from
#: deciding a sub-3% comparison.
TELEMETRY_ROUNDS = 3


def _telemetry_round(session, with_telemetry, offset):
    """One sequential fvm round; returns requests/sec (telemetry on or off).

    The "on" configuration is the full pipeline a real deployment pays for:
    an :class:`~repro.obs.EventBus` attached to the engine, a live
    subscriber draining the stream, and the :class:`~repro.obs.Telemetry`
    sampler ticking at 50 ms against the engine's stats snapshot.
    """
    from repro.obs import EventBus, Telemetry

    bus = EventBus() if with_telemetry else None
    engine = MicroBatchEngine(build_backends(session=session), events=bus)
    telemetry = subscription = None
    if with_telemetry:
        subscription = bus.subscribe()
        telemetry = Telemetry(bus=bus, interval_s=0.05)
        telemetry.start(engine.stats)
    requests = _requests(TOTAL_REQUESTS, offset=offset)
    with engine:
        begin = time.perf_counter()
        results = [engine.solve(request, timeout=300) for request in requests]
        elapsed = time.perf_counter() - begin
    assert len(results) == TOTAL_REQUESTS
    if with_telemetry:
        telemetry.stop()
        delivered = subscription.drain()
        subscription.close()
        # The pipeline really ran: per-request events reached the subscriber
        # and every answer carries its trace spans.
        assert sum(e.kind == "request_done" for e in delivered) == TOTAL_REQUESTS
        assert all(r.provenance["trace"]["trace_id"] for r in results)
    else:
        assert bus is None
    return TOTAL_REQUESTS / elapsed


def test_serving_telemetry_overhead(benchmark):
    """Acceptance: the full telemetry pipeline (typed events to a live
    subscriber, 50 ms metrics sampling, per-request tracing) costs < 3% of
    served fvm throughput versus the same engine with telemetry
    disabled.  Rounds alternate off/on so drift hits both configurations."""
    session = ThermalSession()
    # Warm the pooled block basis once: both configurations must measure
    # steady-state serving, not the first-hit prepare cost.
    session.solve("chip1", 39.5, resolution=RESOLUTION)
    rps = {False: [], True: []}

    def run_rounds():
        for round_index in range(TELEMETRY_ROUNDS):
            for with_telemetry in (False, True):
                offset = 1000 * round_index + 500 * with_telemetry
                rps[with_telemetry].append(
                    _telemetry_round(session, with_telemetry, offset)
                )
        return rps

    benchmark.pedantic(run_rounds, rounds=1, iterations=1, warmup_rounds=0)
    rps_off = max(rps[False])
    rps_on = max(rps[True])
    overhead = 1.0 - rps_on / rps_off
    benchmark.extra_info["rps_telemetry_off"] = rps_off
    benchmark.extra_info["rps_telemetry_on"] = rps_on
    benchmark.extra_info["telemetry_overhead_fraction"] = overhead
    # Timing assertions are meaningless in --benchmark-disable smoke runs on
    # loaded machines, so they only gate real benchmark runs.
    if not benchmark.disabled:
        assert overhead < 0.03, (
            f"telemetry pipeline costs {overhead:.1%} of throughput (bar: 3%)"
        )


@pytest.mark.parametrize("backend", ["fvm", "operator"])
def test_serving_closed_loop_latency(benchmark, backend, trained_model_path):
    """Closed-loop load (16 clients): requests/sec and p50/p95/p99 per backend."""
    engine = MicroBatchEngine(build_backends(model_paths=[trained_model_path]))
    with engine:
        # Warm the pooled block basis / model once so the benchmark sees
        # steady-state serving, not the first-hit prepare cost.
        engine.solve(_requests(1, backend=backend)[0], timeout=300)
        stats = benchmark.pedantic(
            lambda: _closed_loop(engine, backend), rounds=1, iterations=1, warmup_rounds=0
        )
    summary = stats["backends"][backend]
    benchmark.extra_info["requests"] = summary["requests"]
    benchmark.extra_info["latency_ms_p50"] = summary["latency_ms"]["p50"]
    benchmark.extra_info["latency_ms_p95"] = summary["latency_ms"]["p95"]
    benchmark.extra_info["latency_ms_p99"] = summary["latency_ms"]["p99"]
    benchmark.extra_info["throughput_rps"] = stats["throughput_rps"]
    assert summary["requests"] == CLIENTS * 4 + 1
    assert summary["errors"] == 0
