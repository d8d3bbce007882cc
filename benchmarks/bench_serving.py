"""Serving-subsystem benchmarks: closed-loop load against the engine.

Measures what the thermal inference service actually delivers under
concurrent load, for the exact (fvm) and learned (operator) backends:

* requests/sec of the served fvm path (pooled block basis, one request at
  a time) versus the per-request baseline without the serving subsystem (a
  fresh solver per request — the cost model a naive one-shot CLI
  deployment would pay), with the acceptance bar of >= 5x;
* closed-loop p50/p95/p99 latency alongside requests/sec with a fleet of
  synchronous clients, the numbers a load balancer in front of
  ``repro-thermal serve`` would see;
* deadline shedding under a synthetic backlog of concurrent callers;
* the telemetry overhead datapoint: the same fvm workload with the full
  observability pipeline live (event bus + subscriber + metrics sampler)
  versus telemetry disabled, with the acceptance bar that the pipeline
  costs < 3% of throughput;
* the fleet-router datapoint: the same closed-loop fvm load direct against
  one CLI replica, through the router fronting that replica (acceptance:
  the proxy hop costs < 15% of throughput), and through the router
  fronting two replica processes (acceptance on multi-core hosts: >= 1.5x
  the single-replica routed throughput — the replicas are separate
  processes, so the fleet is how one host uses more than one core; see
  docs/CLUSTER.md).
"""

import os
import re
import select
import subprocess
import sys
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
        # Per-client offsets keep every power map unique across the fleet —
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
    # Warm the pooled factorisation so both rounds measure steady-state
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
    # Warm the pooled factorisation once: both configurations must measure
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


#: Fleet-router workload (see test_serving_router_scaling): a closed-loop
#: fvm load over four group keys, half owned by each replica when two are
#: up, so the routed fleet genuinely splits the work.
ROUTER_REQUESTS = 48
ROUTER_CLIENTS = 8
ROUTER_RESOLUTION = 24
#: Rounds per configuration; like TELEMETRY_ROUNDS, each configuration
#: takes its best round so one background hiccup on a shared box does not
#: decide the direct-vs-routed comparison.
ROUTER_ROUNDS = 3


def _boot_cli(argv):
    """One real ``repro-thermal`` subprocess; returns (process, url)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    ready, _, _ = select.select([process.stdout], [], [], 60)
    assert ready, f"{argv[0]} printed nothing within 60s"
    match = re.search(r"listening on (http://\S+)", process.stdout.readline())
    assert match, f"{argv[0]} did not announce its URL"
    return process, match.group(1)


def _router_keys(member_names):
    """Four (chip, resolution, backend) keys, two owned by each member."""
    from repro.cluster.hashing import owner

    per_owner = {name: [] for name in member_names}
    for resolution in range(ROUTER_RESOLUTION, ROUTER_RESOLUTION + 40, 2):
        for chip in ("chip1", "chip2", "chip3"):
            key = (chip, resolution, "fvm")
            name = owner(key, member_names)
            if len(per_owner[name]) < 2:
                per_owner[name].append(key)
        if all(len(keys) >= 2 for keys in per_owner.values()):
            return [key for keys in per_owner.values() for key in keys]
    raise AssertionError("candidate keys did not cover both replicas")


def _solve_via(client, key, power):
    chip, resolution, backend = key
    response = client.post_json("/solve", {
        "chip": chip, "resolution": resolution, "backend": backend,
        "total_power": power,
    })
    assert response.status == 200, response.body[:400]
    answer = response.json()
    assert answer["max_K"] > 300.0, answer
    return answer


def _router_round(base_url, keys, offset):
    """Closed-loop round against ``base_url``; returns requests/sec.

    The load generator holds persistent keep-alive connections (via the
    cluster's own pooled :class:`ReplicaClient`, what a production load
    balancer would do) so the round measures serving, not per-request TCP
    setup and handler-thread spawn.  Every request gets a unique power so
    nothing is answered by the replicas' result caches, and the keys
    rotate per request so every group key (hence, routed, every replica)
    stays busy.
    """
    from repro.cluster.proxy import ReplicaClient

    per_client = ROUTER_REQUESTS // ROUTER_CLIENTS
    http = ReplicaClient(base_url)

    def client(index):
        for position in range(per_client):
            serial = index * per_client + position
            _solve_via(http, keys[serial % len(keys)],
                       40.0 + 0.01 * (offset + serial))

    try:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=ROUTER_CLIENTS) as pool:
            list(pool.map(client, range(ROUTER_CLIENTS)))
        return ROUTER_REQUESTS / (time.perf_counter() - start)
    finally:
        http.close()


def test_serving_router_scaling(benchmark):
    """Acceptance (multi-core hosts): fronting one replica with the fleet
    router costs < 15% of direct throughput (the proxy is one local HTTP
    hop), and two replica processes behind the router deliver >= 1.5x the
    single-replica routed throughput (each replica is its own process, so
    the fleet sidesteps the GIL entirely)."""
    processes = []
    throughput = {}

    def best_of(base_url, keys, offset):
        return max(
            _router_round(base_url, keys, offset=offset + 100 * round_index)
            for round_index in range(ROUTER_ROUNDS)
        )

    def routed_best(replica_urls, keys, offset):
        # The router through the real CLI, in its own process like
        # production: colocated with the load generator it would measure
        # GIL convoying between client and handler threads, not the hop.
        router, router_url = _boot_cli([
            "route",
            *(arg for url in replica_urls for arg in ("--replica", url)),
            "--port", "0", "--probe-interval", "30",
        ])
        try:
            return best_of(router_url, keys, offset=offset)
        finally:
            router.kill()
            router.wait(timeout=10)

    try:
        process_a, url_a = _boot_cli(["serve", "--port", "0"])
        processes.append(process_a)
        process_b, url_b = _boot_cli(["serve", "--port", "0"])
        processes.append(process_b)
        names = [url.split("//", 1)[1].rstrip("/") for url in (url_a, url_b)]
        keys = _router_keys(names)

        def run_curve():
            from repro.cluster.proxy import ReplicaClient

            # Warm every key's pooled factorisation on both replicas so all
            # three rounds measure steady-state serving.
            for url in (url_a, url_b):
                warm = ReplicaClient(url)
                for key in keys:
                    _solve_via(warm, key, 39.0)
                warm.close()
            throughput["direct"] = best_of(url_a, keys, offset=0)
            throughput["routed_1"] = routed_best([url_a], keys, offset=1000)
            throughput["routed_2"] = routed_best([url_a, url_b], keys,
                                                 offset=2000)
            return throughput

        benchmark.pedantic(run_curve, rounds=1, iterations=1, warmup_rounds=0)
    finally:
        for process in processes:
            process.kill()
            process.wait(timeout=10)

    overhead = 1.0 - throughput["routed_1"] / throughput["direct"]
    scaling = throughput["routed_2"] / throughput["routed_1"]
    benchmark.extra_info["rps_direct"] = throughput["direct"]
    benchmark.extra_info["rps_routed_1_replica"] = throughput["routed_1"]
    benchmark.extra_info["rps_routed_2_replicas"] = throughput["routed_2"]
    benchmark.extra_info["proxy_overhead_fraction"] = overhead
    benchmark.extra_info["speedup_2_replicas"] = scaling
    # Timing assertions are meaningless in --benchmark-disable smoke runs on
    # loaded machines, so they only gate real benchmark runs.  Both bars
    # additionally need a second core: on a single core the router process
    # time-shares with the replica, so its per-request proxy work (~1-2 ms
    # of pure Python against a ~13 ms solve) is strictly additive and the
    # measurement is CPU contention, not the hop; same for the second
    # replica, which has no core to scale onto.
    if not benchmark.disabled and (os.cpu_count() or 1) >= 2:
        assert overhead < 0.15, (
            f"router proxy hop costs {overhead:.1%} of throughput (bar: 15%)"
        )
        assert scaling >= 1.5, (
            f"2 replicas deliver only {scaling:.2f}x one routed replica"
        )


@pytest.mark.parametrize("backend", ["fvm", "operator"])
def test_serving_closed_loop_latency(benchmark, backend, trained_model_path):
    """Closed-loop load (16 clients): requests/sec and p50/p95/p99 per backend."""
    engine = MicroBatchEngine(build_backends(model_paths=[trained_model_path]))
    with engine:
        # Warm the pooled factorisation / model once so the benchmark sees
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
