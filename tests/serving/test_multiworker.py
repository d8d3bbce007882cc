"""Multi-worker dispatch and the HTTP transient endpoint."""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api.session import ThermalSession
from repro.chip.designs import get_chip
from repro.serving.backends import build_backends
from repro.serving.engine import MicroBatchEngine
from repro.serving.request import (
    MAX_TRANSIENT_STEPS,
    ThermalRequest,
    TransientRequest,
)
from repro.serving.server import ThermalServer
from repro.solvers.fvm import FVMSolver

RES = 10  # small but large enough to resolve every chip's blocks


def _requests(count, chip="chip1", backend="fvm", base=20.0):
    return [
        ThermalRequest.create(chip, total_power_W=base + i, resolution=RES, backend=backend)
        for i in range(count)
    ]


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestMultiWorkerDispatch:
    def test_all_requests_answered_across_shards(self):
        session = ThermalSession()
        engine = MicroBatchEngine(
            build_backends(session=session), workers=3, max_wait_ms=1.0
        )
        requests = (
            _requests(4, "chip1") + _requests(4, "chip2") + _requests(4, "chip3")
            + _requests(2, "chip1", backend="hotspot")
        )
        with engine:
            results = engine.solve_many(requests, timeout=120)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert result.chip == request.chip
            assert result.backend == request.backend
            assert result.max_K > 300.0
        stats = engine.stats()
        assert stats["workers"] == 3
        assert len(stats["shard_queue_depths"]) == 3
        assert stats["total_requests"] == len(requests)

    def test_group_always_lands_on_the_same_shard(self):
        engine = MicroBatchEngine(build_backends(), workers=4)
        request = _requests(1)[0]
        shards = {engine._shard_of(request).index for _ in range(32)}
        assert len(shards) == 1

    def test_sharding_matches_solver_pool_granularity(self):
        """Detail-level variants of one (chip, resolution, backend) share a
        shard: the pooled prepared adapter must only ever be driven by one
        worker thread."""
        engine = MicroBatchEngine(build_backends(), workers=4)
        plain = ThermalRequest.create("chip1", total_power_W=20, resolution=RES)
        mapped = ThermalRequest.create(
            "chip1", total_power_W=20, resolution=RES, include_maps=True
        )
        assert plain.group_key != mapped.group_key  # still separate batches
        assert engine._shard_of(plain).index == engine._shard_of(mapped).index

    def test_single_worker_answers_are_bitwise_identical(self):
        """Acceptance: --workers 1 answers == the solver's batch-of-one
        answers exactly, and within 1e-9 K of direct back-substitution."""
        requests = _requests(5)
        engine = MicroBatchEngine(build_backends(), workers=1, max_wait_ms=1.0)
        with engine:
            results = engine.solve_many(requests, timeout=120)
        solver = FVMSolver(get_chip("chip1"), nx=RES)
        for request, result in zip(requests, results):
            reference = solver.solve_batch([request.assignment])[0]
            assert result.max_K == reference.max_K  # bitwise, not approx
            assert result.min_K == reference.min_K
            assert result.mean_K == reference.mean_K
            direct = solver.solve(request.assignment)
            assert abs(result.max_K - direct.max_K) <= 1e-9
            assert abs(result.min_K - direct.min_K) <= 1e-9
            assert abs(result.mean_K - direct.mean_K) <= 1e-9

    def test_multi_worker_answers_match_single_worker(self):
        requests = _requests(6, "chip1") + _requests(6, "chip2")
        single_session = ThermalSession()
        multi_session = ThermalSession()
        with MicroBatchEngine(
            build_backends(session=single_session), workers=1, max_wait_ms=1.0
        ) as engine:
            single = engine.solve_many(requests, timeout=120)
        with MicroBatchEngine(
            build_backends(session=multi_session), workers=4, max_wait_ms=1.0
        ) as engine:
            multi = engine.solve_many(requests, timeout=120)
        for a, b in zip(single, multi):
            assert a.max_K == b.max_K
            assert a.mean_K == b.mean_K

    def test_concurrent_submitters_under_multiworker(self):
        engine = MicroBatchEngine(build_backends(), workers=2, max_wait_ms=1.0)
        chips = ["chip1", "chip2", "chip3"]

        def client(index):
            request = _requests(1, chips[index % 3], base=20.0 + index)[0]
            return engine.solve(request, timeout=120)

        with engine:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(client, range(24)))
        assert len(results) == 24
        assert all(r.max_K > 300.0 for r in results)

    def test_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            MicroBatchEngine(build_backends(), workers=0)


class TestTransientRequestValidation:
    def test_constant_power_request(self):
        request = TransientRequest.create(
            "chip1", duration_s=0.1, dt_s=0.01, total_power_W=30.0, resolution=RES
        )
        assert request.chip == "chip1"
        assert request.num_steps == 10
        assert request.schedule == ()
        assert abs(request.total_power_W - 30.0) < 1e-9
        trace = request.trace()
        assert trace == request.assignment  # constant trace is the mapping

    def test_schedule_builds_a_step_function(self):
        request = TransientRequest.create(
            "chip1",
            duration_s=0.3,
            dt_s=0.01,
            schedule=[
                {"t_s": 0.0, "total_power": 10.0},
                {"t_s": 0.1, "total_power": 40.0},
                {"t_s": 0.2, "total_power": 20.0},
            ],
            resolution=RES,
        )
        trace = request.trace()
        assert callable(trace)
        assert abs(sum(trace(0.0).values()) - 10.0) < 1e-9
        assert abs(sum(trace(0.05).values()) - 10.0) < 1e-9
        assert abs(sum(trace(0.1).values()) - 40.0) < 1e-9
        assert abs(sum(trace(0.25).values()) - 20.0) < 1e-9

    def test_bad_durations_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TransientRequest.create("chip1", duration_s=0.0, dt_s=0.01, total_power_W=10)
        with pytest.raises(ValueError, match="not exceed"):
            TransientRequest.create("chip1", duration_s=0.01, dt_s=0.1, total_power_W=10)
        with pytest.raises(ValueError, match="time steps"):
            TransientRequest.create(
                "chip1", duration_s=float(MAX_TRANSIENT_STEPS + 1), dt_s=1.0,
                total_power_W=10,
            )

    def test_bad_schedules_rejected(self):
        with pytest.raises(ValueError, match="t_s=0"):
            TransientRequest.create(
                "chip1", duration_s=0.2, dt_s=0.01,
                schedule=[{"t_s": 0.1, "total_power": 10.0}],
            )
        with pytest.raises(ValueError, match="strictly increasing"):
            TransientRequest.create(
                "chip1", duration_s=0.2, dt_s=0.01,
                schedule=[
                    {"t_s": 0.0, "total_power": 10.0},
                    {"t_s": 0.0, "total_power": 20.0},
                ],
            )
        with pytest.raises(ValueError, match="beyond"):
            TransientRequest.create(
                "chip1", duration_s=0.2, dt_s=0.01,
                schedule=[
                    {"t_s": 0.0, "total_power": 10.0},
                    {"t_s": 0.5, "total_power": 20.0},
                ],
            )
        with pytest.raises(ValueError, match="not both"):
            TransientRequest.create(
                "chip1", duration_s=0.2, dt_s=0.01, total_power_W=5.0,
                schedule=[{"t_s": 0.0, "total_power": 10.0}],
            )
        with pytest.raises(ValueError, match="at least one"):
            TransientRequest.create("chip1", duration_s=0.2, dt_s=0.01, schedule=[])

    def test_from_payload_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            TransientRequest.from_payload(
                {"chip": "chip1", "duration_s": 0.1, "dt_s": 0.01, "horizon": 1}
            )
        with pytest.raises(ValueError, match="required 'duration_s'"):
            TransientRequest.from_payload({"chip": "chip1", "dt_s": 0.01})
        with pytest.raises(KeyError, match="unknown chip"):
            TransientRequest.from_payload(
                {"chip": "chip9", "duration_s": 0.1, "dt_s": 0.01}
            )


@pytest.fixture(scope="module")
def server():
    session = ThermalSession()
    engine = MicroBatchEngine(
        build_backends(session=session), workers=2, max_wait_ms=1.0
    )
    with ThermalServer(engine, port=0, session=session) as running:
        yield running


class TestTransientEndpoint:
    def test_constant_power_trace(self, server):
        status, body = _post(
            server.url + "/solve_transient",
            {"chip": "chip1", "resolution": RES, "duration_s": 0.02, "dt_s": 0.002,
             "total_power": 30.0},
        )
        assert status == 200
        assert body["backend"] == "transient"
        history = body["history"]
        # 10 backward-Euler steps plus the stored initial (t=0) snapshot.
        assert len(history["times_s"]) == len(history["peak_K"]) == 11
        assert history["peak_K"] == sorted(history["peak_K"])  # monotone heating
        assert abs(body["max_K"] - history["peak_K"][-1]) <= 1e-6  # JSON rounds

    def test_schedule_changes_the_trajectory(self, server):
        body = {
            "chip": "chip1", "resolution": RES, "duration_s": 0.02, "dt_s": 0.002,
            "schedule": [
                {"t_s": 0.0, "total_power": 40.0},
                {"t_s": 0.01, "total_power": 5.0},
            ],
        }
        status, stepped = _post(server.url + "/solve_transient", body)
        assert status == 200
        peaks = stepped["history"]["peak_K"]
        # Heats under 40 W, then cools after the step down to 5 W.
        assert max(peaks) > peaks[-1]

    def test_store_every_thins_the_history(self, server):
        status, body = _post(
            server.url + "/solve_transient",
            {"chip": "chip1", "resolution": RES, "duration_s": 0.02, "dt_s": 0.002,
             "total_power": 30.0, "store_every": 5},
        )
        assert status == 200
        # t=0 snapshot plus steps 5 and 10.
        assert len(body["history"]["times_s"]) == 3

    def test_include_maps(self, server):
        status, body = _post(
            server.url + "/solve_transient",
            {"chip": "chip1", "resolution": RES, "duration_s": 0.01, "dt_s": 0.002,
             "total_power": 30.0, "include_maps": True},
        )
        assert status == 200
        assert set(body["layer_maps"]) == set(get_chip("chip1").power_layer_names)
        assert np.asarray(body["layer_maps"]["core_layer"]).shape == (RES, RES)

    def test_validation_errors_are_400(self, server):
        cases = [
            {"chip": "chip1", "dt_s": 0.01},  # missing duration
            {"chip": "chip9", "duration_s": 0.1, "dt_s": 0.01},
            {"chip": "chip1", "duration_s": 0.1, "dt_s": 0.01,
             "powers": {"bogus/block": 1.0}},
            {"chip": "chip1", "duration_s": 0.1, "dt_s": 0.01, "total_power": 10,
             "schedule": [{"t_s": 0, "total_power": 10}]},
            {"chip": "chip1", "duration_s": 0.1, "dt_s": 0.01,
             "schedule": [{"t_s": 0, "total_power": [10]}]},  # non-numeric watts
            {"chip": "chip1", "duration_s": 1e6, "dt_s": 1e-4, "total_power": 10},
            # JSON parses 1e400 as infinity; must be a 400, not a crash.
            {"chip": "chip1", "duration_s": 1e400, "dt_s": 1.0, "total_power": 10},
            {"chip": "chip1", "duration_s": 0.1, "dt_s": 0.01, "total_power": 10,
             "resolution": 1e400},
        ]
        for body in cases:
            status, answer = _post(server.url + "/solve_transient", body)
            assert status == 400, body
            assert answer["error"]

    def test_transient_admission_cap_answers_429(self, server):
        """Beyond TRANSIENT_MAX_PENDING concurrent traces the endpoint
        rejects fast instead of stacking handler threads."""
        from repro.serving.server import TRANSIENT_MAX_PENDING

        with server._transient_stats_lock:
            server._transient_pending = TRANSIENT_MAX_PENDING
        try:
            status, body = _post(
                server.url + "/solve_transient",
                {"chip": "chip1", "resolution": RES, "duration_s": 0.01,
                 "dt_s": 0.002, "total_power": 21.0},
            )
        finally:
            with server._transient_stats_lock:
                server._transient_pending = 0
        assert status == 429
        assert "retry later" in body["error"]
        # Capacity restored: the next request succeeds.
        status, _ = _post(
            server.url + "/solve_transient",
            {"chip": "chip1", "resolution": RES, "duration_s": 0.01,
             "dt_s": 0.002, "total_power": 21.5},
        )
        assert status == 200

    def test_stats_count_transient_requests(self, server):
        before = json.loads(
            urllib.request.urlopen(server.url + "/stats", timeout=60).read()
        )["transient_endpoint"]["requests"]
        _post(
            server.url + "/solve_transient",
            {"chip": "chip2", "resolution": RES, "duration_s": 0.01, "dt_s": 0.002,
             "total_power": 25.0},
        )
        after = json.loads(
            urllib.request.urlopen(server.url + "/stats", timeout=60).read()
        )["transient_endpoint"]
        assert after["requests"] == before + 1
        assert after["mean_seconds"] > 0

    def test_matches_session_solve_transient(self, server):
        """The HTTP answer is the session's answer for the same trace."""
        body = {"chip": "chip3", "resolution": RES, "duration_s": 0.02,
                "dt_s": 0.002, "total_power": 22.0}
        status, answer = _post(server.url + "/solve_transient", body)
        assert status == 200
        session = ThermalSession()
        request = TransientRequest.from_payload(body)
        reference = session.solve_transient(
            "chip3", request.trace(), 0.02, 0.002, resolution=RES
        )
        assert abs(answer["max_K"] - reference.max_K) <= 1e-6  # JSON rounds 1e-6

    def test_concurrent_transient_and_steady_traffic(self, server):
        def steady(i):
            return _post(
                server.url + "/solve",
                {"chip": "chip1", "resolution": RES, "total_power": 20.0 + i},
            )

        def transient(i):
            return _post(
                server.url + "/solve_transient",
                {"chip": "chip1", "resolution": RES, "duration_s": 0.01,
                 "dt_s": 0.002, "total_power": 20.0 + i},
            )

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(steady, i) for i in range(4)]
            futures += [pool.submit(transient, i) for i in range(4)]
            responses = [f.result() for f in futures]
        assert all(status == 200 for status, _ in responses)
