"""Fault tolerance: deadlines and shutdown.

Deterministic throughout: a gated backend holds the engine's solve lock while
other threads wait for it, and deadlines use real but generous margins only
where requests must *wait* (never to race a solver).
"""

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.session import DeadlineExceeded
from repro.serving.backends import Backend, build_backends
from repro.serving.engine import EngineStopped, MicroBatchEngine
from repro.serving.request import ThermalRequest, ThermalResult
from repro.serving.server import ThermalServer

RES = 8


def _request(backend="fvm", power=20.0, chip="chip1", deadline_ms=None):
    return ThermalRequest.create(
        chip, total_power_W=power, resolution=RES, backend=backend,
        deadline_ms=deadline_ms,
    )


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class _RecordingBackend(Backend):
    """Records how many requests reached it; blocks while its gate is shut."""

    def __init__(self, name="fvm"):
        self.name = name
        self.seen = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()  # open unless a test shuts it

    def solve_batch(self, requests):
        self.seen += len(requests)
        self.entered.set()
        assert self.release.wait(timeout=60), "test forgot to release the gate"
        return [
            ThermalResult(
                request_id=r.request_id, chip=r.chip, resolution=r.resolution,
                backend=self.name, max_K=350.0, min_K=300.0, mean_K=320.0,
                total_power_W=r.total_power_W,
            )
            for r in requests
        ]


def _wait_for(predicate, timeout=30.0):
    """Poll until ``predicate()`` holds (the waiters run on other threads)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


class TestDeadlines:
    def test_request_deadline_ms_becomes_absolute(self):
        before = time.monotonic()
        request = _request(deadline_ms=5000)
        assert before + 4.0 < request.deadline < time.monotonic() + 5.0
        assert not request.expired()
        assert _request().deadline is None

    @pytest.mark.parametrize("bad", ["soon", -5, 0, float("inf")])
    def test_bad_deadline_ms_rejected(self, bad):
        with pytest.raises(ValueError, match="deadline_ms"):
            ThermalRequest.from_payload(
                {"chip": "chip1", "total_power": 20, "deadline_ms": bad}
            )

    def test_expired_on_submit_is_shed_not_solved(self):
        backend = _RecordingBackend()
        engine = MicroBatchEngine({"fvm": backend})
        request = _request(deadline_ms=1)
        time.sleep(0.01)
        with pytest.raises(DeadlineExceeded, match="shed"):
            engine.solve(request)
        assert backend.seen == 0
        assert engine.stats()["backends"]["fvm"]["shed"] == 1
        assert engine.stats()["shed_requests"] == 1

    def test_expired_while_queued_is_shed_at_dispatch(self):
        backend = _RecordingBackend()
        backend.release.clear()
        engine = MicroBatchEngine({"fvm": backend})
        with engine, ThreadPoolExecutor(max_workers=4) as pool:
            holder = pool.submit(engine.solve, _request(power=19.0))
            assert backend.entered.wait(timeout=60)
            # Three requests wait behind the gated solve; two with a budget
            # that is spent before the solver frees up, one without.
            shed_futures = [pool.submit(engine.solve, _request(power=p, deadline_ms=250))
                            for p in (20.0, 21.0)]
            kept_future = pool.submit(engine.solve, _request(power=22.0))
            _wait_for(lambda: engine.stats()["queue_depth"] == 3)
            time.sleep(0.3)
            backend.release.set()
            for future in shed_futures:
                with pytest.raises(DeadlineExceeded, match="budget"):
                    future.result(timeout=5)
            assert kept_future.result(timeout=5).max_K == 350.0
            assert holder.result(timeout=5).max_K == 350.0
        assert backend.seen == 2  # the shed requests never reached the backend
        assert engine.stats()["backends"]["fvm"]["shed"] == 2


class TestEngineStopped:
    def test_submit_after_stop_raises_engine_stopped(self):
        engine = MicroBatchEngine({"fvm": _RecordingBackend()})
        engine.start()
        engine.stop()
        with pytest.raises(EngineStopped, match="stopped"):
            engine.solve(_request())
        # Back-compat: callers catching the historical RuntimeError still do.
        assert issubclass(EngineStopped, RuntimeError)

    def test_stop_fails_pending_futures_instead_of_hanging(self):
        """A request waiting for the solver when stop() lands gets
        EngineStopped; the request already being solved completes."""
        backend = _RecordingBackend()
        backend.release.clear()
        engine = MicroBatchEngine({"fvm": backend})
        with ThreadPoolExecutor(max_workers=3) as pool:
            engine.start()
            holder = pool.submit(engine.solve, _request(power=19.0))
            assert backend.entered.wait(timeout=60)
            waiters = [pool.submit(engine.solve, _request(power=p)) for p in (20.0, 21.0)]
            _wait_for(lambda: engine.stats()["queue_depth"] == 2)
            engine.stop()
            backend.release.set()
            assert holder.result(timeout=5).max_K == 350.0
            for future in waiters:
                with pytest.raises(EngineStopped, match="stopped"):
                    future.result(timeout=5)
        assert backend.seen == 1

    def test_http_maps_engine_stopped_to_503(self):
        engine = MicroBatchEngine(build_backends())
        with ThermalServer(engine, port=0) as server:
            engine.stop()
            status, body = _post(
                server.url + "/solve", {"chip": "chip1", "total_power": 20}
            )
            assert status == 503
            assert "stopped" in body["error"]
