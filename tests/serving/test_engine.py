"""Tests for the request engine, backends and solver pool."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.chip.designs import get_chip
from repro.serving.backends import (
    Backend,
    FVMBackend,
    HotSpotBackend,
    LRUPool,
    ModelRegistry,
    OperatorBackend,
    build_backends,
)
from repro.serving.engine import MicroBatchEngine
from repro.serving.request import ThermalRequest, ThermalResult
from repro.solvers.fvm import FVMSolver
from repro.solvers.hotspot import HotSpotModel

RES = 10  # tiny grids keep the exact solves fast


def _requests(chip, count, resolution=RES, backend="fvm", base_power=30.0):
    return [
        ThermalRequest.create(
            chip, total_power_W=base_power + 3.0 * i, resolution=resolution, backend=backend
        )
        for i in range(count)
    ]


class TestThermalRequest:
    def test_create_validates_and_normalises(self):
        request = ThermalRequest.create("CHIP1", total_power_W=40, resolution="16")
        assert request.chip == "chip1"
        assert request.resolution == 16
        assert abs(request.total_power_W - 40.0) < 1e-9
        assert request.backend == "fvm" and request.include_maps is False

    def test_unknown_chip_and_backend_rejected(self):
        with pytest.raises(KeyError):
            ThermalRequest.create("chip9", total_power_W=10)
        with pytest.raises(ValueError):
            ThermalRequest.create("chip1", total_power_W=10, backend="comsol")

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            ThermalRequest.create("chip1", total_power_W=10, resolution=2)
        with pytest.raises(ValueError):
            ThermalRequest.create("chip1", total_power_W=10, resolution="many")
        with pytest.raises(ValueError, match="integer"):
            ThermalRequest.create("chip1", total_power_W=10, resolution=32.9)

    def test_powers_and_total_power_together_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            ThermalRequest.create(
                "chip1", powers={"core_layer/Core": 5.0}, total_power_W=50.0
            )
        with pytest.raises(ValueError, match="not both"):
            ThermalRequest.from_payload(
                {"chip": "chip1", "powers": {"core_layer/Core": 5.0}, "total_power": 50}
            )

    def test_unknown_block_and_negative_power_rejected(self):
        with pytest.raises(KeyError):
            ThermalRequest.create("chip1", powers={"no_such/block": 5.0})
        with pytest.raises(ValueError):
            ThermalRequest.create("chip1", powers={"core_layer/Core": -1.0})

    def test_allowed_backends_overrides_the_builtin_list(self):
        request = ThermalRequest.create(
            "chip1", total_power_W=10, backend="transient",
            allowed_backends=("fvm", "transient"),
        )
        assert request.backend == "transient"
        with pytest.raises(ValueError, match="unknown backend"):
            ThermalRequest.create(
                "chip1", total_power_W=10, backend="hotspot", allowed_backends=("fvm",)
            )

    def test_from_payload_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            ThermalRequest.from_payload({"chip": "chip1", "watts": 10})
        with pytest.raises(ValueError, match="required 'chip'"):
            ThermalRequest.from_payload({"total_power": 10})


class _CountingBackend(Backend):
    """Answers after a short sleep and records how many of its calls overlap."""

    name = "fvm"

    def __init__(self):
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def solve_batch(self, requests):
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(0.005)  # long enough for the other callers to pile up
        with self._lock:
            self.in_flight -= 1
        return [
            ThermalResult(
                request_id=r.request_id, chip=r.chip, resolution=r.resolution,
                backend=self.name, max_K=350.0, min_K=300.0, mean_K=320.0,
                total_power_W=r.total_power_W,
            )
            for r in requests
        ]


class _GatedBackend(Backend):
    """Blocks inside solve_batch until released."""

    name = "fvm"

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def solve_batch(self, requests):
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


class TestMicroBatching:
    def test_batched_group_equals_single_shot_solves(self):
        """The acceptance bar: served fvm answers == FVMSolver.solve."""
        requests = _requests("chip1", 6) + _requests("chip2", 3)
        engine = MicroBatchEngine(build_backends())
        with engine:
            results = [engine.solve(request) for request in requests]
        for request, result in zip(requests, results):
            reference = FVMSolver(get_chip(request.chip), nx=RES).solve(request.assignment)
            assert abs(result.max_K - reference.max_K) <= 1e-9
            assert abs(result.mean_K - reference.mean_K) <= 1e-9

    def test_submit_unknown_backend_raises(self):
        engine = MicroBatchEngine({"fvm": FVMBackend()})
        request = ThermalRequest.create("chip1", total_power_W=10, backend="hotspot")
        with pytest.raises(KeyError, match="not enabled"):
            engine.solve(request)

    def test_backend_errors_propagate_to_futures(self):
        """A backend failure reaches the caller and is counted."""
        engine = MicroBatchEngine(build_backends())  # no operator models loaded
        request = ThermalRequest.create(
            "chip1", total_power_W=10, resolution=RES, backend="operator"
        )
        with engine:
            with pytest.raises(KeyError, match="no operator model registered"):
                engine.solve(request)
        assert engine.stats()["backends"]["operator"]["errors"] == 1

    def test_submit_after_stop_raises_instead_of_hanging(self):
        engine = MicroBatchEngine(build_backends())
        engine.start()
        engine.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            engine.solve(_requests("chip1", 1)[0])

    def test_stats_shape(self):
        engine = MicroBatchEngine(build_backends())
        with engine:
            engine.solve(ThermalRequest.create("chip1", total_power_W=20, resolution=RES))
        stats = engine.stats()
        assert set(stats) == {
            "running", "uptime_seconds", "queue_depth", "max_queue",
            "rejected_requests", "shed_requests", "total_requests",
            "throughput_rps", "backends", "groups",
        }
        assert stats["total_requests"] == 1
        fvm = stats["backends"]["fvm"]
        assert {"requests", "errors", "shed", "samples_dropped"} <= set(fvm)
        assert fvm["latency_ms"]["p95"] >= fvm["latency_ms"]["p50"] > 0
        assert fvm["solver_pool"]["misses"] == 1


class TestSolveLock:
    def test_one_backend_call_in_flight_at_a_time(self):
        backend = _CountingBackend()
        engine = MicroBatchEngine({"fvm": backend})
        requests = _requests("chip1", 8)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the callers as finely as possible
        try:
            with engine, ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda r: engine.solve(r, timeout=60), requests))
        finally:
            sys.setswitchinterval(switch_interval)
        assert backend.max_in_flight == 1
        assert [r.request_id for r in results] == [r.request_id for r in requests]
        stats = engine.stats()
        assert stats["total_requests"] == 8 and stats["queue_depth"] == 0

    def test_lock_wait_past_the_timeout_raises_timeout_error(self):
        gated = _GatedBackend()
        engine = MicroBatchEngine({"fvm": gated})
        first, second = _requests("chip1", 2)
        with engine, ThreadPoolExecutor(max_workers=1) as pool:
            holder = pool.submit(engine.solve, first, 60)
            assert gated.entered.wait(timeout=60)
            with pytest.raises(TimeoutError, match="waited"):
                engine.solve(second, timeout=0.05)
            assert engine.stats()["queue_depth"] == 0  # the timed-out waiter left
            gated.release.set()
            assert holder.result(timeout=60).request_id == first.request_id

    def test_engine_starts_no_thread(self):
        engine = MicroBatchEngine(build_backends())
        before = threading.active_count()
        with engine:
            engine.solve(_requests("chip1", 1)[0])
            assert threading.active_count() == before


class TestLRUPool:
    def test_eviction_order_and_counters(self):
        pool = LRUPool(capacity=2)
        built = []

        def make(tag):
            def build():
                built.append(tag)
                return tag

            return build

        assert pool.get("a", make("a")) == "a"
        assert pool.get("b", make("b")) == "b"
        assert pool.get("a", make("a2")) == "a"  # hit refreshes recency
        assert pool.get("c", make("c")) == "c"  # evicts 'b'
        assert pool.get("b", make("b2")) == "b2"  # rebuilt after eviction
        assert built == ["a", "b", "c", "b2"]
        stats = pool.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 4
        assert stats["evictions"] == 2
        assert stats["entries"] == 2

    def test_fvm_backend_pool_eviction(self):
        backend = FVMBackend(pool_size=1)
        # Distinct power maps per call: identical queries would short-circuit
        # in the session result cache and never consult the solver pool.
        for index, resolution in enumerate((8, 10, 8)):
            backend.solve_batch(
                _requests("chip1", 1, resolution=resolution, base_power=30.0 + index)
            )
        stats = backend.pool.stats()
        assert stats["misses"] == 3  # the second res-8 solver was evicted
        assert stats["evictions"] == 2
        backend.solve_batch(_requests("chip1", 1, resolution=8, base_power=60.0))
        assert backend.pool.stats()["hits"] == 1


class TestThermalResult:
    def test_nan_result_serialises_to_valid_json(self):
        import json

        result = ThermalResult(
            request_id="r", chip="chip1", resolution=8, backend="operator",
            max_K=float("nan"), min_K=300.0, mean_K=float("inf"), total_power_W=10.0,
        )
        encoded = json.dumps(result.to_json())
        decoded = json.loads(encoded)  # strict parsers must accept it
        assert decoded["max_K"] is None
        assert decoded["mean_K"] is None
        assert decoded["min_K"] == 300.0


class TestHotSpotBackend:
    def test_solves_and_reports_hotspot_block_centre(self):
        backend = HotSpotBackend()
        [result] = backend.solve_batch(_requests("chip1", 1, backend="hotspot"))
        reference = HotSpotModel(get_chip("chip1")).solve(
            _requests("chip1", 1)[0].assignment
        )
        assert abs(result.max_K - reference.max_K) <= 1e-9
        assert set(result.hotspot) == {"x_mm", "y_mm", "temperature_K"}

    def test_include_maps_rasterises_layers(self):
        request = ThermalRequest.create(
            "chip1", total_power_W=40, resolution=12, backend="hotspot", include_maps=True
        )
        [result] = HotSpotBackend().solve_batch([request])
        assert set(result.layer_maps) == set(get_chip("chip1").power_layer_names)
        assert all(m.shape == (12, 12) for m in result.layer_maps.values())


class TestModelRegistry:
    def test_lookup_missing_gives_helpful_error(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError, match="no operator model registered"):
            registry.lookup("chip1", 32)

    def test_operator_backend_reports_model_count(self):
        backend = OperatorBackend()
        assert backend.stats() == {"models": 0}

    def test_registry_rejects_output_channel_mismatch(self, tmp_path, rng):
        from repro.operators.factory import build_operator, save_operator, load_operator

        model = build_operator("fno", 2, 3, {"width": 8, "modes1": 3, "modes2": 3}, rng)
        path = tmp_path / "bad_out.npz"
        save_operator(model, str(path), chip_name="chip1", resolution=12)
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="output channels"):
            registry.register(load_operator(str(path)), path=str(path))
