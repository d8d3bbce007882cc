"""Tests for the repro.api facade: solution type, backends, session, caches."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import (
    ThermalBackend,
    ThermalSession,
    ThermalSolution,
    power_map_hash,
)
from repro.api.backends import BACKEND_NAMES
from repro.chip.designs import get_chip
from repro.data.cache import DatasetCache
from repro.data.generation import DatasetSpec, generate_dataset, generate_multifidelity_pair
from repro.data.power import uniform_power_assignment
from repro.operators.factory import LoadedOperator, build_operator
from repro.solvers.fvm import FVMSolver
from repro.solvers.hotspot import HotSpotModel
from repro.training.trainer import TrainingConfig
from tests.conftest import assert_same_dataset

RES = 10  # tiny grids keep the exact solves fast


@pytest.fixture()
def session():
    return ThermalSession()


def _register_tiny_operator(session, chip_name="chip1", resolution=RES, rng_seed=0):
    chip = get_chip(chip_name)
    model = build_operator(
        "fno",
        chip.num_power_layers,
        chip.num_power_layers,
        {"width": 8, "modes1": 3, "modes2": 3},
        np.random.default_rng(rng_seed),
    )
    loaded = LoadedOperator(
        model=model,
        name="fno",
        in_channels=chip.num_power_layers,
        out_channels=chip.num_power_layers,
        options={},
        chip_name=chip_name,
        resolution=resolution,
    )
    session.register_model(loaded)
    return loaded


class TestThermalSolution:
    def test_to_json_nan_becomes_null(self):
        solution = ThermalSolution(
            chip="chip1", resolution=8, backend="operator",
            max_K=float("nan"), min_K=300.0, mean_K=float("inf"), total_power_W=10.0,
        )
        decoded = json.loads(json.dumps(solution.to_json()))
        assert decoded["max_K"] is None
        assert decoded["mean_K"] is None
        assert decoded["min_K"] == 300.0

    def test_layer_map_views_require_maps(self):
        solution = ThermalSolution(
            chip="chip1", resolution=8, backend="fvm",
            max_K=330.0, min_K=300.0, mean_K=320.0, total_power_W=10.0,
        )
        with pytest.raises(ValueError, match="include_maps"):
            solution.layer_map("core_layer")
        with pytest.raises(ValueError, match="include_maps"):
            solution.power_layer_maps()

    def test_error_vs_compares_common_layers(self):
        kwargs = dict(chip="chip1", resolution=4, backend="fvm",
                      min_K=300.0, total_power_W=10.0)
        a = ThermalSolution(max_K=330.0, mean_K=320.0,
                            layer_maps={"core": np.full((4, 4), 330.0)}, **kwargs)
        b = ThermalSolution(max_K=329.0, mean_K=318.0,
                            layer_maps={"core": np.full((4, 4), 329.0)}, **kwargs)
        errors = a.error_vs(b)
        assert errors["delta_max_K"] == pytest.approx(1.0)
        assert errors["max_abs_K"] == pytest.approx(1.0)
        assert errors["rmse_K"] == pytest.approx(1.0)

    def test_clone_is_independent(self):
        original = ThermalSolution(
            chip="chip1", resolution=8, backend="fvm",
            max_K=330.0, min_K=300.0, mean_K=320.0, total_power_W=10.0,
            provenance={"source": "fvm"},
        )
        copy = original.clone(provenance={"source": "fvm", "cached": True})
        copy.latency_seconds = 1.0
        copy.hotspot["x_mm"] = 5.0
        assert original.latency_seconds == 0.0
        assert original.hotspot == {}
        assert not original.cached and copy.cached


class TestPowerMapHash:
    def test_order_invariant_and_value_sensitive(self):
        a = {"core_layer/Core": 20.0, "l2_cache_layer/L2": 5.0}
        b = {"l2_cache_layer/L2": 5.0, "core_layer/Core": 20.0}
        assert power_map_hash(a) == power_map_hash(b)
        assert power_map_hash(a) != power_map_hash({**a, "core_layer/Core": 20.0001})


class TestSessionSolve:
    def test_all_four_backends_one_signature(self, session):
        """Acceptance: the same call answers via fvm/hotspot/transient/operator."""
        _register_tiny_operator(session)
        for backend in BACKEND_NAMES:
            solution = session.solve(
                "chip1", total_power_W=30.0, resolution=RES, backend=backend
            )
            assert isinstance(solution, ThermalSolution)
            assert solution.backend == backend
            assert solution.chip == "chip1"
            assert solution.resolution == RES
            assert np.isfinite(solution.max_K)

    def test_fvm_matches_direct_solver_exactly(self, session):
        """Acceptance: session answers == pre-refactor FVMSolver.solve <= 1e-9."""
        chip = get_chip("chip2")
        assignment = uniform_power_assignment(chip, 45.0)
        solution = session.solve(
            "chip2", assignment, resolution=RES, include_values=True, include_maps=True
        )
        reference = FVMSolver(chip, nx=RES).solve(assignment)
        assert np.abs(solution.values - reference.values).max() <= 1e-9
        assert abs(solution.max_K - reference.max_K) <= 1e-9
        for name in chip.power_layer_names:
            assert np.abs(solution.layer_map(name) - reference.layer_map(name)).max() <= 1e-9

    def test_hotspot_matches_compact_model(self, session):
        chip = get_chip("chip1")
        assignment = uniform_power_assignment(chip, 30.0)
        solution = session.solve("chip1", assignment, resolution=RES, backend="hotspot")
        reference = HotSpotModel(chip).solve(assignment)
        assert abs(solution.max_K - reference.max_K) <= 1e-9

    def test_transient_converges_to_steady_answer(self, session):
        steady = session.solve("chip1", total_power_W=30.0, resolution=8)
        quasi = session.solve("chip1", total_power_W=30.0, resolution=8, backend="transient")
        assert quasi.provenance["quasi_steady"]
        assert quasi.history is not None and len(quasi.history["times_s"]) > 1
        assert abs(quasi.max_K - steady.max_K) < 0.5

    def test_transient_trace_holds_one_snapshot(self, session):
        """A 2,000-step trace keeps the latest field and the scalar
        histories, not every stored snapshot (those alone are ~50 MB)."""
        import tracemalloc

        session.backend("transient", "chip1", 16)  # geometry built up front
        tracemalloc.start()
        try:
            solution = session.solve_transient(
                "chip1", uniform_power_assignment(get_chip("chip1"), 40.0),
                0.2, 1e-4, resolution=16,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(solution.history["peak_K"]) == 2001
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_powers_accepts_number_mapping_and_case(self, session):
        from repro.data.power import PowerSampler

        by_number = session.solve("chip1", 30.0, resolution=RES)
        by_total = session.solve("chip1", total_power_W=30.0, resolution=RES)
        assert by_number.max_K == pytest.approx(by_total.max_K, abs=1e-12)
        case = PowerSampler(get_chip("chip1")).sample(np.random.default_rng(3))
        by_case = session.solve("chip1", case, resolution=RES)
        assert by_case.total_power_W == pytest.approx(case.total_W)

    def test_unknown_backend_and_chip_rejected(self, session):
        with pytest.raises(ValueError, match="unknown backend"):
            session.solve("chip1", total_power_W=10.0, resolution=RES, backend="comsol")
        with pytest.raises(KeyError):
            session.solve("chip9", total_power_W=10.0, resolution=RES)

    def test_powers_and_total_power_conflict(self, session):
        with pytest.raises(ValueError, match="not both"):
            session.solve("chip1", {"core_layer/Core": 5.0}, total_power_W=10.0)

    def test_total_power_past_the_float_range_is_a_value_error(self, session):
        # float(10**400) raises OverflowError; the number must be rejected
        # as bad input like any other non-finite total.
        with pytest.raises(ValueError, match="finite"):
            session.solve("chip1", 10**400, resolution=RES)

    def test_include_values_requires_a_field_backend(self, session):
        with pytest.raises(ValueError, match="cannot produce a 3-D field"):
            session.solve("chip1", total_power_W=10.0, resolution=RES,
                          backend="hotspot", include_values=True)

    def test_cached_arrays_are_isolated_from_consumers(self, session):
        first = session.solve("chip1", total_power_W=30.0, resolution=RES,
                              include_maps=True)
        first.layer_maps["core_layer"] -= 273.15  # in-place unit conversion
        second = session.solve("chip1", total_power_W=30.0, resolution=RES,
                               include_maps=True)
        assert second.cached
        assert second.layer_maps["core_layer"].min() > 200.0  # still kelvin


class TestResultCache:
    def test_repeated_solves_hit_the_cache(self, session):
        """Acceptance: repeated same-power-map solves hit the session cache."""
        first = session.solve("chip1", total_power_W=30.0, resolution=RES)
        second = session.solve("chip1", total_power_W=30.0, resolution=RES)
        assert not first.cached
        assert second.cached
        stats = session.result_cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert second.max_K == pytest.approx(first.max_K, abs=0)

    def test_batch_mixes_hits_and_misses(self, session):
        warm = {"core_layer/Core": 12.0}
        session.solve("chip1", warm, resolution=RES)
        cold = {"core_layer/Core": 24.0}
        solutions = session.solve_batch("chip1", [warm, cold], resolution=RES)
        assert solutions[0].cached and not solutions[1].cached
        reference = FVMSolver(get_chip("chip1"), nx=RES).solve(
            {**{n: 0.0 for n in get_chip("chip1").flat_block_names()}, **cold}
        )
        assert abs(solutions[1].max_K - reference.max_K) <= 1e-9

    def test_cache_key_separates_backend_resolution_and_detail(self, session):
        session.solve("chip1", total_power_W=30.0, resolution=RES)
        session.solve("chip1", total_power_W=30.0, resolution=RES, backend="hotspot")
        session.solve("chip1", total_power_W=30.0, resolution=RES + 2)
        session.solve("chip1", total_power_W=30.0, resolution=RES, include_maps=True)
        assert session.result_cache.stats()["hits"] == 0
        assert session.result_cache.stats()["misses"] == 4

    def test_use_cache_false_bypasses(self, session):
        session.solve("chip1", total_power_W=30.0, resolution=RES, use_cache=False)
        session.solve("chip1", total_power_W=30.0, resolution=RES, use_cache=False)
        stats = session.result_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0 and stats["entries"] == 0

    def test_full_field_answers_bypass_the_cache(self, session):
        session.solve("chip1", total_power_W=30.0, resolution=RES, include_values=True)
        session.solve("chip1", total_power_W=30.0, resolution=RES, include_values=True)
        stats = session.result_cache.stats()
        assert stats["entries"] == 0 and stats["hits"] == 0

    def test_byte_budget_bounds_the_cache(self):
        from repro.api.pool import ResultCache

        cache = ResultCache(capacity=10, max_bytes=100)
        cache.put("a", "A", size_bytes=60)
        cache.put("b", "B", size_bytes=60)  # evicts "a": 120 > 100
        assert cache.get("a") is None
        assert cache.get("b") == "B"
        assert cache.stats()["evictions"] == 1
        cache.put("huge", "H", size_bytes=1000)  # oversized: never stored
        assert cache.get("huge") is None
        assert cache.stats()["bytes"] <= 100

    def test_mutating_a_returned_solution_does_not_poison_the_cache(self, session):
        first = session.solve("chip1", total_power_W=30.0, resolution=RES)
        first.latency_seconds = 99.0
        first.request_id = "stolen"
        second = session.solve("chip1", total_power_W=30.0, resolution=RES)
        assert second.latency_seconds == 0.0
        assert second.request_id == ""


class TestBackendsAndPools:
    def test_backend_adapters_satisfy_the_protocol(self, session):
        _register_tiny_operator(session)
        for name in BACKEND_NAMES:
            adapter = session.backend(name, "chip1", RES)
            assert isinstance(adapter, ThermalBackend)
            assert adapter.name == name
            capabilities = adapter.capabilities()
            assert isinstance(capabilities, dict) and "exact" in capabilities
            description = adapter.describe()
            assert description["backend" if name != "operator" else "backend"] == name

    def test_pooling_reuses_prepared_adapters(self, session):
        first = session.backend("fvm", "chip1", RES)
        second = session.backend("fvm", "chip1", RES)
        other = session.backend("fvm", "chip1", RES + 2)
        assert first is second
        assert first is not other
        stats = session.pool("fvm").stats()
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_session_stats_shape(self, session):
        session.solve("chip1", total_power_W=20.0, resolution=RES)
        stats = session.stats()
        assert set(stats["pools"]) == {"fvm", "hotspot", "transient"}
        assert stats["result_cache"]["misses"] == 1
        assert stats["models"] == 0


class TestCustomChips:
    def test_register_chip_makes_it_addressable(self, session):
        chip = get_chip("chip1")
        import dataclasses

        custom = dataclasses.replace(chip, name="my_chip")
        session.register_chip(custom)
        assert "my_chip" in session.list_chips()
        solution = session.solve("my_chip", total_power_W=25.0, resolution=RES)
        reference = session.solve("chip1", total_power_W=25.0, resolution=RES)
        assert solution.max_K == pytest.approx(reference.max_K, abs=1e-9)

    def test_equivalent_rebuilt_chip_objects_keep_warm_state(self, session):
        """Fresh-but-identical ChipStack objects must not thrash pools/cache."""
        first = session.solve(get_chip("chip1"), total_power_W=25.0, resolution=RES)
        second = session.solve(get_chip("chip1"), total_power_W=25.0, resolution=RES)
        assert not first.cached
        assert second.cached
        assert session.pool("fvm").stats()["misses"] == 1

    def test_custom_chip_name_is_case_insensitive(self, session):
        import dataclasses

        session.register_chip(dataclasses.replace(get_chip("chip1"), name="EV6_Stack"))
        assert session.get_chip("ev6_stack").name == "EV6_Stack"
        solution = session.solve("ev6_stack", total_power_W=20.0, resolution=RES)
        assert np.isfinite(solution.max_K)

    def test_reregistering_a_changed_design_invalidates_stale_state(self, session):
        """A re-registered name must not serve the old design's answers."""
        import dataclasses

        chip = get_chip("chip1")
        session.register_chip(dataclasses.replace(chip, name="my_chip"))
        before = session.solve("my_chip", total_power_W=25.0, resolution=RES)
        hotter = dataclasses.replace(
            chip,
            name="my_chip",
            cooling=dataclasses.replace(chip.cooling, ambient_K=chip.cooling.ambient_K + 10.0),
        )
        session.register_chip(hotter)
        after = session.solve("my_chip", total_power_W=25.0, resolution=RES)
        assert not after.cached
        assert after.max_K == pytest.approx(before.max_K + 10.0, abs=0.5)


class TestSessionGeneration:
    """Every generate_dataset and generate_multifidelity_pair call shares
    the session's one plane."""

    def test_second_same_geometry_dataset_does_not_factorise(self, count_solver_calls):
        session = ThermalSession()
        session.generate_dataset("chip2", resolution=12, num_samples=4, seed=1)
        calls = count_solver_calls()
        second = session.generate_dataset("chip2", resolution=12, num_samples=8, seed=2)
        assert calls == {"factorize": 0, "backsub": 0, "separable": 0}
        assert_same_dataset(second, generate_dataset(DatasetSpec("chip2", 12, 8, seed=2)))

    def test_repeated_multifidelity_pair_does_not_factorise(self, count_solver_calls):
        session = ThermalSession()
        session.generate_multifidelity_pair("chip1", 12, 24, 6, 3, seed=4)
        calls = count_solver_calls()
        low, high = session.generate_multifidelity_pair("chip1", 12, 24, 6, 3, seed=4)
        assert calls == {"factorize": 0, "backsub": 0, "separable": 0}
        reference_low, reference_high = generate_multifidelity_pair("chip1", 12, 24, 6, 3, seed=4)
        assert_same_dataset(low, reference_low)
        assert_same_dataset(high, reference_high)

    @pytest.mark.parametrize("owner", ["session", "dataset_cache"])
    def test_concurrent_calls_build_the_basis_once(self, owner, tmp_path, count_solver_calls):
        """More threads than cores, switching often: the plane's lock lets
        exactly one of them build the shared basis."""
        if owner == "session":
            session = ThermalSession()

            def generate(spec):
                return session.generate_dataset(
                    spec.chip_name, resolution=spec.resolution,
                    num_samples=spec.num_samples, seed=spec.seed,
                )
        else:
            generate = DatasetCache(str(tmp_path)).get
        specs = [DatasetSpec("chip1", 12, 6, seed=seed) for seed in range(6)]
        calls = count_solver_calls()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(specs)) as executor:
                futures = [executor.submit(generate, spec) for spec in specs]
                datasets = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert calls == {"factorize": 0, "backsub": 0, "separable": 1}
        for spec, dataset in zip(specs, datasets):
            assert_same_dataset(dataset, generate_dataset(spec))


class TestTrainAndEvaluate:
    @pytest.fixture(scope="class")
    def tiny_dataset(self):
        return ThermalSession().generate_dataset(
            "chip1", resolution=RES, num_samples=8, seed=5
        )

    def test_generate_dataset_matches_spec(self, tiny_dataset):
        assert tiny_dataset.chip_name == "chip1"
        assert tiny_dataset.resolution == RES
        assert len(tiny_dataset) == 8

    def test_train_register_and_serve_through_operator_backend(self, session, tiny_dataset):
        split = tiny_dataset.split(0.75, rng=np.random.default_rng(0))
        trained = session.train(
            split.train,
            method="fno",
            config={"width": 8, "modes1": 3, "modes2": 3},
            training=TrainingConfig(epochs=1, batch_size=4, seed=0),
            register=True,
        )
        assert trained.servable
        assert trained.num_parameters > 0
        report = session.evaluate(trained, split.test)
        assert np.isfinite(report.rmse)
        # The freshly trained surrogate answers through the session like any
        # other backend.
        solution = session.solve(
            "chip1", total_power_W=30.0, resolution=RES, backend="operator"
        )
        assert solution.backend == "operator"
        assert solution.provenance["model"] == "fno"

    def test_trained_operator_roundtrips_to_disk(self, session, tiny_dataset, tmp_path):
        split = tiny_dataset.split(0.75, rng=np.random.default_rng(0))
        trained = session.train(
            split.train,
            method="fno",
            config={"width": 8, "modes1": 3, "modes2": 3},
            training=TrainingConfig(epochs=1, batch_size=4, seed=0),
        )
        path = tmp_path / "fno.npz"
        trained.save(str(path))
        fresh = ThermalSession()
        loaded = fresh.load_model(str(path))
        assert loaded.chip_name == "chip1" and loaded.resolution == RES
        solution = fresh.solve("chip1", total_power_W=30.0, resolution=RES,
                               backend="operator")
        assert np.isfinite(solution.max_K)

    def test_gar_trains_but_is_not_servable(self, session, tiny_dataset):
        split = tiny_dataset.split(0.75, rng=np.random.default_rng(0))
        trained = session.train(split.train, method="gar", config={"n_components": 4})
        assert not trained.servable
        assert np.isfinite(trained.evaluate(split.test).rmse)
        with pytest.raises(ValueError, match="not servable"):
            trained.save("/tmp/never_written.npz")

    def test_operator_backend_without_model_raises(self, session):
        with pytest.raises(KeyError, match="no operator model registered"):
            session.solve("chip1", total_power_W=10.0, resolution=RES, backend="operator")


class TestCompatReexports:
    def test_serving_reexports_pool_and_registry(self):
        from repro.api.pool import LRUPool as APIPool
        from repro.api.registry import ModelRegistry as APIRegistry
        from repro.serving.backends import LRUPool, ModelRegistry

        assert LRUPool is APIPool
        assert ModelRegistry is APIRegistry

    def test_thermal_result_is_thermal_solution(self):
        from repro.serving.request import ThermalResult

        assert ThermalResult is ThermalSolution

    def test_top_level_lazy_exports(self):
        import repro

        assert repro.ThermalSession is ThermalSession
        assert repro.ThermalSolution is ThermalSolution
        assert callable(repro.get_chip) and callable(repro.build_operator)
        assert repro.FVMSolver is FVMSolver
