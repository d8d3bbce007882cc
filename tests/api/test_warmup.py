"""Session warm-up API and the plane batch-split rule."""

import numpy as np
import pytest

from repro.api.session import ThermalSession
from repro.runtime.plane import create_plane
from repro.runtime.tasks import BackendSpec, backend_state_key

RES = 10


class TestWarmUp:
    def test_warms_triples_and_mappings(self):
        session = ThermalSession()
        outcome = session.warm_up([
            ("chip1", RES, "fvm"),
            {"chip": "chip2", "resolution": RES, "backend": "hotspot"},
        ])
        assert outcome["warmed"] == [f"chip1/{RES}/fvm", f"chip2/{RES}/hotspot"]
        assert outcome["errors"] == {}
        pools = session.stats()["pools"]
        assert pools["fvm"]["entries"] == 1
        assert pools["hotspot"]["entries"] == 1

    def test_mapping_defaults_backend_to_fvm(self):
        session = ThermalSession()
        outcome = session.warm_up([{"chip": "chip1", "resolution": RES}])
        assert outcome["warmed"] == [f"chip1/{RES}/fvm"]

    def test_unknown_chip_is_a_per_key_error(self):
        session = ThermalSession()
        outcome = session.warm_up([
            ("nope", RES, "fvm"),
            ("chip1", RES, "fvm"),
        ])
        assert outcome["warmed"] == [f"chip1/{RES}/fvm"]
        assert list(outcome["errors"]) == [f"nope/{RES}/fvm"]

    def test_warmed_key_answers_without_a_pool_miss(self):
        session = ThermalSession()
        session.warm_up([("chip1", RES, "fvm")])
        misses_before = session.stats()["pools"]["fvm"]["misses"]
        session.solve("chip1", 30.0, resolution=RES)
        assert session.stats()["pools"]["fvm"]["misses"] == misses_before

    def test_plane_backed_warm_up_builds_worker_state(self):
        plane = create_plane("threads", workers=2)
        session = ThermalSession(plane=plane)
        try:
            outcome = session.warm_up([
                ("chip1", RES, "fvm"),
                ("chip2", RES, "fvm"),
            ])
            assert sorted(outcome["warmed"]) == [
                f"chip1/{RES}/fvm", f"chip2/{RES}/fvm",
            ]
            assert outcome["errors"] == {}
            worker_stats = session.stats()["plane"]["per_worker"]
            assert sum(w["warm_keys"] for w in worker_stats) >= 2
        finally:
            plane.close()


class TestPlaneWarmUp:
    def test_execution_plane_warm_up_counts_built_states(self):
        from repro.chip.designs import get_chip
        from repro.runtime.tasks import build_backend_adapter

        plane = create_plane("threads", workers=2)
        try:
            specs = [
                BackendSpec(chip=get_chip("chip1"), resolution=RES, backend="fvm"),
                BackendSpec(chip=get_chip("chip2"), resolution=RES, backend="fvm"),
            ]
            recipes = [
                (backend_state_key(spec), build_backend_adapter, spec)
                for spec in specs
            ]
            assert plane.warm_up(recipes) == 2
        finally:
            plane.close()


class TestAdaptiveSplit:
    """A plane batch splits across workers once it holds two cases per worker."""

    def _session(self, workers=2):
        plane = create_plane("threads", workers=workers)
        return ThermalSession(plane=plane), plane

    def test_small_cold_batch_does_not_split(self):
        session, plane = self._session()
        try:
            session.solve_batch("chip1", [20.0, 25.0], resolution=RES,
                                use_cache=False)
            dispatch = session.stats()["dispatch"]
            assert dispatch == {"plane_batches": 1, "split_batches": 0}
        finally:
            plane.close()

    def test_static_rule_still_splits_deep_batches(self):
        session, plane = self._session()
        try:
            session.solve_batch("chip1", [20.0 + i for i in range(4)],
                                resolution=RES, use_cache=False)
            assert session.stats()["dispatch"]["split_batches"] == 1
        finally:
            plane.close()

    def test_adaptive_split_answers_are_bitwise_identical(self):
        """Chunked answers equal whole-batch ones (the split is by the static
        rule: a batch of at least two cases per plane worker)."""
        powers = [18.0 + i for i in range(4)]
        serial = ThermalSession()
        baseline = serial.solve_batch("chip1", powers, resolution=RES,
                                      include_maps=True, use_cache=False)
        session, plane = self._session()
        try:
            split = session.solve_batch("chip1", powers, resolution=RES,
                                        include_maps=True, use_cache=False)
            assert session.stats()["dispatch"]["split_batches"] == 1
            for a, b in zip(baseline, split):
                assert a.max_K == b.max_K
                for name, layer in (a.layer_maps or {}).items():
                    np.testing.assert_array_equal(layer, b.layer_maps[name])
        finally:
            plane.close()
