"""Session warm-up API."""

from repro.api.session import ThermalSession
from repro.solvers import fvm as fvm_module
from repro.solvers import transient as transient_module

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

    def test_warmed_transient_key_builds_neither_geometry_nor_time_constant(
        self, monkeypatch
    ):
        session = ThermalSession()
        assert session.warm_up([("chip1", 16, "transient")])["errors"] == {}
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for module in (fvm_module, transient_module):
            monkeypatch.setattr(
                module, "build_geometry", counting("build_geometry", module.build_geometry)
            )
        solver_cls = transient_module.TransientFVMSolver
        monkeypatch.setattr(
            solver_cls,
            "thermal_time_constant_estimate",
            counting("time_constant", solver_cls.thermal_time_constant_estimate),
        )
        answer = session.solve("chip1", 40.0, resolution=16, backend="transient")
        assert answer.provenance["quasi_steady"] is True
        assert calls == []
