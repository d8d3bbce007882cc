"""Unit tests of the chaos spec grammar and fault-plan bookkeeping."""

import pytest

from repro.runtime.faults import BackendFault, FaultPlan, InjectedFault


class TestParseGrammar:
    def test_fail_backend(self):
        plan = FaultPlan.parse("fail-backend:fvm@3")
        assert plan.backend_faults == (BackendFault(backend="fvm", fail_first=3),)
        assert plan.spec == "fail-backend:fvm@3"

    def test_delay_backend(self):
        plan = FaultPlan.parse("delay-backend:hotspot:0.5@2")
        (fault,) = plan.backend_faults
        assert fault.backend == "hotspot"
        assert fault.delay_s == 0.5
        assert fault.delay_first == 2

    def test_combined_spec(self):
        plan = FaultPlan.parse("delay-backend:fvm:0.2@1, fail-backend:transient@3")
        assert plan.backend_faults == (
            BackendFault(backend="fvm", delay_s=0.2, delay_first=1),
            BackendFault(backend="transient", fail_first=3),
        )

    def test_directives_on_one_target_merge(self):
        plan = FaultPlan.parse("fail-backend:fvm@2,delay-backend:fvm:0.1@5")
        (fault,) = plan.backend_faults
        assert (fault.fail_first, fault.delay_s, fault.delay_first) == (2, 0.1, 5)

    @pytest.mark.parametrize(
        "bad",
        [
            "kill-worker:0",          # no @count
            "kill-worker@5",          # no target
            "kill-worker:zero@5",     # unknown kind (worker directives are gone)
            "kill-worker:-1@5",       # unknown kind
            "kill-worker:0@five",     # non-integer count
            "kill-worker:0@-1",       # negative count
            "kill-worker:0@5",        # unknown kind
            "drop-result:0@1",        # unknown kind
            "fail-backend:fvm@five",  # non-integer count
            "fail-backend:fvm@-1",    # negative count
            "delay-backend:fvm@3",    # missing seconds operand
            "delay-backend:fvm:fast@3",
            "explode-host:0@1",       # unknown kind
        ],
    )
    def test_bad_directives_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    @pytest.mark.parametrize("removed", ["kill-worker:0@5", "drop-result:0@1"])
    def test_worker_directives_name_the_backend_kinds(self, removed):
        with pytest.raises(ValueError, match="known: fail-backend, delay-backend"):
            FaultPlan.parse(removed)

    def test_empty_segments_are_ignored(self):
        plan = FaultPlan.parse("fail-backend:fvm@1,,")
        assert len(plan.backend_faults) == 1


class TestBackendInjection:
    def test_fail_first_n_then_clean(self):
        plan = FaultPlan.parse("fail-backend:fvm@2")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.on_backend_solve("fvm")
        plan.on_backend_solve("fvm")  # third call passes
        plan.on_backend_solve("hotspot")  # untargeted backends never fire
        stats = plan.stats()
        assert stats["backends"]["fvm"] == {
            "calls": 3,
            "injected_failures": 2,
            "injected_delays": 0,
        }

    def test_delay_fires_and_is_counted(self):
        plan = FaultPlan.parse("delay-backend:fvm:0.01@1")
        plan.on_backend_solve("fvm")
        plan.on_backend_solve("fvm")
        assert plan.stats()["backends"]["fvm"]["injected_delays"] == 1

    def test_stats_shape(self):
        plan = FaultPlan.parse("fail-backend:fvm@1")
        assert plan.stats() == {
            "spec": "fail-backend:fvm@1",
            "backends": {
                "fvm": {"calls": 0, "injected_failures": 0, "injected_delays": 0}
            },
        }
