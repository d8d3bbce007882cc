"""Unit tests of the inline task runner (:class:`SerialPlane`)."""

import numpy as np
import pytest

from repro.chip.designs import get_chip
from repro.runtime import PlaneTask, SerialPlane
from repro.runtime.plane import STATE_CAPACITY
from repro.runtime.tasks import (
    SolverSpec,
    build_fvm_solver,
    generate_batch,
    solver_state_key,
)

RES = 8  # tiny grids: these tests exercise plumbing, not physics


def _solver_task(chip, assignments, factory=build_fvm_solver):
    spec = SolverSpec(chip=chip, resolution=RES)
    return PlaneTask(
        fn=generate_batch,
        payload=assignments,
        state_key=solver_state_key(spec),
        state_factory=factory,
        state_spec=spec,
    )


@pytest.fixture(scope="module")
def chip():
    return get_chip("chip1")


@pytest.fixture(scope="module")
def assignments(chip):
    from repro.data.power import PowerSampler

    sampler = PowerSampler(chip)
    cases = sampler.sample_many(6, np.random.default_rng(0))
    return [case.assignment for case in cases]


class TestWarmState:
    def test_serial_state_built_once_per_key(self, chip, assignments):
        built = []

        def factory(spec):
            built.append(spec)
            return build_fvm_solver(spec)

        plane = SerialPlane()
        for _ in range(3):
            targets, seconds = plane.submit(_solver_task(chip, assignments, factory))
            assert targets.shape[0] == len(assignments) == len(seconds)
        assert len(built) == 1
        expected, _ = generate_batch(build_fvm_solver(built[0]), assignments)
        assert np.array_equal(targets, expected)

    def test_serial_state_lru_eviction(self):
        built = []

        def task(key):
            return PlaneTask(
                fn=lambda state, payload: state,
                payload=None,
                state_key=key,
                state_factory=lambda spec: built.append(spec) or spec,
                state_spec=key,
            )

        plane = SerialPlane()
        for key in range(STATE_CAPACITY + 1):
            assert plane.submit(task(key)) == key
        assert plane.submit(task(STATE_CAPACITY)) == STATE_CAPACITY  # still warm
        assert built == list(range(STATE_CAPACITY + 1))
        plane.submit(task(0))  # the least recently used key was evicted
        assert built[-1] == 0 and len(built) == STATE_CAPACITY + 2


class TestErrorPropagation:
    @pytest.mark.parametrize("make", [SerialPlane])
    def test_task_exception_reaches_caller(self, make, chip, assignments):
        plane = make()
        with pytest.raises(KeyError):
            plane.submit(_solver_task(chip, [{"nope/block": 1.0}]))
        # The plane survives a failing task, and its warm state with it.
        targets, _ = plane.submit(_solver_task(chip, assignments[:2]))
        assert targets.shape[0] == 2
