"""Unit tests of the execution planes (serial / threads / processes)."""

import os
import time

import numpy as np
import pytest

from repro.chip.designs import get_chip
from repro.runtime import (
    PLANE_KINDS,
    PlaneTask,
    ProcessPlane,
    SerialPlane,
    ThreadPlane,
    create_plane,
)
from repro.runtime.tasks import (
    SolverSpec,
    build_fvm_solver,
    generate_batch,
    ping,
    solver_state_key,
)

RES = 8  # tiny grids: these tests exercise plumbing, not physics


def _ping_tasks(count):
    return [PlaneTask(fn=ping, payload=index) for index in range(count)]


def _solver_task(chip, assignments, affinity=None, resolution=RES):
    spec = SolverSpec(chip=chip, resolution=resolution)
    return PlaneTask(
        fn=generate_batch,
        payload=assignments,
        state_key=solver_state_key(spec),
        state_factory=build_fvm_solver,
        state_spec=spec,
        affinity=affinity,
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


class TestFactoryAndBasics:
    def test_create_plane_kinds(self):
        serial = create_plane("serial")
        assert isinstance(serial, SerialPlane) and serial.workers == 1
        with create_plane("threads", workers=2) as threads:
            assert isinstance(threads, ThreadPlane) and threads.workers == 2
        with pytest.raises(ValueError, match="unknown execution plane"):
            create_plane("gpu")
        assert set(PLANE_KINDS) == {"serial", "threads", "processes"}

    @pytest.mark.parametrize("make", [SerialPlane, lambda: ThreadPlane(workers=3)])
    def test_run_all_preserves_order(self, make):
        with make() as plane:
            assert plane.run_all(_ping_tasks(20)) == list(range(20))

    def test_stateless_tasks_need_no_factory(self):
        plane = SerialPlane()
        assert plane.submit(PlaneTask(fn=ping, payload="x")).result() == "x"

    def test_state_key_without_factory_errors(self):
        plane = SerialPlane()
        future = plane.submit(PlaneTask(fn=ping, payload=1, state_key="k"))
        with pytest.raises(ValueError, match="no state_factory"):
            future.result()

    def test_closed_plane_rejects_submits(self):
        plane = ThreadPlane(workers=1)
        plane.close()
        with pytest.raises(RuntimeError, match="closed"):
            plane.submit(_ping_tasks(1)[0])
        plane.close()  # idempotent


class TestWarmState:
    def test_serial_state_built_once_per_key(self, chip, assignments):
        plane = SerialPlane()
        for _ in range(3):
            targets, seconds = plane.submit(_solver_task(chip, assignments)).result()
            assert targets.shape[0] == len(assignments)
        stats = plane.stats()
        assert stats["tasks"] == 3 and stats["completed"] == 3
        assert stats["per_worker"][0]["warm_keys"] == 1

    def test_serial_state_lru_eviction(self, chip, assignments):
        plane = SerialPlane(state_capacity=1)
        plane.submit(_solver_task(chip, assignments[:2], resolution=RES)).result()
        plane.submit(_solver_task(chip, assignments[:2], resolution=RES + 2)).result()
        assert plane.stats()["per_worker"][0]["warm_keys"] == 1

    def test_reported_warm_keys_track_worker_lru(self, chip, assignments):
        """Parent-side warm_keys mirror the worker's LRU eviction, so the
        number operators budget memory from never overreports residency."""
        with ThreadPlane(workers=1, state_capacity=2) as plane:
            for resolution in (RES, RES + 2, RES + 4):
                plane.submit(
                    _solver_task(chip, assignments[:1], resolution=resolution)
                ).result()
            assert plane.stats()["per_worker"][0]["warm_keys"] == 2

    def test_only_serial_planes_are_synchronous(self):
        assert SerialPlane.synchronous is True
        assert ThreadPlane.synchronous is False and ProcessPlane.synchronous is False

    def test_thread_affinity_routes_same_key_to_one_worker(self, chip, assignments):
        with ThreadPlane(workers=3) as plane:
            tasks = [_solver_task(chip, assignments[:2]) for _ in range(6)]
            plane.run_all(tasks)
            busy = [w for w in plane.stats()["per_worker"] if w["tasks"]]
            assert len(busy) == 1 and busy[0]["tasks"] == 6

    def test_explicit_affinity_shards_across_workers(self, chip, assignments):
        with ThreadPlane(workers=2) as plane:
            tasks = [
                _solver_task(chip, assignments[:2], affinity=index) for index in range(4)
            ]
            plane.run_all(tasks)
            per_worker = plane.stats()["per_worker"]
            assert [w["tasks"] for w in per_worker] == [2, 2]
            # Each worker warmed its own copy of the (single) state key.
            assert all(w["warm_keys"] == 1 for w in per_worker)


class TestErrorPropagation:
    @pytest.mark.parametrize("make", [SerialPlane, lambda: ThreadPlane(workers=2)])
    def test_task_exception_reaches_caller(self, make, chip):
        with make() as plane:
            bad = _solver_task(chip, [{"nope/block": 1.0}])
            with pytest.raises(KeyError):
                plane.submit(bad).result(timeout=60)
            # The plane survives a failing task.
            assert plane.submit(PlaneTask(fn=ping, payload=7)).result() == 7
            assert plane.stats()["errors"] == 1


class TestProcessPlane:
    def test_round_trip_and_stats(self, chip, assignments):
        with ProcessPlane(workers=2) as plane:
            assert plane.run_all(_ping_tasks(4), timeout=120) == list(range(4))
            tasks = [
                _solver_task(chip, assignments[index:index + 2], affinity=index)
                for index in range(3)
            ]
            results = plane.run_all(tasks, timeout=300)
            inline = [generate_batch(build_fvm_solver(tasks[0].state_spec),
                                     task.payload) for task in tasks]
            for (targets, _), (expected, _) in zip(results, inline):
                assert np.array_equal(targets, expected)
            stats = plane.stats()
            assert stats["kind"] == "processes"
            assert stats["tasks"] == 7 and stats["queue_depth"] == 0
            assert sum(w["warm_keys"] for w in stats["per_worker"]) >= 1

    def test_worker_exception_reaches_caller(self, chip):
        with ProcessPlane(workers=1) as plane:
            bad = _solver_task(chip, [{"nope/block": 1.0}])
            with pytest.raises(KeyError):
                plane.submit(bad).result(timeout=120)
            assert plane.submit(PlaneTask(fn=ping, payload=3)).result(timeout=120) == 3

    def test_unpicklable_task_fails_at_submit(self):
        import threading

        with ProcessPlane(workers=1) as plane:
            with pytest.raises(ValueError, match="not picklable"):
                plane.submit(PlaneTask(fn=ping, payload=threading.Lock()))
            # The plane survives and still answers.
            assert plane.submit(PlaneTask(fn=ping, payload=5)).result(timeout=120) == 5

    def test_failed_factory_is_retried_not_poisoned(self, chip):
        """A factory failure must not poison the warm-key: later tasks for
        the same key retry the build (via the worker's recipe cache) and get
        the real error, never 'no state_factory'."""
        with ProcessPlane(workers=1) as plane:
            bad = _solver_task(chip, [], resolution=1)  # build_geometry: nx >= 2
            with pytest.raises(ValueError, match="nx"):
                plane.submit(bad).result(timeout=120)
            # Second task elides the spec (the mirror believes the key warm);
            # the worker rebuilds from its recipe and reports the same error.
            with pytest.raises(ValueError, match="nx"):
                plane.submit(bad).result(timeout=120)

    def test_context_exit_leaves_no_orphans(self):
        with ProcessPlane(workers=2) as plane:
            plane.run_all(_ping_tasks(2), timeout=120)
            pids = plane.worker_pids()
            assert len(pids) == 2
        deadline = time.time() + 10.0
        while time.time() < deadline:
            if all(not _alive(pid) for pid in pids):
                break
            time.sleep(0.1)
        assert all(not _alive(pid) for pid in pids)
        with pytest.raises(RuntimeError, match="closed"):
            plane.submit(_ping_tasks(1)[0])


def _alive(pid):
    """Whether ``pid`` is a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False
