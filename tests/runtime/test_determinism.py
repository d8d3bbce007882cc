"""Determinism and shutdown guarantees of the multi-core execution plane.

The contract the tentpole refactor rests on: routing solver work through a
:class:`~repro.runtime.plane.ProcessPlane` changes *where* the arithmetic
runs, never *what* it produces — dataset generation and serving answers are
bitwise-equal to the serial plane on fixed seeds — and worker processes
never outlive their plane (context-manager exit, SIGINT).
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.api.session import ThermalSession
from repro.data.generation import DatasetSpec, generate_dataset
from repro.runtime import ProcessPlane, SerialPlane
from repro.serving.backends import build_backends
from repro.serving.engine import MicroBatchEngine
from repro.serving.request import ThermalRequest

RES = 10
SPEC = DatasetSpec(chip_name="chip1", resolution=RES, num_samples=12, seed=5)

_SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture(scope="module")
def process_plane():
    with ProcessPlane(workers=2) as plane:
        yield plane


class TestBitwiseDeterminism:
    def test_dataset_generation_matches_serial(self, process_plane):
        serial = generate_dataset(SPEC, batch_size=4, plane=SerialPlane())
        sharded = generate_dataset(SPEC, batch_size=4, plane=process_plane)
        assert np.array_equal(serial.inputs, sharded.inputs)
        assert np.array_equal(serial.targets, sharded.targets)
        assert np.array_equal(
            serial.metadata["total_power_W"], sharded.metadata["total_power_W"]
        )

    def test_session_solve_batch_matches_inline(self, process_plane):
        powers = [30.0 + index for index in range(8)]
        inline = ThermalSession().solve_batch(
            "chip1", powers, resolution=RES, include_maps=True, use_cache=False
        )
        planar = ThermalSession(plane=process_plane).solve_batch(
            "chip1", powers, resolution=RES, include_maps=True, use_cache=False
        )
        for a, b in zip(inline, planar):
            assert a.max_K == b.max_K and a.min_K == b.min_K and a.mean_K == b.mean_K
            for name in a.layer_maps:
                assert np.array_equal(a.layer_maps[name], b.layer_maps[name])

    def test_serving_answers_match_serial_engine(self, process_plane):
        def answers(session):
            engine = MicroBatchEngine(
                build_backends(session=session), workers=2, max_wait_ms=1.0
            )
            with engine:
                requests = [
                    ThermalRequest.create(chip, total_power_W=40.0 + index, resolution=RES)
                    for index, chip in enumerate(("chip1", "chip2", "chip1", "chip2"))
                ]
                return engine.solve_many(requests, timeout=300)

        serial_answers = answers(ThermalSession())
        planar_answers = answers(ThermalSession(plane=process_plane))
        for a, b in zip(serial_answers, planar_answers):
            assert (a.max_K, a.min_K, a.mean_K) == (b.max_K, b.min_K, b.mean_K)


class TestSeedEquivalence:
    def test_serial_plane_matches_historical_pipeline(self):
        """The plane refactor's serial default reproduces the pre-plane loop
        (sample up front, batches answered from one solver's block basis)."""
        from repro.data.power import PowerSampler
        from repro.chip.designs import get_chip
        from repro.solvers.fvm import FVMSolver

        chip = get_chip(SPEC.chip_name)
        rng = np.random.default_rng(SPEC.seed)
        sampler = PowerSampler(
            chip,
            core_bias=SPEC.core_bias,
            idle_probability=SPEC.idle_probability,
        )
        solver = FVMSolver(chip, nx=SPEC.resolution, cells_per_layer=SPEC.cells_per_layer)
        cases = sampler.sample_many(SPEC.num_samples, rng)
        inputs, targets = [], []
        for start in range(0, SPEC.num_samples, 4):
            batch = cases[start:start + 4]
            maps = solver.solve_layer_maps([case.assignment for case in batch])
            for case, case_maps in zip(batch, maps):
                inputs.append(sampler.rasterize(case, solver.nx, solver.ny))
                targets.append(case_maps)

        dataset = generate_dataset(SPEC, batch_size=4)
        assert np.array_equal(dataset.inputs, np.stack(inputs))
        assert np.array_equal(dataset.targets, np.stack(targets))


class TestCleanShutdown:
    def test_sigint_kills_workers_and_exits_zero(self, tmp_path):
        """A process running a plane exits 0 on SIGINT with no orphans."""
        script = tmp_path / "plane_sigint.py"
        script.write_text(textwrap.dedent("""
            import sys, time
            from repro.runtime import ProcessPlane, PlaneTask
            from repro.runtime.tasks import ping

            def main():
                plane = ProcessPlane(workers=2)
                try:
                    plane.run_all([PlaneTask(fn=ping, payload=i) for i in range(2)],
                                  timeout=120)
                    print("READY", " ".join(map(str, plane.worker_pids())), flush=True)
                    while True:
                        time.sleep(0.1)
                except KeyboardInterrupt:
                    plane.close()
                    print("CLOSED", flush=True)

            if __name__ == "__main__":
                main()
        """))
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert line.startswith("READY"), f"unexpected first line: {line!r}"
            worker_pids = [int(token) for token in line.split()[1:]]
            assert len(worker_pids) == 2
            process.send_signal(signal.SIGINT)
            out = process.communicate(timeout=60)[0]
            assert process.returncode == 0, out
            assert "CLOSED" in out
            deadline = time.time() + 10.0
            while time.time() < deadline and any(_alive(p) for p in worker_pids):
                time.sleep(0.1)
            assert all(not _alive(pid) for pid in worker_pids)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False
