"""Seed determinism of dataset generation.

Generation draws every case up front from the spec's seed and answers each
batch from one solver's block basis, so a dataset equals the plain loop
below bitwise.
"""

import numpy as np

from repro.data.generation import DatasetSpec, generate_dataset

SPEC = DatasetSpec(chip_name="chip1", resolution=10, num_samples=12, seed=5)


class TestSeedEquivalence:
    def test_serial_plane_matches_historical_pipeline(self):
        """Generation reproduces the plain loop: sample up front, answer
        batches from one solver's block basis, rasterise each case."""
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
