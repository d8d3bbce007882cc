"""Micro-benchmarks of the computational kernels underlying every experiment.

Not a paper table by itself, but the cost model behind them: FVM assembly and
solve at the two Table II resolutions — cold (per-case factorisation, the
seed pipeline's cost model) and warm (cached factorisation, batched RHS) —
the HotSpot network solve, one forward pass of each operator family, and
one training step of SAU-FNO.  Useful for tracking performance regressions of
the substrates; the cached-vs-cold pair reports the amortised speedup the
prepare-once / solve-many refactor buys dataset generation.
"""

import time

import numpy as np
import pytest

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.chip.designs import get_chip
from repro.data.power import PowerSampler
from repro.operators import FNO2d, SAUFNO2d, UFNO2d
from repro.optim import Adam
from repro.solvers.fvm import FVMSolver
from repro.solvers.hotspot import HotSpotModel


@pytest.fixture(scope="module")
def chip_and_case():
    chip = get_chip("chip1")
    case = PowerSampler(chip).sample(np.random.default_rng(0))
    return chip, case


@pytest.mark.parametrize("resolution", [32, 48])
def test_fvm_solve_cold(benchmark, chip_and_case, resolution):
    """Per-case cost with no caching: fresh solver (voxelize + assemble +
    factorise) every solve, the seed pipeline's cost model."""
    chip, case = chip_and_case
    field = benchmark(
        lambda: FVMSolver(chip, nx=resolution, cells_per_layer=2).solve(case.assignment)
    )
    assert field.max_K > 300.0


@pytest.mark.parametrize("resolution", [32, 48])
def test_fvm_solve_warm(benchmark, chip_and_case, resolution):
    """Per-case cost against a prepared solver (cached factorisation)."""
    chip, case = chip_and_case
    solver = FVMSolver(chip, nx=resolution, cells_per_layer=2)
    solver.prepare()
    field = benchmark(lambda: solver.solve(case.assignment))
    assert field.max_K > 300.0


def test_fvm_solve_batch_amortized(benchmark, chip_and_case):
    """Batched solve of 16 cases at resolution 48; the reported time divided
    by 16 is the amortised per-case cost of the data-generation loop."""
    chip, _ = chip_and_case
    sampler = PowerSampler(chip)
    cases = sampler.sample_many(16, np.random.default_rng(1))
    assignments = [case.assignment for case in cases]
    solver = FVMSolver(chip, nx=48, cells_per_layer=2)
    solver.prepare()
    fields = benchmark(lambda: solver.solve_batch(assignments))
    assert len(fields) == 16
    benchmark.extra_info["cases_per_round"] = 16


def test_csc_assembly_prepare_win(benchmark, chip_and_case):
    """Direct CSC assembly vs the legacy COO -> CSR -> tocsc() pipeline at
    resolution 64.  The two produce bitwise-identical matrices (asserted);
    the direct path skips the triplet coalescing and the format-conversion
    copy, and ``extra_info['prepare_speedup']`` records the measured win
    (best-of-7 each way, to shrug off scheduler noise).  The bar is a real
    (>= 5%) improvement; measured ~1.2-1.5x on the benchmark hosts."""
    chip, _ = chip_and_case
    solver = FVMSolver(chip, nx=64, cells_per_layer=2)
    geometry = solver.geometry  # voxelised once; both paths assemble only

    matrix, rhs, _ = solver._assemble_system(geometry)
    legacy_csc = solver._assemble_system_coo(geometry)[0].tocsc()
    legacy_csc.sort_indices()
    assert np.array_equal(matrix.indptr, legacy_csc.indptr)
    assert np.array_equal(matrix.indices, legacy_csc.indices)
    assert np.array_equal(matrix.data, legacy_csc.data)

    def best_of(fn, rounds=7):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    legacy_seconds = best_of(
        lambda: solver._assemble_system_coo(geometry)[0].tocsc().sort_indices()
    )
    direct_seconds = best_of(lambda: solver._assemble_system(geometry))
    benchmark(lambda: solver._assemble_system(geometry))
    benchmark.extra_info["legacy_coo_tocsc_seconds"] = legacy_seconds
    benchmark.extra_info["direct_csc_seconds"] = direct_seconds
    benchmark.extra_info["prepare_speedup"] = legacy_seconds / direct_seconds
    assert legacy_seconds / direct_seconds >= 1.05


def test_dataset_generation_cached_vs_cold(benchmark, chip_and_case):
    """The acceptance measurement: chip1, resolution 48, 64 samples through
    the batched cached-factorisation pipeline, with the cold per-case cost
    (seed behaviour: fresh voxelisation + assembly + factorisation each
    solve) measured alongside.  ``extra_info['amortized_speedup']`` records
    the ratio; the refactor targets >= 5x."""
    from repro.data.generation import DatasetSpec, generate_dataset

    chip, case = chip_and_case
    spec = DatasetSpec(chip_name="chip1", resolution=48, num_samples=64, seed=0)

    cold_rounds = 5
    start = time.perf_counter()
    for _ in range(cold_rounds):
        cold_field = FVMSolver(chip, nx=48, cells_per_layer=2).solve(case.assignment)
    cold_per_case = (time.perf_counter() - start) / cold_rounds

    elapsed = {}

    def run():
        begin = time.perf_counter()
        dataset = generate_dataset(spec)
        elapsed["seconds"] = time.perf_counter() - begin
        return dataset

    dataset = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert dataset.inputs.shape[0] == 64

    generation_per_case = elapsed["seconds"] / spec.num_samples
    solver_per_case = float(np.mean(dataset.metadata["solve_seconds"]))
    benchmark.extra_info["cold_seconds_per_case"] = cold_per_case
    benchmark.extra_info["generation_seconds_per_case"] = generation_per_case
    benchmark.extra_info["solver_seconds_per_case"] = solver_per_case
    benchmark.extra_info["amortized_speedup"] = cold_per_case / generation_per_case
    # The acceptance bar for the prepare-once refactor.
    assert cold_per_case / generation_per_case >= 5.0
    # Sanity: the batched path reproduces the cold solver's physics.
    warm_solver = FVMSolver(chip, nx=48, cells_per_layer=2)
    warm_solver.prepare()
    batched_field = warm_solver.solve_batch([case.assignment])[0]
    assert abs(batched_field.max_K - cold_field.max_K) < 1e-6


def test_hotspot_solve(benchmark, chip_and_case):
    chip, case = chip_and_case
    model = HotSpotModel(chip)
    result = benchmark(lambda: model.solve(case.assignment))
    assert result.max_K > 300.0


def test_hotspot_build_and_solve_cold(benchmark, chip_and_case):
    """Network assembly + factorisation + solve, the pre-caching cost."""
    chip, case = chip_and_case
    result = benchmark(lambda: HotSpotModel(chip).solve(case.assignment))
    assert result.max_K > 300.0


def _tiny(model_cls, **extra):
    return model_cls(2, 2, width=16, modes1=8, modes2=8, **extra)


@pytest.mark.parametrize(
    "name,factory",
    [
        ("fno", lambda: _tiny(FNO2d, num_layers=4)),
        ("ufno", lambda: _tiny(UFNO2d, num_fourier_layers=2, num_ufourier_layers=2,
                               unet_base_channels=8, unet_levels=2)),
        ("sau_fno", lambda: _tiny(SAUFNO2d, num_fourier_layers=2, num_ufourier_layers=2,
                                  unet_base_channels=8, unet_levels=2, attention_dim=16)),
    ],
)
def test_operator_forward(benchmark, name, factory):
    model = factory()
    x = np.random.default_rng(0).standard_normal((1, 2, 40, 40)).astype(np.float32)
    out = benchmark(lambda: model.predict(x))
    assert out.shape == (1, 2, 40, 40)


def test_sau_fno_training_step(benchmark):
    model = _tiny(SAUFNO2d, num_fourier_layers=1, num_ufourier_layers=1,
                  unet_base_channels=8, unet_levels=2, attention_dim=16)
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 2, 32, 32)).astype(np.float32))
    y = Tensor(rng.standard_normal((4, 2, 32, 32)).astype(np.float32))

    def step():
        optimizer.zero_grad()
        loss = F.mse_loss(model(x), y)
        loss.backward()
        optimizer.step()
        return loss.item()

    loss = benchmark(step)
    assert np.isfinite(loss)
