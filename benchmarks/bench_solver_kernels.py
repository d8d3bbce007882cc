"""Micro-benchmarks of the computational kernels underlying every experiment.

Not a paper table by itself, but the cost model behind them: FVM assembly and
solve at the two Table II resolutions — cold (per-case factorisation, the
seed pipeline's cost model), warm (cached factorisation) and batched (one
product per case against the block basis) —, the symmetric factorisation
against SuperLU's default ordering, the HotSpot network solve, one forward
pass of each operator family, the
forward + backward of the three autodiff kernels that dominate a SAU-FNO
training step, and one training step of SAU-FNO.  Useful for tracking
performance regressions of
the substrates; the cached-vs-cold pair reports the amortised speedup the
prepare-once / solve-many refactor buys dataset generation.
"""

import time
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import linalg as sparse_linalg

from repro.autodiff import functional as F
from repro.autodiff.attention import softmax_attention
from repro.autodiff.conv import conv2d
from repro.autodiff.spectral import spectral_conv2d
from repro.autodiff.tensor import Tensor
from repro.chip.designs import get_chip
from repro.data.power import PowerSampler
from repro.evaluation.config import get_scale
from repro.operators import FNO2d, SAUFNO2d, UFNO2d, build_operator
from repro.optim import Adam
from repro.solvers.factor import factorize
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
    solver.solve(case.assignment)  # builds the factor solve() keeps
    field = benchmark(lambda: solver.solve(case.assignment))
    assert field.max_K > 300.0


def test_fvm_solve_batch_amortized(benchmark, chip_and_case):
    """Batched solve of 16 cases at resolution 48 from a built block basis;
    the reported time divided by 16 is the amortised per-case cost."""
    chip, _ = chip_and_case
    sampler = PowerSampler(chip)
    cases = sampler.sample_many(16, np.random.default_rng(1))
    assignments = [case.assignment for case in cases]
    solver = FVMSolver(chip, nx=48, cells_per_layer=2)
    solver.block_basis()
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


def test_factorize_symmetric_ordering_win(benchmark):
    """``factorize`` (minimum-degree ordering on ``A^T + A``, diagonal
    pivots) vs a default ``splu`` (COLAMD, partial pivoting) of the same
    chip2 system at resolution 48, 18,432 cells.  Best-of-3 each way,
    alternating; ``extra_info`` records both times, the speedup and the
    fill ratio (stored L+U entries).  Bars: >= 1.5x faster and <= 0.6x the
    fill; measured 2.5-2.8x and 0.444x on a 2-vCPU host."""
    matrix = FVMSolver(get_chip("chip2"), nx=48, cells_per_layer=2).prepare().matrix
    colamd_seconds, symmetric_seconds = [], []
    for _ in range(3):
        start = time.perf_counter()
        colamd = sparse_linalg.splu(matrix)
        colamd_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        factor = factorize(matrix)
        symmetric_seconds.append(time.perf_counter() - start)
    benchmark.pedantic(lambda: factorize(matrix), rounds=3, iterations=1)
    speedup = min(colamd_seconds) / min(symmetric_seconds)
    fill_ratio = factor._solve.__self__.nnz / colamd.nnz
    benchmark.extra_info["colamd_seconds"] = min(colamd_seconds)
    benchmark.extra_info["factorize_seconds"] = min(symmetric_seconds)
    benchmark.extra_info["factorize_speedup"] = speedup
    benchmark.extra_info["fill_ratio"] = fill_ratio
    assert speedup >= 1.5
    assert fill_ratio <= 0.6


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
    assert out.dtype == np.float32  # no silent float64 promotion


#: Per kernel: operand shapes, the upstream gradient's shape and the op, at
#: the shapes of perfbench's ``train`` workload (``tiny`` model, batch 4,
#: 40 x 40 grid): the U-Net's 24 -> 8 3x3 convolution, the 8-mode spectral
#: op at width 16, and attention over N = 1600 positions with d = 16.
_TRAIN_KERNELS = {
    "conv2d": (
        [(4, 24, 40, 40), (8, 24, 3, 3), (8,)], (4, 8, 40, 40),
        lambda x, w, b: conv2d(x, w, b, padding=1),
    ),
    "spectral_conv2d": (
        [(4, 16, 40, 40), (2, 16, 16, 8, 8), (2, 16, 16, 8, 8)], (4, 16, 40, 40),
        lambda x, wr, wi: spectral_conv2d(x, wr, wi, 8, 8),
    ),
    "softmax_attention": (
        [(4, 1600, 16), (4, 16, 1600), (4, 1600, 16)], (4, 1600, 16),
        lambda q, k, v: softmax_attention(q, k, v, 0.25),
    ),
}


@pytest.mark.parametrize("kernel", list(_TRAIN_KERNELS))
def test_autodiff_kernel(benchmark, kernel):
    """Forward + backward of one training-step kernel, float32 throughout."""
    shapes, upstream_shape, op = _TRAIN_KERNELS[kernel]
    rng = np.random.default_rng(0)
    operands = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
    upstream = rng.standard_normal(upstream_shape).astype(np.float32)

    def step():
        tensors = [Tensor(array, requires_grad=True) for array in operands]
        out = op(*tensors)
        out.backward(upstream)
        return [out.dtype] + [tensor.grad.dtype for tensor in tensors]

    dtypes = benchmark(step)
    assert all(dtype == np.float32 for dtype in dtypes)  # no silent float64 promotion


def test_sau_fno_training_step(benchmark):
    model = _tiny(SAUFNO2d, num_fourier_layers=1, num_ufourier_layers=1,
                  unet_base_channels=8, unet_levels=2, attention_dim=16)
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 2, 32, 32)).astype(np.float32))
    y = Tensor(rng.standard_normal((4, 2, 32, 32)).astype(np.float32))

    def step():
        optimizer.zero_grad()
        prediction = model(x)
        loss = F.mse_loss(prediction, y)
        loss.backward()
        optimizer.step()
        return prediction.dtype, loss.item()

    dtype, loss = benchmark(step)
    assert np.isfinite(loss)
    assert dtype == np.float32  # no silent float64 promotion


def test_sau_fno_small_scale_step_memory():
    """One SAU-FNO training step at the ``small`` scale (width 24, batch 8,
    64 x 64 grid, N = 4096 positions) stays under a fixed memory bar."""
    batch, resolution = 8, 64
    model = build_operator("sau_fno", 2, 2, get_scale("small").model.as_dict(),
                           np.random.default_rng(0))
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((batch, 2, resolution, resolution)).astype(np.float32))
    y = Tensor(rng.standard_normal((batch, 2, resolution, resolution)).astype(np.float32))

    def step():
        optimizer.zero_grad()
        loss = F.mse_loss(model(x), y)
        loss.backward()
        optimizer.step()
        return loss.item()

    step()  # warm-up: Adam's moment arrays exist from here on
    tracemalloc.start()
    try:
        loss = step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss)
    # The bar is two float32 (B, N, N) arrays, 1,074 MB: what an attention op
    # that keeps its weights for the backward holds on its own (the weights
    # plus the backward's score gradient), so a step that holds an N x N array
    # again crosses it.  With query blocks, interior gradients freed during
    # backward and convolutions that keep only their padded input, the whole
    # step traces at ~0.4 GB.
    positions = resolution * resolution
    bar = 2 * batch * positions ** 2 * 4
    assert peak < bar, f"traced peak {peak / 1e6:.0f} MB >= bar {bar / 1e6:.0f} MB"
