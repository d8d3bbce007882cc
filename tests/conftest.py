"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.chip.cooling import CoolingSpec, HeatSink, HeatSpreader
from repro.chip.floorplan import Floorplan, FloorplanBlock
from repro.chip.layers import Layer
from repro.chip.materials import SILICON, TIM
from repro.chip.stack import ChipStack
from repro.data.dataset import ThermalDataset
from repro.data.generation import DatasetSpec, generate_dataset
from repro.solvers import factor as factor_module
from repro.solvers import fvm as fvm_module
from repro.solvers import separable as separable_module


def numerical_gradient(fn, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``array``."""
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        plus = fn()
        array[index] = original - eps
        minus = fn()
        array[index] = original
        grad[index] = (plus - minus) / (2.0 * eps)
        iterator.iternext()
    return grad


def assert_gradients_close(analytic: np.ndarray, numeric: np.ndarray, tolerance: float = 1e-5):
    """Assert max absolute deviation between gradient estimates is small."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(np.abs(numeric).max(), 1.0)
    assert np.abs(analytic - numeric).max() <= tolerance * scale, (
        f"gradient mismatch: max abs diff {np.abs(analytic - numeric).max():.3e}"
    )


def assert_same_dataset(dataset: ThermalDataset, reference: ThermalDataset):
    """Assert two generated datasets hold bitwise-equal cases.

    ``metadata["solve_seconds"]`` is wall-clock time and is not compared.
    """
    assert (dataset.chip_name, dataset.resolution) == (reference.chip_name, reference.resolution)
    assert np.array_equal(dataset.inputs, reference.inputs)
    assert np.array_equal(dataset.targets, reference.targets)
    assert np.array_equal(
        dataset.metadata["total_power_W"], reference.metadata["total_power_W"]
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_chip() -> ChipStack:
    """A small two-layer chip used by solver/data tests (fast to simulate)."""
    width = height = 8.0
    core_floorplan = Floorplan(
        width,
        height,
        [
            FloorplanBlock("core", 0.0, 4.0, 8.0, 4.0),
            FloorplanBlock("cache", 0.0, 0.0, 8.0, 4.0),
        ],
        name="tiny_core",
    )
    cache_floorplan = Floorplan(
        width,
        height,
        [
            FloorplanBlock("l2_left", 0.0, 0.0, 4.0, 8.0),
            FloorplanBlock("l2_right", 4.0, 0.0, 4.0, 8.0),
        ],
        name="tiny_cache",
    )
    return ChipStack(
        name="tiny",
        die_width_mm=width,
        die_height_mm=height,
        layers=[
            Layer("cache_layer", 0.15, SILICON, cache_floorplan, is_power_layer=True),
            Layer("core_layer", 0.15, SILICON, core_floorplan, is_power_layer=True),
            Layer("tim", 0.02, TIM),
        ],
        cooling=CoolingSpec(
            spreader=HeatSpreader(width_mm=16.0, height_mm=16.0),
            sink=HeatSink(base_width_mm=30.0, base_height_mm=30.0),
        ),
        power_budget_W=(20.0, 40.0),
    )


@pytest.fixture(scope="session")
def tiny_dataset() -> ThermalDataset:
    """A small generated dataset on chip1 shared by training/evaluation tests."""
    spec = DatasetSpec(chip_name="chip1", resolution=16, num_samples=12, seed=3)
    return generate_dataset(spec)


@pytest.fixture
def count_solver_calls(monkeypatch):
    """``start()`` counts every ``factorize`` call, ``SPDFactor.solve`` call
    and ``SeparableConduction`` build from then on, in the
    ``{"factorize": n, "backsub": n, "separable": n}`` dict it returns.
    Counts are taken under a lock, so concurrent callers lose none."""

    def start():
        calls = {"factorize": 0, "backsub": 0, "separable": 0}
        lock = threading.Lock()
        original_factorize = factor_module.factorize
        original_solve = factor_module.SPDFactor.solve
        original_init = separable_module.SeparableConduction.__init__

        def count(kind):
            with lock:
                calls[kind] += 1

        def counting_factorize(matrix):
            count("factorize")
            return original_factorize(matrix)

        def counting_solve(self, rhs):
            count("backsub")
            return original_solve(self, rhs)

        def counting_init(self, geometry, inertia=None):
            count("separable")
            original_init(self, geometry, inertia)

        monkeypatch.setattr(factor_module, "factorize", counting_factorize)
        monkeypatch.setattr(fvm_module, "factorize", counting_factorize)
        monkeypatch.setattr(factor_module.SPDFactor, "solve", counting_solve)
        monkeypatch.setattr(separable_module.SeparableConduction, "__init__", counting_init)
        return calls

    return start
