"""Weight initialisation helpers."""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.autodiff.tensor import get_default_dtype

_GLOBAL_SEED_SEQUENCE = np.random.SeedSequence(20250613)
_DEFAULT_RNG = np.random.default_rng(_GLOBAL_SEED_SEQUENCE)


def default_rng() -> np.random.Generator:
    """The generator used when a layer is built without an explicit ``rng``."""
    return _DEFAULT_RNG


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
    elif len(shape) == 4:  # (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        fan_in = fan_out = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    return max(fan_in, 1), max(fan_out, 1)


def kaiming_uniform(shape, rng: Optional[np.random.Generator] = None):
    """He/Kaiming uniform initialisation (the PyTorch default for conv/linear)."""
    rng = rng or _DEFAULT_RNG
    fan_in, _ = _fan_in_out(tuple(shape))
    bound = math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(get_default_dtype())


def xavier_uniform(shape, rng: Optional[np.random.Generator] = None, gain: float = 1.0):
    """Glorot/Xavier uniform initialisation."""
    rng = rng or _DEFAULT_RNG
    fan_in, fan_out = _fan_in_out(tuple(shape))
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(get_default_dtype())


def normal(shape, std: float = 0.02, rng: Optional[np.random.Generator] = None):
    """Zero-mean Gaussian initialisation."""
    rng = rng or _DEFAULT_RNG
    return (rng.standard_normal(shape) * std).astype(get_default_dtype())


def zeros(shape):
    """All-zeros initialisation (biases)."""
    return np.zeros(shape, dtype=get_default_dtype())


def ones(shape):
    """All-ones initialisation (normalisation scales)."""
    return np.ones(shape, dtype=get_default_dtype())


def uniform(shape, low: float, high: float, rng: Optional[np.random.Generator] = None):
    """Uniform initialisation in ``[low, high)``."""
    rng = rng or _DEFAULT_RNG
    return rng.uniform(low, high, size=shape).astype(get_default_dtype())
