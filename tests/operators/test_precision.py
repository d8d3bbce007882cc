"""Precision policy: every operator computes in float32 end to end.

A float32 forward and an MSE backward must keep float32 on every node of
the tape, and no backward closure may hand ``Tensor._accumulate`` a
gradient of another dtype (it would be cast and copied back silently).
"""

import numpy as np
import pytest

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.operators import build_operator

_SPECTRAL = dict(width=8, modes1=3, modes2=3)
_UNET = dict(num_fourier_layers=1, num_ufourier_layers=1, unet_base_channels=4, unet_levels=1)

_CONFIGS = {
    "fno": ("fno", dict(_SPECTRAL, num_layers=2)),
    "ufno": ("ufno", dict(_SPECTRAL, **_UNET)),
    "sau_fno_softmax": ("sau_fno", dict(_SPECTRAL, **_UNET, attention_dim=4)),
    "sau_fno_linear": (
        "sau_fno", dict(_SPECTRAL, **_UNET, attention_dim=4, attention_type="linear")
    ),
    "deepoheat": (
        "deepoheat",
        dict(sensor_resolution=4, latent_dim=8, branch_hidden=(16,), trunk_hidden=(16,)),
    ),
}


def _tape(root: Tensor):
    """Every tensor reachable from ``root`` through ``_parents``."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.mark.parametrize("key", sorted(_CONFIGS))
def test_float32_forward_and_backward(key, rng, monkeypatch):
    name, config = _CONFIGS[key]
    model = build_operator(name, 2, 2, config, rng=np.random.default_rng(0))
    x = Tensor(rng.standard_normal((2, 2, 12, 12)).astype(np.float32))
    y = Tensor(rng.standard_normal((2, 2, 12, 12)).astype(np.float32))

    mismatched = []
    accumulate = Tensor._accumulate

    def spy(self, grad):
        if np.asarray(grad).dtype != self.data.dtype:
            mismatched.append((np.asarray(grad).dtype, self.data.dtype, self.shape))
        accumulate(self, grad)

    monkeypatch.setattr(Tensor, "_accumulate", spy)
    prediction = model(x)
    loss = F.mse_loss(prediction, y)
    loss.backward()

    assert prediction.dtype == np.float32
    promoted = [node for node in _tape(loss) if node.data.dtype != np.float32]
    assert not promoted, f"{len(promoted)} tape nodes left float32, e.g. {promoted[:3]}"
    assert not mismatched, f"{len(mismatched)} gradients of the wrong dtype, e.g. {mismatched[:3]}"
    assert all(p.grad.dtype == np.float32 for p in model.parameters() if p.grad is not None)
