"""Shared machinery of the grid-based neural-operator models."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor, no_grad
from repro.nn.conv import PointwiseConv2d
from repro.nn.module import Module


def coordinate_channels(batch: int, height: int, width: int, dtype=np.float32) -> np.ndarray:
    """Normalised (x, y) coordinate grids appended to the operator input.

    Standard FNO practice: the two extra channels give the operator access to
    absolute position, which matters for boundary effects (the die edges are
    closer to the lateral adiabatic boundaries).  Values span [0, 1] using the
    cell-centre convention so they are resolution-consistent, preserving mesh
    invariance.
    """
    ys = (np.arange(height, dtype=dtype) + 0.5) / height
    xs = (np.arange(width, dtype=dtype) + 0.5) / width
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    coords = np.stack([grid_x, grid_y]).astype(dtype)
    return np.broadcast_to(coords, (batch, 2, height, width)).copy()


class OperatorModel(Module):
    """Base class of the grid-to-grid operator models (FNO family).

    Handles the shared lifting / projection structure:

    * ``P``: a pointwise network lifting ``in_channels (+2 coords)`` to the
      hidden ``width``,
    * subclass-defined iterative layers acting on the lifted representation,
    * ``Q``: a pointwise two-layer network projecting back to
      ``out_channels``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        width: int,
        projection_width: int = 0,
        use_coordinates: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_channels < 1 or out_channels < 1 or width < 1:
            raise ValueError("channel counts and width must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.width = width
        self.use_coordinates = use_coordinates
        self.projection_width = projection_width or max(2 * width, out_channels)
        lifted_in = in_channels + (2 if use_coordinates else 0)
        self.lifting = PointwiseConv2d(lifted_in, width, rng=rng)
        self.projection_hidden = PointwiseConv2d(width, self.projection_width, rng=rng)
        self.projection_out = PointwiseConv2d(self.projection_width, out_channels, rng=rng)

    # ------------------------------------------------------------------
    def lift(self, x: Tensor) -> Tensor:
        """Concatenate coordinate channels and apply the lifting network ``P``."""
        x = Tensor.ensure(x)
        if x.ndim != 4:
            raise ValueError(f"operator input must be (B, C, H, W), got {x.shape}")
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[1]}"
            )
        if self.use_coordinates:
            batch, _, height, width = x.shape
            coords = Tensor(coordinate_channels(batch, height, width, dtype=x.data.dtype))
            x = Tensor.cat([x, coords], axis=1)
        return self.lifting(x)

    def project(self, v: Tensor) -> Tensor:
        """Apply the projection network ``Q``."""
        hidden = F.gelu(self.projection_hidden(v))
        return self.projection_out(hidden)

    def hidden_forward(self, v: Tensor) -> Tensor:
        """The iterative layers between lifting and projection."""
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        return self.project(self.hidden_forward(self.lift(x)))

    # ------------------------------------------------------------------
    def predict(self, inputs: np.ndarray, batch_size: int = 8) -> np.ndarray:
        """Inference helper: run the model over a (N, C, H, W) NumPy array.

        Runs in eval mode and float32, then restores the caller's mode.
        """
        was_training = self.training
        self.eval()
        outputs = []
        try:
            with no_grad():
                for start in range(0, len(inputs), batch_size):
                    chunk = Tensor(inputs[start:start + batch_size].astype(np.float32))
                    outputs.append(self.forward(chunk).data)
        finally:
            self.train(was_training)
        return np.concatenate(outputs, axis=0)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(in={self.in_channels}, out={self.out_channels}, "
            f"width={self.width}, params={self.num_parameters()})"
        )
