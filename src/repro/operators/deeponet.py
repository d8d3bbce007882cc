"""DeepOHeat-style operator baseline built on the DeepONet architecture.

DeepOHeat (Liu et al., DAC 2023) combines physics-informed operator learning
with a DeepONet backbone to map power distributions to temperature fields.
The baseline here keeps the DeepONet structure — a *branch* network encoding
the power map sampled at fixed sensor locations and a *trunk* network
encoding the query coordinate — trained on the same supervised data as the
other models (the physics-informed loss of the original is orthogonal to the
architectural comparison of Table II and is omitted; see DESIGN.md).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.conv import bilinear_resize
from repro.autodiff.tensor import Tensor
from repro.nn.linear import MLP
from repro.nn.module import Module, Parameter
from repro.nn import init
from repro.operators.base import OperatorModel


class DeepOHeatModel(Module):
    """Branch/trunk operator mapping power maps to temperature fields.

    Parameters
    ----------
    in_channels:
        Number of power-map channels (power layers of the chip).
    out_channels:
        Number of temperature output channels (device layers).
    sensor_resolution:
        The branch network sees the power map bilinearly resampled to this
        fixed ``sensor_resolution`` x ``sensor_resolution`` grid, which keeps
        the model resolution-invariant on the input side.
    latent_dim:
        Dimension ``p`` of the branch/trunk inner product.
    branch_hidden, trunk_hidden:
        Hidden layer sizes of the branch and trunk MLPs.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        sensor_resolution: int = 16,
        latent_dim: int = 64,
        branch_hidden: Sequence[int] = (128, 128),
        trunk_hidden: Sequence[int] = (64, 64),
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.sensor_resolution = sensor_resolution
        self.latent_dim = latent_dim
        branch_in = in_channels * sensor_resolution * sensor_resolution
        self.branch = MLP([branch_in, *branch_hidden, latent_dim], rng=rng)
        # Trunk input: (x, y, layer) with the layer index normalised to [0, 1].
        self.trunk = MLP([3, *trunk_hidden, latent_dim], final_activation=True, rng=rng)
        self.bias = Parameter(init.zeros((out_channels,)))

    # ------------------------------------------------------------------
    def _query_points(self, height: int, width: int, dtype) -> np.ndarray:
        """All (x, y, layer) query coordinates for a full-grid prediction."""
        ys = (np.arange(height, dtype=dtype) + 0.5) / height
        xs = (np.arange(width, dtype=dtype) + 0.5) / width
        if self.out_channels > 1:
            layers = np.arange(self.out_channels, dtype=dtype) / (self.out_channels - 1)
        else:
            layers = np.zeros(1, dtype=dtype)
        grid_l, grid_y, grid_x = np.meshgrid(layers, ys, xs, indexing="ij")
        return np.stack([grid_x.ravel(), grid_y.ravel(), grid_l.ravel()], axis=-1)

    def forward(self, x: Tensor) -> Tensor:
        x = Tensor.ensure(x)
        batch, channels, height, width = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {channels}")

        sensors = bilinear_resize(x, (self.sensor_resolution, self.sensor_resolution))
        branch_out = self.branch(sensors.reshape(batch, -1))  # (B, p)

        queries = Tensor(self._query_points(height, width, x.data.dtype))
        trunk_out = self.trunk(queries)  # (C_out * H * W, p)

        # Inner product over the latent dimension.
        values = branch_out @ trunk_out.transpose()  # (B, C_out * H * W)
        values = values.reshape(batch, self.out_channels, height, width)
        return values + self.bias.reshape(1, self.out_channels, 1, 1)

    # ------------------------------------------------------------------
    #: The FNO family's inference helper: eval mode, float32, the caller's
    #: mode restored.
    predict = OperatorModel.predict

    def __repr__(self) -> str:
        return (
            f"DeepOHeatModel(in={self.in_channels}, out={self.out_channels}, "
            f"sensors={self.sensor_resolution}, latent={self.latent_dim})"
        )
