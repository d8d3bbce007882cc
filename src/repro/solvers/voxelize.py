"""Voxelisation of a chip stack onto a structured solver grid.

The finite-volume solver works on a structured grid covering the die
footprint: ``nx`` x ``ny`` cells in-plane and a configurable number of cells
per layer in the vertical direction.  This module converts a
:class:`~repro.chip.ChipStack` plus a per-block power assignment into the
cell-centred conductivity and volumetric heat-source fields the solver needs.

The voxelisation is split into two passes so batched solves can amortise the
expensive part:

* :func:`build_geometry` — the power-independent pass.  It lays out the
  vertical cells, fills in the conductivity field and rasterises every power
  layer's floorplan to a block-label map.  The result
  (:class:`GridGeometry`) depends only on the chip and the resolution, so a
  solver can build it once and reuse it for every power case.
* :meth:`GridGeometry.rasterize_power` — the cheap per-case pass.  Power
  enters the discretisation only through the volumetric heat source, which
  is a lookup of per-block power densities through the cached label maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.chip.stack import ChipStack


def _cells_per_layer(chip: ChipStack, cells_per_layer: int, min_cell_mm: float) -> List[int]:
    counts = []
    for layer in chip.layers:
        count = max(1, min(cells_per_layer, int(round(layer.thickness_mm / min_cell_mm))))
        counts.append(count)
    return counts


@dataclass
class _PowerLayerRaster:
    """One power layer's place in the vertical layout.

    The in-plane rasterisation itself (block label map, per-block cell
    counts) is memoised inside the floorplan, so this only records which
    vertical cells the layer occupies and its thickness.
    """

    layer_name: str
    thickness_m: float
    floorplan: object  # repro.chip.floorplan.Floorplan
    z_indices: Tuple[int, ...]  # vertical cells this layer occupies


@dataclass
class GridGeometry:
    """The power-independent half of the voxelisation.

    Everything here — the vertical layout, the conductivity field and the
    per-power-layer floorplan rasters — depends only on the chip geometry
    and the grid resolution.  Building it is the expensive part of the
    voxelisation; once built, :meth:`rasterize_power` produces the heat
    source of any power assignment with a cheap per-case pass.  Solver
    answers carry the geometry itself as their ``grid``, with no per-case
    heat source.

    Attributes
    ----------
    chip:
        The chip the grid was built from.
    nx, ny:
        In-plane resolution (cells along x and y).
    dz_mm:
        Thickness of every vertical cell, bottom to top (length ``nz``).
    conductivity:
        Cell conductivities, shape ``(nz, ny, nx)`` in W/(m·K).
    layer_of_cell:
        For every vertical cell index, the index of the chip layer it
        belongs to.
    power_layer_slices:
        Mapping from power-layer name to the vertical cell indices that
        represent it (used to extract per-layer temperature maps).
    rasters:
        Each power layer's place in the vertical layout.
    """

    chip: ChipStack
    nx: int
    ny: int
    dz_mm: np.ndarray
    conductivity: np.ndarray
    layer_of_cell: np.ndarray
    power_layer_slices: Dict[str, List[int]]
    rasters: List[_PowerLayerRaster] = field(default_factory=list)

    @property
    def nz(self) -> int:
        return len(self.dz_mm)

    @property
    def dx_m(self) -> float:
        return self.chip.die_width_mm * 1e-3 / self.nx

    @property
    def dy_m(self) -> float:
        return self.chip.die_height_mm * 1e-3 / self.ny

    @property
    def dz_m(self) -> np.ndarray:
        return self.dz_mm * 1e-3

    @property
    def cell_count(self) -> int:
        return self.nz * self.ny * self.nx

    # ------------------------------------------------------------------
    def rasterize_power(self, power_assignment: Mapping[str, float]) -> np.ndarray:
        """Rasterise one power assignment to a heat source, shape (nz, ny, nx).

        This is the per-case pass: per block it computes the volumetric
        density ``P / (cells * cell_area * thickness)`` and scatters it
        through the cached label map.
        """
        per_layer_power = self.chip.split_power_assignment(dict(power_assignment))
        heat_source = np.zeros((self.nz, self.ny, self.nx), dtype=np.float64)
        for raster in self.rasters:
            block_powers = per_layer_power.get(raster.layer_name, {})
            density = raster.floorplan.power_density_map(block_powers, self.nx, self.ny)
            volumetric = density / raster.thickness_m
            for z in raster.z_indices:
                heat_source[z] = volumetric
        return heat_source

    def coarsen(self, factor: int) -> "GridGeometry":
        """A geometry for the same chip at ``1/factor`` the in-plane resolution.

        The vertical layout (``dz_mm``, ``layer_of_cell``, power-layer
        slices, floorplan rasters) is resolution-independent and **shared**
        with this geometry; only the in-plane conductivity field is
        re-sampled.  Because :func:`build_geometry` fills each vertical
        cell's conductivity with one per-layer constant, the result is
        bitwise-identical to building the coarse geometry directly — the
        multifidelity dataset pair uses this to voxelise its chip once for
        both fidelities.

        ``factor`` must divide both ``nx`` and ``ny`` exactly.
        """
        factor = int(factor)
        if factor < 1:
            raise ValueError("coarsening factor must be >= 1")
        if factor == 1:
            return self
        if self.nx % factor or self.ny % factor:
            raise ValueError(
                f"coarsening factor {factor} does not divide the geometry's "
                f"{self.nx}x{self.ny} resolution"
            )
        return GridGeometry(
            chip=self.chip,
            nx=self.nx // factor,
            ny=self.ny // factor,
            dz_mm=self.dz_mm,
            conductivity=np.ascontiguousarray(
                self.conductivity[:, ::factor, ::factor]
            ),
            layer_of_cell=self.layer_of_cell,
            power_layer_slices=self.power_layer_slices,
            rasters=self.rasters,
        )


def build_geometry(
    chip: ChipStack,
    nx: int,
    ny: Optional[int] = None,
    cells_per_layer: int = 2,
    min_cell_mm: float = 0.01,
) -> GridGeometry:
    """Run the power-independent voxelisation pass for ``chip``.

    The result can be reused for any number of power cases via
    :meth:`GridGeometry.rasterize_power`.

    Parameters
    ----------
    chip:
        The chip stack to voxelize.
    nx, ny:
        In-plane resolution; ``ny`` defaults to ``nx``.
    cells_per_layer:
        Maximum number of vertical cells per chip layer (thin layers get
        fewer cells, never below one).
    min_cell_mm:
        Minimum vertical cell thickness, used to limit the cell count of
        thick layers.
    """
    if nx < 2:
        raise ValueError("nx must be at least 2")
    ny = ny or nx
    per_layer_counts = _cells_per_layer(chip, cells_per_layer, min_cell_mm)

    dz_list: List[float] = []
    conductivity_slabs: List[np.ndarray] = []
    layer_of_cell: List[int] = []
    power_layer_slices: Dict[str, List[int]] = {name: [] for name in chip.power_layer_names}
    rasters: List[_PowerLayerRaster] = []

    cell_index = 0
    for layer_index, (layer, count) in enumerate(zip(chip.layers, per_layer_counts)):
        sub_thickness = layer.thickness_mm / count
        conductivity_plane = np.full((ny, nx), layer.effective_material.conductivity)
        z_indices = list(range(cell_index, cell_index + count))
        for _ in range(count):
            dz_list.append(sub_thickness)
            conductivity_slabs.append(conductivity_plane)
            layer_of_cell.append(layer_index)
            if layer.is_power_layer:
                power_layer_slices[layer.name].append(cell_index)
            cell_index += 1
        if layer.is_power_layer:
            rasters.append(
                _PowerLayerRaster(
                    layer_name=layer.name,
                    thickness_m=layer.thickness_mm * 1e-3,
                    floorplan=layer.floorplan,
                    z_indices=tuple(z_indices),
                )
            )

    return GridGeometry(
        chip=chip,
        nx=nx,
        ny=ny,
        dz_mm=np.asarray(dz_list, dtype=np.float64),
        conductivity=np.stack(conductivity_slabs).astype(np.float64),
        layer_of_cell=np.asarray(layer_of_cell, dtype=np.int64),
        power_layer_slices=power_layer_slices,
        rasters=rasters,
    )
