"""Steady-state finite-volume heat-conduction solver.

This is the repository's stand-in for the FEM tools the paper uses (MTA,
COMSOL): it solves the same steady heat-conduction problem

    div(k grad T) + Q = 0

on a structured voxel grid with

* harmonic-mean interface conductivities between cells,
* a Robin (convective) boundary on the top surface representing the TIM →
  heat-spreader → heat-sink → air path (``-k dT/dn = h (T - T_amb)``),
* a weaker Robin boundary on the bottom surface (package / board path), and
* adiabatic lateral faces.

The solver is organised around a **prepare-once / solve-many** split, the
key cost structure behind the paper's data-generation step (thousands of
solves on one chip/grid):

* *Prepare* (once per solver): voxelize the chip geometry
  (:func:`~repro.solvers.voxelize.build_geometry`) and assemble the sparse
  conduction system **directly in CSC** (the 7-point stencil's column
  structure is known in closed form, so no COO intermediate and no
  ``tocsc()`` copy are ever built).  The matrix depends only on geometry;
  power enters the discretisation solely through the right-hand side.
* *Block basis* (once per solver, :meth:`FVMSolver.block_basis`): power
  enters only as per-block uniform densities, so every steady answer is
  exactly ``T = T_amb + sum_b P_b g_b`` where ``g_b`` is block ``b``'s 1 W
  response.  One sparse LU factorisation back-substitutes all the ``g_b``
  in one stacked pass and is then dropped.  The zero-power field needs no
  solve: every row of the matrix sums to its boundary conductance, so
  ``T_amb`` satisfies the power-free system.
* *Solve* (per power case): :meth:`FVMSolver.solve_batch` and
  :meth:`FVMSolver.solve_layer_maps` answer each case with one small
  product against the basis.  :meth:`FVMSolver.solve` stays on direct
  back-substitution against its own lazily built factorisation — the
  independent reference the basis is checked against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.chip.stack import ChipStack
from repro.solvers.factor import SPDFactor, factorize
from repro.solvers.voxelize import GridGeometry, VoxelGrid, build_geometry

#: Bumped whenever the solver pipeline changes in a way that can alter (even
#: in the last floating-point bits) the fields it produces.  Dataset cache
#: keys embed this token so stale datasets regenerate automatically.
#: "4": batch answers and dataset targets come from the exact block basis,
#: within 1e-9 K of direct back-substitution (:meth:`FVMSolver.solve`).
SOLVER_VERSION = "4"


@dataclass
class TemperatureField:
    """Solution of a steady-state simulation.

    Attributes
    ----------
    chip:
        The simulated chip.
    grid:
        The voxel grid the PDE was discretised on.
    values:
        Cell-centred temperatures in kelvin, shape ``(nz, ny, nx)``.
    solve_seconds:
        Wall-clock time attributed to this solve.  For batched solves this
        is the amortised per-case share of the batch.
    """

    chip: ChipStack
    grid: VoxelGrid
    values: np.ndarray
    solve_seconds: float

    @property
    def max_K(self) -> float:
        """Junction (peak) temperature."""
        return float(self.values.max())

    @property
    def min_K(self) -> float:
        return float(self.values.min())

    @property
    def mean_K(self) -> float:
        return float(self.values.mean())

    def layer_map(self, layer_name: str) -> np.ndarray:
        """Average temperature map (ny, nx) of one power layer."""
        indices = self.grid.power_layer_slices.get(layer_name)
        if not indices:
            raise KeyError(f"'{layer_name}' is not a power layer of chip '{self.chip.name}'")
        return self.values[indices].mean(axis=0)

    def power_layer_maps(self) -> np.ndarray:
        """Stack of per-power-layer temperature maps, shape (n_layers, ny, nx)."""
        return np.stack([self.layer_map(name) for name in self.chip.power_layer_names])

    def hotspot_location(self) -> Dict[str, float]:
        """Grid coordinates (mm) and value of the peak temperature."""
        flat_index = int(np.argmax(self.values))
        z, y, x = np.unravel_index(flat_index, self.values.shape)
        return {
            "x_mm": (x + 0.5) * self.chip.die_width_mm / self.grid.nx,
            "y_mm": (y + 0.5) * self.chip.die_height_mm / self.grid.ny,
            "cell_z": float(z),
            "temperature_K": float(self.values[z, y, x]),
        }


def _harmonic_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


@dataclass
class _PreparedSystem:
    """Cached assembly products shared by every solve on one geometry.

    ``matrix`` (CSC, assembled directly in that format) and
    ``rhs_boundary`` capture everything that is independent of the power
    assignment; ``cell_volumes`` converts a volumetric heat source into the
    RHS source term.  ``factor`` is the SPD factorisation of ``matrix``,
    built only by :meth:`FVMSolver.solve` (the block basis factorises
    transiently and keeps nothing).
    """

    matrix: sparse.csc_matrix
    rhs_boundary: np.ndarray
    cell_volumes: np.ndarray
    factor: Optional[SPDFactor] = None


@dataclass(frozen=True)
class _BlockBasis:
    """Exact superposition basis of one geometry: one 1 W response per block.

    Attributes
    ----------
    names:
        ``chip.flat_block_names()``, in order; row ``b`` of both arrays
        belongs to ``names[b]``.
    fields:
        Shape ``(n_blocks, n_cells)``, C-contiguous: row ``b`` is the
        temperature rise ``A^-1 s_b`` above ambient under 1 W on block
        ``b``.  A block with no cell at this resolution has a zero row.
    layer_maps:
        Shape ``(n_blocks, C * ny * nx)``: each row of ``fields`` averaged
        over every power layer's vertical cells, as
        :meth:`TemperatureField.power_layer_maps` averages a field.
    ambient_K:
        The zero-power field, uniform: ``chip.cooling.ambient_K``.
    """

    names: Tuple[str, ...]
    fields: np.ndarray
    layer_maps: np.ndarray
    ambient_K: float


class FVMSolver:
    """Steady-state finite-volume solver for a chip stack.

    Parameters
    ----------
    chip:
        The chip to simulate.
    nx, ny:
        In-plane resolution of the solver grid.
    cells_per_layer:
        Vertical cells per chip layer (2 resolves the through-layer gradient
        well enough for the benchmark chips; increase for convergence
        studies).
    geometry:
        An optional pre-built :class:`~repro.solvers.voxelize.GridGeometry`
        to adopt instead of voxelising ``chip`` lazily — callers that share
        one geometry across solvers (the multifidelity dataset pair, plane
        workers handed a coarsened geometry) pass it here.  Must describe
        the same chip at exactly ``nx`` x ``ny``.
    """

    def __init__(
        self,
        chip: ChipStack,
        nx: int = 64,
        ny: Optional[int] = None,
        cells_per_layer: int = 2,
        geometry: Optional[GridGeometry] = None,
    ):
        self.chip = chip
        self.nx = nx
        self.ny = ny or nx
        self.cells_per_layer = cells_per_layer
        if geometry is not None:
            # Structural fingerprints, not names: a same-named but modified
            # design would otherwise pair this solver's cooling/dimensions
            # with the geometry's conductivity field and silently produce
            # plausible-but-wrong temperatures.
            if geometry.chip is not chip and geometry.chip.fingerprint() != chip.fingerprint():
                raise ValueError(
                    f"geometry was built for a different chip design "
                    f"('{geometry.chip.name}', not '{chip.name}')"
                )
            if (geometry.nx, geometry.ny) != (self.nx, self.ny):
                raise ValueError(
                    f"geometry resolution {geometry.nx}x{geometry.ny} does not "
                    f"match the solver's {self.nx}x{self.ny}"
                )
        self._geometry: Optional[GridGeometry] = geometry
        self._prepared: Optional[_PreparedSystem] = None
        self._basis: Optional[_BlockBasis] = None
        self._basis_rows: Dict[str, int] = {}  # resolved block name -> basis row

    # ------------------------------------------------------------------
    @property
    def geometry(self) -> GridGeometry:
        """The cached power-independent voxelisation of the chip."""
        if self._geometry is None:
            self._geometry = build_geometry(
                self.chip, nx=self.nx, ny=self.ny, cells_per_layer=self.cells_per_layer
            )
        return self._geometry

    def prepare(self) -> _PreparedSystem:
        """Assemble the conduction system once (no factorisation)."""
        if self._prepared is None:
            matrix, rhs_boundary, cell_volumes = self._assemble_system(self.geometry)
            self._prepared = _PreparedSystem(
                matrix=matrix, rhs_boundary=rhs_boundary, cell_volumes=cell_volumes
            )
        return self._prepared

    def block_basis(self) -> _BlockBasis:
        """The exact per-block superposition basis, built once and cached.

        Every block's 1 W source ``s_b`` becomes one column of a stacked
        right-hand side, and one back-substitution answers them all.  The
        factorisation is then dropped: only the basis stays resident.
        """
        if self._basis is None:
            prepared = self.prepare()
            geometry = self.geometry
            names = tuple(self.chip.flat_block_names())
            rows = {
                name: row for row, name in enumerate(names) if self._is_resolved(name)
            }
            fields = np.zeros((len(names), geometry.cell_count))
            if rows:
                volumes = prepared.cell_volumes
                sources = np.stack(
                    [
                        (geometry.rasterize_power({name: 1.0}) * volumes).ravel()
                        for name in rows
                    ],
                    axis=1,
                )
                factor = prepared.factor or factorize(prepared.matrix)
                fields[list(rows.values())] = factor.solve(sources).T
            cubes = fields.reshape(len(names), geometry.nz, geometry.ny, geometry.nx)
            layer_maps = np.stack(
                [
                    cubes[:, geometry.power_layer_slices[layer]].mean(axis=1)
                    for layer in self.chip.power_layer_names
                ],
                axis=1,
            )
            self._basis = _BlockBasis(
                names=names,
                fields=fields,
                layer_maps=layer_maps.reshape(len(names), -1),
                ambient_K=float(self.chip.cooling.ambient_K),
            )
            self._basis_rows = rows
        return self._basis

    def _is_resolved(self, name: str) -> bool:
        """Whether block ``name`` covers at least one cell of this grid."""
        layer_name, block_name = name.split("/", 1)
        floorplan = self.chip.get_layer(layer_name).floorplan
        return bool(floorplan.block_mask(block_name, self.nx, self.ny).any())

    def _block_powers(
        self, basis: _BlockBasis, power_assignments: Sequence[Mapping[str, float]]
    ) -> np.ndarray:
        """Per-case block powers, shape ``(B, n_blocks)``.

        Accepts exactly what :meth:`GridGeometry.rasterize_power` accepts:
        a key or value the basis cannot take (unknown or unresolved block,
        negative power, not a number) hands the case to ``rasterize_power``,
        which raises its own error.  What it lets through there, an
        unresolved block at zero power, adds nothing.
        """
        rows = self._basis_rows
        powers = np.zeros((len(power_assignments), len(basis.names)))
        for case, assignment in zip(powers, power_assignments):
            for name, value in assignment.items():
                row = rows.get(name)
                try:
                    power = float(value)
                except (TypeError, ValueError):
                    row = None
                if row is None or power < 0:
                    self.geometry.rasterize_power(assignment)
                    continue
                case[row] = power
        return powers

    # ------------------------------------------------------------------
    def solve(self, power_assignment: Mapping[str, float]) -> TemperatureField:
        """Solve for the steady temperature field under ``power_assignment``.

        Direct back-substitution against a factorisation this method builds
        on first use and keeps: the single-RHS reference path, independent
        of the block basis.
        """
        start = time.perf_counter()
        prepared = self.prepare()
        if prepared.factor is None:
            prepared.factor = factorize(prepared.matrix)
        geometry = self.geometry
        heat_source = geometry.rasterize_power(power_assignment)
        rhs = prepared.rhs_boundary + (heat_source * prepared.cell_volumes).ravel()
        temperatures = prepared.factor.solve(rhs)
        elapsed = time.perf_counter() - start
        grid = geometry.grid_with_source(heat_source)
        values = temperatures.reshape(geometry.nz, geometry.ny, geometry.nx)
        return TemperatureField(chip=self.chip, grid=grid, values=values, solve_seconds=elapsed)

    def solve_batch(
        self, power_assignments: Sequence[Mapping[str, float]]
    ) -> List[TemperatureField]:
        """Solve many power cases from the block basis.

        Case ``j``'s field is ``ambient_K + p_j @ basis.fields``: one
        product per case, never one batched GEMM, so a case's answer is
        bitwise the same whatever batch it arrives in.  Each returned
        :class:`TemperatureField` carries the amortised per-case wall-clock
        time in ``solve_seconds``.
        """
        if not power_assignments:
            return []
        start = time.perf_counter()
        basis = self.block_basis()
        powers = self._block_powers(basis, power_assignments)
        values = [basis.ambient_K + case @ basis.fields for case in powers]
        per_case = (time.perf_counter() - start) / len(values)
        geometry = self.geometry
        shape = (geometry.nz, geometry.ny, geometry.nx)
        return [
            TemperatureField(
                chip=self.chip,
                grid=geometry.grid_for(assignment),
                values=case_values.reshape(shape),
                solve_seconds=per_case,
            )
            for case_values, assignment in zip(values, power_assignments)
        ]

    def solve_layer_maps(
        self, power_assignments: Sequence[Mapping[str, float]]
    ) -> np.ndarray:
        """Per-power-layer temperature maps of many cases, shape ``(B, C, ny, nx)``.

        The dataset-generation path: case ``j``'s maps are ``ambient_K +
        p_j @ basis.layer_maps`` (one product per case, as in
        :meth:`solve_batch`), with no 3-D field and no rasterisation.
        """
        basis = self.block_basis()
        powers = self._block_powers(basis, power_assignments)
        maps = np.empty((len(powers), basis.layer_maps.shape[1]))
        for row, case in zip(maps, powers):
            row[:] = basis.ambient_K + case @ basis.layer_maps
        return maps.reshape(len(powers), len(self.chip.power_layer_names), self.ny, self.nx)

    # ------------------------------------------------------------------
    def _assemble_system(self, grid):
        """Build the conduction system directly in CSC format.

        ``grid`` may be a :class:`VoxelGrid` or a :class:`GridGeometry` —
        only the geometric fields are read.  Returns ``(matrix,
        rhs_boundary, cell_volumes)`` where ``matrix`` is a
        :class:`scipy.sparse.csc_matrix` with sorted, duplicate-free
        indices, ``rhs_boundary`` holds the ambient (Robin) terms and
        ``cell_volumes`` (shape ``(nz, 1, 1)`` broadcastable to the grid)
        converts a volumetric heat source into the RHS source term.

        The 7-point stencil fixes each CSC column's structure in closed
        form: by symmetry, column ``j`` holds rows ``j + offset`` for the
        offsets ``(-nx*ny, -nx, -1, 0, +1, +nx, +nx*ny)`` whose neighbour
        exists — already in increasing row order.  Laying the seven
        conductance bands out in that order and compressing the invalid
        slots yields the canonical CSC arrays directly, with no COO
        triplets, no duplicate summation and no format conversion before
        factorisation.  The arrays are bitwise-identical to the COO
        reference assembly (:meth:`_assemble_system_coo`) converted via
        ``tocsc()``; the equivalence suite asserts this.
        """
        nz, ny, nx = grid.nz, grid.ny, grid.nx
        dx = self.chip.die_width_mm * 1e-3 / nx
        dy = self.chip.die_height_mm * 1e-3 / ny
        dz = grid.dz_mm * 1e-3
        k = grid.conductivity

        ambient = self.chip.cooling.ambient_K
        top_htc = self.chip.cooling.effective_top_htc(self.chip.die_area_m2)
        bottom_htc = self.chip.cooling.secondary_htc

        n = nz * ny * nx
        diag = np.zeros((nz, ny, nx))
        rhs = np.zeros((nz, ny, nx))
        # Seven stencil bands in increasing row-offset order; band 3 is the
        # diagonal.  ``band_data`` holds the signed matrix entries, ``valid``
        # marks the slots whose neighbour exists.
        band_data = np.zeros((7, nz, ny, nx))
        valid = np.zeros((7, nz, ny, nx), dtype=bool)
        valid[3] = True

        # x-direction faces
        if nx > 1:
            k_face = _harmonic_mean(k[:, :, :-1], k[:, :, 1:])
            area = dy * dz[:, None, None]
            conductance = k_face * area / dx
            diag[:, :, :-1] += conductance
            diag[:, :, 1:] += conductance
            band_data[2, :, :, 1:] = -conductance
            valid[2, :, :, 1:] = True
            band_data[4, :, :, :-1] = -conductance
            valid[4, :, :, :-1] = True

        # y-direction faces
        if ny > 1:
            k_face = _harmonic_mean(k[:, :-1, :], k[:, 1:, :])
            area = dx * dz[:, None, None]
            conductance = k_face * area / dy
            diag[:, :-1, :] += conductance
            diag[:, 1:, :] += conductance
            band_data[1, :, 1:, :] = -conductance
            valid[1, :, 1:, :] = True
            band_data[5, :, :-1, :] = -conductance
            valid[5, :, :-1, :] = True

        # z-direction faces: series conduction through the two half-cells.
        if nz > 1:
            k_lower = k[:-1]
            k_upper = k[1:]
            resist = (0.5 * dz[:-1])[:, None, None] / k_lower + (0.5 * dz[1:])[:, None, None] / k_upper
            conductance = (dx * dy) / resist
            diag[:-1] += conductance
            diag[1:] += conductance
            band_data[0, 1:] = -conductance
            valid[0, 1:] = True
            band_data[6, :-1] = -conductance
            valid[6, :-1] = True

        face_area = dx * dy
        # Top surface: Robin boundary through spreader + sink.  The boundary
        # conductance is the series combination of the half-cell conduction
        # and the film coefficient.
        k_top = k[-1]
        half_resistance = (0.5 * dz[-1]) / k_top
        film_resistance = 1.0 / top_htc
        top_conductance = face_area / (half_resistance + film_resistance)
        diag[-1] += top_conductance
        rhs[-1] += top_conductance * ambient

        # Bottom surface: weak package path.
        if bottom_htc > 0:
            k_bottom = k[0]
            half_resistance = (0.5 * dz[0]) / k_bottom
            film_resistance = 1.0 / bottom_htc
            bottom_conductance = face_area / (half_resistance + film_resistance)
            diag[0] += bottom_conductance
            rhs[0] += bottom_conductance * ambient

        cell_volumes = face_area * dz[:, None, None]
        band_data[3] = diag

        offsets = np.array([-nx * ny, -nx, -1, 0, 1, nx, nx * ny])
        columns = np.arange(n)
        row_of_band = columns[None, :] + offsets[:, None]  # (7, n)
        # Column-major compression: transpose to (n, 7) so each column's
        # band entries are contiguous (and, by construction, row-sorted).
        per_column_valid = valid.reshape(7, n).T
        flat_valid = per_column_valid.ravel()
        indices = row_of_band.T.ravel()[flat_valid]
        data = band_data.reshape(7, n).T.ravel()[flat_valid]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_column_valid.sum(axis=1), out=indptr[1:])
        matrix = sparse.csc_matrix((data, indices, indptr), shape=(n, n))
        return matrix, rhs.ravel(), cell_volumes

    def _assemble_system_coo(self, grid):
        """Reference COO assembly (the historical path), kept as the
        independent system the equivalence and residual tests and the
        prepare-time benchmark compare against.

        Builds the same system as :meth:`_assemble_system` through COO
        triplets coalesced into CSR — the pre-CSC pipeline whose
        ``tocsc()`` conversion the direct assembly eliminates.  Returns
        ``(csr_matrix, rhs_boundary, cell_volumes)``.
        """
        nz, ny, nx = grid.nz, grid.ny, grid.nx
        dx = self.chip.die_width_mm * 1e-3 / nx
        dy = self.chip.die_height_mm * 1e-3 / ny
        dz = grid.dz_mm * 1e-3
        k = grid.conductivity

        ambient = self.chip.cooling.ambient_K
        top_htc = self.chip.cooling.effective_top_htc(self.chip.die_area_m2)
        bottom_htc = self.chip.cooling.secondary_htc

        n = nz * ny * nx
        index = np.arange(n).reshape(nz, ny, nx)

        diag = np.zeros((nz, ny, nx))
        rhs = np.zeros((nz, ny, nx))

        rows = []
        cols = []
        vals = []

        def add_pair(idx_a, idx_b, conductance):
            rows.append(idx_a)
            cols.append(idx_b)
            vals.append(-conductance)

        if nx > 1:
            k_face = _harmonic_mean(k[:, :, :-1], k[:, :, 1:])
            area = dy * dz[:, None, None]
            conductance = k_face * area / dx
            diag[:, :, :-1] += conductance
            diag[:, :, 1:] += conductance
            a = index[:, :, :-1].ravel()
            b = index[:, :, 1:].ravel()
            c = conductance.ravel()
            add_pair(a, b, c)
            add_pair(b, a, c)

        if ny > 1:
            k_face = _harmonic_mean(k[:, :-1, :], k[:, 1:, :])
            area = dx * dz[:, None, None]
            conductance = k_face * area / dy
            diag[:, :-1, :] += conductance
            diag[:, 1:, :] += conductance
            a = index[:, :-1, :].ravel()
            b = index[:, 1:, :].ravel()
            c = conductance.ravel()
            add_pair(a, b, c)
            add_pair(b, a, c)

        if nz > 1:
            k_lower = k[:-1]
            k_upper = k[1:]
            resist = (0.5 * dz[:-1])[:, None, None] / k_lower + (0.5 * dz[1:])[:, None, None] / k_upper
            conductance = (dx * dy) / resist
            diag[:-1] += conductance
            diag[1:] += conductance
            a = index[:-1].ravel()
            b = index[1:].ravel()
            c = conductance.ravel()
            add_pair(a, b, c)
            add_pair(b, a, c)

        face_area = dx * dy
        k_top = k[-1]
        half_resistance = (0.5 * dz[-1]) / k_top
        film_resistance = 1.0 / top_htc
        top_conductance = face_area / (half_resistance + film_resistance)
        diag[-1] += top_conductance
        rhs[-1] += top_conductance * ambient

        if bottom_htc > 0:
            k_bottom = k[0]
            half_resistance = (0.5 * dz[0]) / k_bottom
            film_resistance = 1.0 / bottom_htc
            bottom_conductance = face_area / (half_resistance + film_resistance)
            diag[0] += bottom_conductance
            rhs[0] += bottom_conductance * ambient

        cell_volumes = face_area * dz[:, None, None]

        rows.append(index.ravel())
        cols.append(index.ravel())
        vals.append(diag.ravel())

        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return matrix, rhs.ravel(), cell_volumes
