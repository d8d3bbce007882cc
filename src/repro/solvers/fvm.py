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
  (:func:`~repro.solvers.voxelize.build_geometry`), assemble the sparse
  conduction system **directly in CSC** (the 7-point stencil's column
  structure is known in closed form, so no COO intermediate and no
  ``tocsc()`` copy are ever built) and factorise it with the kernel
  :mod:`repro.solvers.factor` picks for the platform.  The matrix depends
  only on geometry; power enters the discretisation solely through the
  right-hand side.
* *Solve* (per power case): rasterise the power assignment to a heat
  source, add it to the cached boundary RHS, and back-substitute against
  the cached factorisation.  :meth:`FVMSolver.solve_batch` stacks many RHS
  vectors into an ``(n, B)`` matrix and solves them in one shot, amortising
  the factorisation across the whole batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.chip.stack import ChipStack
from repro.solvers.factor import SPDFactor, factorize
from repro.solvers.voxelize import GridGeometry, VoxelGrid, build_geometry

#: Bumped whenever the solver pipeline changes in a way that can alter (even
#: in the last floating-point bits) the fields it produces.  Dataset cache
#: keys embed this token so stale datasets regenerate automatically.
#: "3": direct CSC assembly + platform-selected SPD factorization kernel.
SOLVER_VERSION = "3"


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
    RHS source term; ``factor`` is the SPD factorisation of ``matrix``.
    """

    matrix: sparse.csc_matrix
    rhs_boundary: np.ndarray
    cell_volumes: np.ndarray
    factor: SPDFactor


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
        """Assemble and factorise the system once.

        Subsequent :meth:`solve` / :meth:`solve_batch` calls only pay for
        the power rasterisation and the triangular back-substitution.
        """
        if self._prepared is None:
            matrix, rhs_boundary, cell_volumes = self._assemble_system(self.geometry)
            self._prepared = _PreparedSystem(
                matrix=matrix,
                rhs_boundary=rhs_boundary,
                cell_volumes=cell_volumes,
                factor=factorize(matrix),
            )
        return self._prepared

    # ------------------------------------------------------------------
    def solve(self, power_assignment: Mapping[str, float]) -> TemperatureField:
        """Solve for the steady temperature field under ``power_assignment``."""
        start = time.perf_counter()
        prepared = self.prepare()
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
        """Solve many power cases against the single cached factorisation.

        The RHS vectors are stacked into an ``(n, B)`` matrix and solved in
        one pass, so the factorisation and all symbolic work are paid once
        for the whole batch.  Each returned :class:`TemperatureField`
        carries the amortised per-case wall-clock time in ``solve_seconds``.
        """
        if not power_assignments:
            return []
        start = time.perf_counter()
        prepared = self.prepare()
        geometry = self.geometry
        sources = [geometry.rasterize_power(a) for a in power_assignments]
        power_columns = np.stack(
            [(s * prepared.cell_volumes).ravel() for s in sources], axis=1
        )
        # Broadcast the power-free boundary RHS over the power-column matrix
        # in one vectorised add (elementwise identical to per-column
        # re-stacking, without rebuilding the boundary vector B times).
        rhs_columns = prepared.rhs_boundary[:, None] + power_columns
        solutions = prepared.factor.solve(rhs_columns)
        per_case = (time.perf_counter() - start) / len(power_assignments)

        fields = []
        for case_index, heat_source in enumerate(sources):
            grid = geometry.grid_with_source(heat_source)
            values = solutions[:, case_index].reshape(geometry.nz, geometry.ny, geometry.nx)
            fields.append(
                TemperatureField(
                    chip=self.chip, grid=grid, values=values, solve_seconds=per_case
                )
            )
        return fields

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
