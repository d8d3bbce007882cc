"""Thermal solvers: the "slow but accurate" substrates the operator replaces.

* :mod:`repro.solvers.voxelize` — turn a :class:`~repro.chip.ChipStack` into
  a conductivity grid and a power assignment into its heat source.
* :mod:`repro.solvers.fvm` — steady-state finite-volume heat-conduction
  solver (the stand-in for MTA / COMSOL used both as ground truth for
  training data and as the accuracy/runtime baseline of Table IV).
* :mod:`repro.solvers.hotspot` — block-level compact thermal (RC) model in
  the spirit of HotSpot.
* :mod:`repro.solvers.analytic` — closed-form solutions used to validate the
  numerical solvers.
"""

from repro.solvers.voxelize import GridGeometry, build_geometry
from repro.solvers.factor import SPDFactor, factorize
from repro.solvers.fvm import FVMSolver, SOLVER_VERSION, TemperatureField
from repro.solvers.hotspot import HotSpotModel, BlockTemperatures
from repro.solvers.analytic import slab_1d_robin, poisson_2d_dirichlet_series
from repro.solvers.transient import TransientFVMSolver, TransientResult

__all__ = [
    "GridGeometry",
    "build_geometry",
    "SPDFactor",
    "factorize",
    "FVMSolver",
    "SOLVER_VERSION",
    "TemperatureField",
    "HotSpotModel",
    "BlockTemperatures",
    "slab_1d_robin",
    "poisson_2d_dirichlet_series",
    "TransientFVMSolver",
    "TransientResult",
]
