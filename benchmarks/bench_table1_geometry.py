"""Table I — geometric structures and thermal parameters of the 3D-ICs.

Regenerates the configuration table from the in-repo chip designs, checks the
thermal parameters against the paper's values, and micro-benchmarks chip
construction plus voxelisation (the geometry-processing front-end every
simulation pays).
"""

import numpy as np

from repro.chip.designs import get_chip, list_chips
from repro.evaluation import format_table, run_table1
from repro.evaluation.table1 import check_against_paper
from repro.solvers.voxelize import build_geometry


def test_table1_geometry(benchmark):
    rows = run_table1()
    print()
    print(format_table(rows, title="Table I — chip geometry and thermal parameters"))
    assert check_against_paper() == [], "chip parameters diverge from the paper's Table I"

    def build_all_chips():
        return [get_chip(name) for name in list_chips()]

    chips = benchmark(build_all_chips)
    assert len(chips) == 3


def test_voxelization_throughput(benchmark):
    chip = get_chip("chip1")
    assignment = {name: 5.0 for name in chip.flat_block_names()}

    def voxelize():
        geometry = build_geometry(chip, nx=64, cells_per_layer=2)
        return geometry, geometry.rasterize_power(assignment)

    geometry, heat_source = benchmark(voxelize)
    assert geometry.conductivity.shape[1:] == (64, 64)
    volumes = geometry.dx_m * geometry.dy_m * geometry.dz_m[:, None, None]
    assert np.isclose((heat_source * volumes).sum(), 5.0 * len(assignment), rtol=1e-6)
