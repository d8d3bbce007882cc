"""Table IV: SAU-FNO versus the PDE solvers (COMSOL / MTA / HotSpot).

The paper compares the maximum (junction) and minimum temperatures predicted
by COMSOL, MTA, HotSpot and SAU-FNO on a handful of held-out power maps per
chip, and reports the wall-clock speedup of the operator over the solvers.

Solver stand-ins in this repository (see DESIGN.md):

* **"COMSOL"** — the FVM solver on a finer reference mesh (the most accurate
  configuration we have, used as the error reference like COMSOL is in the
  paper).
* **"MTA"** — the same FVM solver at the standard data-generation mesh.
* **"HotSpot"** — the block-level compact RC model.
* **"SAU-FNO"** — the operator trained on "MTA" data at the standard mesh.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.chip.designs import get_chip
from repro.data.cache import DatasetCache
from repro.data.generation import DatasetSpec
from repro.data.power import PowerSampler
from repro.evaluation.config import ExperimentScale, scale_from_env
from repro.metrics.timing import speedup
from repro.operators.factory import build_operator
from repro.solvers.fvm import FVMSolver
from repro.solvers.hotspot import HotSpotModel
from repro.training.trainer import Trainer, TrainingConfig


def _train_sau_fno(scale: ExperimentScale, chip_name: str, resolution: int, cache: DatasetCache):
    """Train the SAU-FNO surrogate used in the Table IV comparison."""
    spec = DatasetSpec(
        chip_name=chip_name,
        resolution=resolution,
        num_samples=scale.num_samples,
        seed=scale.seed,
    )
    dataset = cache.get(spec)
    split = dataset.split(scale.train_fraction, rng=np.random.default_rng(scale.seed))
    model = build_operator(
        "sau_fno",
        dataset.num_input_channels,
        dataset.num_output_channels,
        scale.model.as_dict(),
        np.random.default_rng(scale.seed),
    )
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=scale.epochs,
            batch_size=scale.batch_size,
            learning_rate=scale.learning_rate,
            weight_decay=scale.weight_decay,
            lr_decay_step=max(scale.epochs // 3, 1),
            seed=scale.seed,
        ),
    )
    trainer.fit(split.train)
    return trainer


def run_table4(
    scale: Optional[ExperimentScale] = None,
    chip_names: Sequence[str] = ("chip1", "chip2", "chip3"),
    cache: Optional[DatasetCache] = None,
    verbose: bool = False,
) -> Dict[str, object]:
    """Regenerate Table IV and the Section IV-D speedup numbers.

    Returns a dictionary with ``rows`` (max/min temperature per chip and
    solver), ``timing_rows`` (seconds per case and speedups) and the raw
    per-case records.
    """
    scale = scale or scale_from_env()
    cache = cache or DatasetCache()
    rows: List[Dict[str, object]] = []
    timing_rows: List[Dict[str, object]] = []

    for chip_name in chip_names:
        chip = get_chip(chip_name)
        sampler = PowerSampler(chip)
        rng = np.random.default_rng(scale.seed + 100)
        cases = sampler.sample_many(scale.table4_num_cases, rng)

        reference_solver = FVMSolver(chip, nx=scale.table4_reference_resolution, cells_per_layer=3)
        standard_solver = FVMSolver(chip, nx=scale.table4_standard_resolution, cells_per_layer=2)
        hotspot = HotSpotModel(chip)
        if verbose:
            print(f"[table4] training SAU-FNO surrogate for {chip_name}")
        trainer = _train_sau_fno(scale, chip_name, scale.table4_standard_resolution, cache)

        records = {
            "COMSOL": {"max": [], "min": [], "seconds": []},
            "MTA": {"max": [], "min": [], "seconds": []},
            "Hotspot": {"max": [], "min": [], "seconds": []},
            "Ours": {"max": [], "min": [], "seconds": []},
        }
        # Both field solvers run their cases as one batch against a single
        # block basis; solve_seconds is the amortised per-case cost.
        assignments = [case.assignment for case in cases]
        reference_fields = reference_solver.solve_batch(assignments)
        standard_fields = standard_solver.solve_batch(assignments)
        for case, reference, standard in zip(cases, reference_fields, standard_fields):
            records["COMSOL"]["max"].append(reference.max_K)
            records["COMSOL"]["min"].append(reference.min_K)
            records["COMSOL"]["seconds"].append(reference.solve_seconds)

            records["MTA"]["max"].append(standard.max_K)
            records["MTA"]["min"].append(standard.min_K)
            records["MTA"]["seconds"].append(standard.solve_seconds)

            block = hotspot.solve(case.assignment)
            records["Hotspot"]["max"].append(block.max_K)
            records["Hotspot"]["min"].append(block.min_K)
            records["Hotspot"]["seconds"].append(block.solve_seconds)

            power_maps = sampler.rasterize(
                case, scale.table4_standard_resolution, scale.table4_standard_resolution
            )[None]
            start = time.perf_counter()
            prediction = trainer.predict(power_maps)
            elapsed = time.perf_counter() - start
            records["Ours"]["max"].append(float(prediction.max()))
            records["Ours"]["min"].append(float(prediction.min()))
            records["Ours"]["seconds"].append(elapsed)

        reference_max = float(np.mean(records["COMSOL"]["max"]))
        reference_min = float(np.mean(records["COMSOL"]["min"]))
        for metric in ("max", "min"):
            row: Dict[str, object] = {"Chip": chip_name, "Metric": f"{metric.capitalize()}(K)"}
            for solver_name in ("COMSOL", "MTA", "Hotspot", "Ours"):
                row[solver_name] = round(float(np.mean(records[solver_name][metric])), 3)
            reference_value = reference_max if metric == "max" else reference_min
            row["Error*"] = round(float(row["Ours"]) - reference_value, 3)
            rows.append(row)

        solver_seconds = float(np.mean(records["MTA"]["seconds"]))
        reference_seconds = float(np.mean(records["COMSOL"]["seconds"]))
        hotspot_seconds = float(np.mean(records["Hotspot"]["seconds"]))
        ours_seconds = float(np.mean(records["Ours"]["seconds"]))
        timing_rows.append(
            {
                "Chip": chip_name,
                "COMSOL(s)": round(reference_seconds, 4),
                "MTA(s)": round(solver_seconds, 4),
                "Hotspot(s)": round(hotspot_seconds, 6),
                "Ours(s)": round(ours_seconds, 4),
                "Speedup vs MTA": round(speedup(solver_seconds, ours_seconds), 1),
                "Speedup vs COMSOL": round(speedup(reference_seconds, ours_seconds), 1),
            }
        )

    return {"rows": rows, "timing_rows": timing_rows}
