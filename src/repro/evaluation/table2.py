"""Table II: SAU-FNO versus the neural-operator baselines on Chip 2.

For each of the two evaluation resolutions the harness generates a dataset
with the FVM solver, splits it 4:1, trains every baseline (DeepOHeat, FNO,
U-FNO, GAR, SAU-FNO) with the same budget and reports the Table II metric
bundle (RMSE, MAPE, PAPE, junction-temperature error, mean error).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.cache import DatasetCache
from repro.data.generation import DatasetSpec
from repro.evaluation.config import ExperimentScale, scale_from_env
from repro.evaluation.runners import OperatorRunResult, train_operator

TABLE2_METHODS: Sequence[str] = ("deepoheat", "fno", "ufno", "gar", "sau_fno")

_METHOD_LABELS = {
    "deepoheat": "DeepOHeat",
    "fno": "FNO",
    "ufno": "U-FNO",
    "gar": "GAR",
    "sau_fno": "SAU-FNO (Ours)",
}


def run_table2(
    scale: Optional[ExperimentScale] = None,
    chip_name: str = "chip2",
    methods: Sequence[str] = TABLE2_METHODS,
    cache: Optional[DatasetCache] = None,
    verbose: bool = False,
) -> List[Dict[str, object]]:
    """Regenerate Table II; returns one row per (method, resolution)."""
    scale = scale or scale_from_env()
    cache = cache or DatasetCache()
    rows: List[Dict[str, object]] = []
    results: List[OperatorRunResult] = []
    for resolution in scale.resolutions:
        spec = DatasetSpec(
            chip_name=chip_name,
            resolution=resolution,
            num_samples=scale.num_samples,
            seed=scale.seed,
        )
        dataset = cache.get(spec, verbose=verbose)
        split = dataset.split(scale.train_fraction, rng=np.random.default_rng(scale.seed))
        for method in methods:
            if verbose:
                print(f"[table2] training {method} at {resolution}x{resolution}")
            result = train_operator(method, split, scale)
            results.append(result)
            row = result.row()
            row["Method"] = _METHOD_LABELS.get(method, method)
            rows.append(row)
    return rows


def summarize_ordering(rows: List[Dict[str, object]]) -> Dict[str, bool]:
    """Check the qualitative claims of Table II on regenerated rows.

    Returns flags such as "SAU-FNO beats FNO on RMSE at every resolution",
    used by the benchmark assertions and EXPERIMENTS.md.
    """
    by_method_resolution: Dict[str, Dict[str, float]] = {}
    for row in rows:
        key = f"{row['Method']}@{row['Resolution']}"
        by_method_resolution[key] = {"rmse": float(row["RMSE"]), "max": float(row["Max"])}

    resolutions = sorted({str(row["Resolution"]) for row in rows})
    sau_beats_fno = all(
        by_method_resolution[f"SAU-FNO (Ours)@{res}"]["rmse"]
        <= by_method_resolution[f"FNO@{res}"]["rmse"]
        for res in resolutions
        if f"FNO@{res}" in by_method_resolution
    )
    sau_beats_deepoheat = all(
        by_method_resolution[f"SAU-FNO (Ours)@{res}"]["rmse"]
        <= by_method_resolution[f"DeepOHeat@{res}"]["rmse"]
        for res in resolutions
        if f"DeepOHeat@{res}" in by_method_resolution
    )
    return {
        "sau_fno_beats_fno_rmse": sau_beats_fno,
        "sau_fno_beats_deepoheat_rmse": sau_beats_deepoheat,
    }
