"""Table III: transfer learning versus training from scratch on Chip 1.

For FNO, U-FNO and SAU-FNO the harness compares

* **from scratch** — training directly on the (small) high-fidelity dataset;
* **transfer** — pre-training on abundant low-fidelity data and fine-tuning
  on the same small high-fidelity dataset with a 10x smaller learning rate,

reporting the Table II metric bundle on a held-out high-fidelity test split
plus the wall-clock cost of each route.  The paper's qualitative findings are
(1) transfer learning loses only a little accuracy relative to full
high-fidelity training while needing far less high-fidelity data, and
(2) this holds for FNO and U-FNO as well, not just SAU-FNO.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.cache import DatasetCache
from repro.data.generation import DatasetSpec
from repro.evaluation.config import ExperimentScale, scale_from_env
from repro.evaluation.runners import train_operator
from repro.operators.factory import build_operator
from repro.training.trainer import Trainer, TrainingConfig
from repro.training.transfer import TransferLearningConfig, TransferLearningTrainer

TABLE3_METHODS: Sequence[str] = ("fno", "ufno", "sau_fno")

_METHOD_LABELS = {"fno": "FNO", "ufno": "U-FNO", "sau_fno": "SAU-FNO (Ours)"}


def _training_config(scale: ExperimentScale) -> TrainingConfig:
    return TrainingConfig(
        epochs=scale.transfer_epochs,
        batch_size=scale.batch_size,
        learning_rate=scale.learning_rate,
        weight_decay=scale.weight_decay,
        lr_decay_step=max(scale.transfer_epochs // 3, 1),
        seed=scale.seed,
    )


def run_table3(
    scale: Optional[ExperimentScale] = None,
    chip_name: str = "chip1",
    methods: Sequence[str] = TABLE3_METHODS,
    cache: Optional[DatasetCache] = None,
    verbose: bool = False,
) -> List[Dict[str, object]]:
    """Regenerate Table III; one row per (method, transfer flag)."""
    scale = scale or scale_from_env()
    cache = cache or DatasetCache()
    rng = np.random.default_rng(scale.seed)

    low_spec = DatasetSpec(
        chip_name=chip_name,
        resolution=scale.transfer_low_resolution,
        num_samples=scale.transfer_num_low,
        seed=scale.seed,
    )
    high_spec = DatasetSpec(
        chip_name=chip_name,
        resolution=scale.transfer_high_resolution,
        num_samples=scale.transfer_num_high + max(scale.transfer_num_high // 3, 4),
        seed=scale.seed + 1,
    )
    low_fidelity = cache.get(low_spec, verbose=verbose)
    high_fidelity = cache.get(high_spec, verbose=verbose)
    high_split = high_fidelity.split(
        scale.transfer_num_high / len(high_fidelity), rng=np.random.default_rng(scale.seed)
    )

    rows: List[Dict[str, object]] = []
    for method in methods:
        # From scratch on high-fidelity data only.
        if verbose:
            print(f"[table3] {method}: training from scratch on high-fidelity data")
        scratch_model = build_operator(
            method,
            high_split.train.num_input_channels,
            high_split.train.num_output_channels,
            scale.model.as_dict(),
            np.random.default_rng(scale.seed),
        )
        scratch_trainer = Trainer(scratch_model, _training_config(scale))
        scratch_history = scratch_trainer.fit(high_split.train)
        scratch_metrics = scratch_trainer.evaluate(high_split.test)
        row = {"Method": _METHOD_LABELS.get(method, method), "Transfer": "-"}
        row.update({k: round(v, 3) for k, v in scratch_metrics.as_dict().items()})
        row["TrainTime(s)"] = round(scratch_history.total_seconds, 1)
        rows.append(row)

        # Transfer learning: pre-train low-fidelity, fine-tune high-fidelity.
        if verbose:
            print(f"[table3] {method}: transfer learning (pre-train + fine-tune)")
        transfer_model = build_operator(
            method,
            low_fidelity.num_input_channels,
            low_fidelity.num_output_channels,
            scale.model.as_dict(),
            np.random.default_rng(scale.seed),
        )
        transfer = TransferLearningTrainer(
            transfer_model,
            TransferLearningConfig(
                pretrain=_training_config(scale),
                finetune_lr_scale=0.1,
                finetune_epochs=max(scale.transfer_epochs // 2, 2),
            ),
        )
        result = transfer.run(low_fidelity, high_split.train, high_split.test)
        row = {"Method": _METHOD_LABELS.get(method, method), "Transfer": "yes"}
        row.update({k: round(v, 3) for k, v in result.metrics.as_dict().items()})
        row["TrainTime(s)"] = round(result.total_seconds, 1)
        rows.append(row)
    return rows


def summarize_transfer(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Quantify how close transfer learning gets to from-scratch training."""
    summary: Dict[str, float] = {}
    by_key = {(row["Method"], row["Transfer"]): row for row in rows}
    for method in {row["Method"] for row in rows}:
        scratch = by_key.get((method, "-"))
        transfer = by_key.get((method, "yes"))
        if scratch is None or transfer is None:
            continue
        summary[f"{method}_rmse_ratio"] = float(transfer["RMSE"]) / max(float(scratch["RMSE"]), 1e-12)
    return summary
