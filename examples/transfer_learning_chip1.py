"""Multi-fidelity transfer learning on Chip 1 (Section III-C / Table III).

Demonstrates the paper's data-efficiency recipe: pre-train SAU-FNO on many
cheap low-resolution FVM simulations, then fine-tune on a handful of
expensive high-resolution simulations with a 10x smaller learning rate, and
compare against training from scratch on the high-resolution data alone.
Dataset generation runs through the session facade (one cached block basis
per fidelity); the transfer pipeline itself is the dedicated
:class:`~repro.training.TransferLearningTrainer`.

Run with:  python examples/transfer_learning_chip1.py
"""

import numpy as np

import repro
from repro.evaluation import format_table
from repro.operators import SAUFNO2d
from repro.training import (
    Trainer,
    TrainingConfig,
    TransferLearningConfig,
    TransferLearningTrainer,
)


def build_model(channels_in: int, channels_out: int) -> SAUFNO2d:
    return SAUFNO2d(
        channels_in,
        channels_out,
        width=16,
        modes1=8,
        modes2=8,
        num_fourier_layers=1,
        num_ufourier_layers=1,
        unet_base_channels=8,
        unet_levels=2,
        attention_dim=16,
    )


def main(low_resolution: int = 24, high_resolution: int = 40,
         num_low: int = 40, num_high: int = 16, epochs: int = 10) -> None:
    session = repro.ThermalSession()
    print(f"Generating low-fidelity ({low_resolution}x{low_resolution}) and "
          f"high-fidelity ({high_resolution}x{high_resolution}) datasets ...")
    low_fidelity, high_fidelity = session.generate_multifidelity_pair(
        "chip1",
        low_resolution=low_resolution,
        high_resolution=high_resolution,
        num_low=num_low,
        num_high=num_high,
        seed=0,
    )
    high_split = high_fidelity.split(0.7, rng=np.random.default_rng(0))
    low_solver_cost = float(np.sum(low_fidelity.metadata["solve_seconds"]))
    high_solver_cost = float(np.sum(high_fidelity.metadata["solve_seconds"]))
    print(f"  low-fidelity : {len(low_fidelity)} cases, solver time {low_solver_cost:.1f}s")
    print(f"  high-fidelity: {len(high_fidelity)} cases, solver time {high_solver_cost:.1f}s\n")

    training = TrainingConfig(epochs=epochs, batch_size=4, learning_rate=2e-3)

    # From scratch on the small high-fidelity set.
    print("Training from scratch on high-fidelity data only ...")
    scratch_model = build_model(high_fidelity.num_input_channels, high_fidelity.num_output_channels)
    scratch = Trainer(scratch_model, training)
    scratch_history = scratch.fit(high_split.train)
    scratch_metrics = scratch.evaluate(high_split.test)

    # Transfer learning: pre-train low fidelity, fine-tune high fidelity.
    print("Transfer learning: pre-train on low fidelity, fine-tune on high fidelity ...")
    transfer_model = build_model(low_fidelity.num_input_channels, low_fidelity.num_output_channels)
    pipeline = TransferLearningTrainer(
        transfer_model,
        TransferLearningConfig(
            pretrain=training, finetune_lr_scale=0.1,
            finetune_epochs=max(epochs // 2, 1),
        ),
    )
    result = pipeline.run(low_fidelity, high_split.train, high_split.test)

    rows = [
        {
            "Route": "from scratch (high-fidelity only)",
            **{k: round(v, 3) for k, v in scratch_metrics.as_dict().items()},
            "TrainTime(s)": round(scratch_history.total_seconds, 1),
        },
        {
            "Route": "transfer (pre-train + fine-tune)",
            **{k: round(v, 3) for k, v in result.metrics.as_dict().items()},
            "TrainTime(s)": round(result.total_seconds, 1),
        },
    ]
    print()
    print(format_table(rows, title="Table III style comparison on Chip 1"))
    print()
    print(
        "The transfer route replaces most high-fidelity simulations with cheap "
        "low-fidelity ones; with the paper's 4-6x cost gap between fidelities this "
        "is where the ~2.5x total data-generation saving comes from."
    )


if __name__ == "__main__":
    main()
