"""Supervised trainer for the grid-based operator models.

Reproduces the paper's training recipe (Section IV-A, "Training and
Testing"): Adam with an initial learning rate of 1e-4, weight decay of 1e-5,
a decaying learning-rate schedule, L2 (mean-squared-error) loss on the
normalised temperature fields, and enough epochs to converge.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor, no_grad
from repro.data.dataset import Normalizer, ThermalDataset
from repro.metrics.errors import MetricReport, evaluate_all
from repro.nn.module import Module
from repro.optim.optimizers import Adam
from repro.optim.schedulers import StepLR
from repro.training.callbacks import Callback


@dataclass
class TrainingConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 50
    batch_size: int = 8
    learning_rate: float = 1e-4
    weight_decay: float = 1e-5
    lr_decay_step: int = 20
    lr_decay_gamma: float = 0.5
    loss: str = "mse"
    seed: int = 0
    grad_clip: Optional[float] = None

    def loss_fn(self) -> Callable[[Tensor, Tensor], Tensor]:
        if self.loss == "mse":
            return F.mse_loss
        if self.loss == "relative_l2":
            return F.relative_l2_loss
        if self.loss == "l1":
            return F.l1_loss
        raise ValueError(f"unknown loss '{self.loss}'")


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    learning_rate: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.epoch_seconds))

    @property
    def best_val_loss(self) -> float:
        losses = self.val_loss or self.train_loss
        return float(min(losses))


class Trainer:
    """Trains an operator model on normalised power/temperature pairs.

    The trainer owns the input and output normalisers: data is normalised on
    the way in and predictions are mapped back to kelvin on the way out, so
    all reported metrics are in physical units.
    """

    def __init__(
        self,
        model: Module,
        config: Optional[TrainingConfig] = None,
        input_normalizer: Optional[Normalizer] = None,
        output_normalizer: Optional[Normalizer] = None,
    ):
        self.model = model
        self.config = config or TrainingConfig()
        self.input_normalizer = input_normalizer
        self.output_normalizer = output_normalizer
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.scheduler = StepLR(
            self.optimizer,
            step_size=self.config.lr_decay_step,
            gamma=self.config.lr_decay_gamma,
        )
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def _ensure_normalizers(self, dataset: ThermalDataset) -> None:
        if self.input_normalizer is None or self.output_normalizer is None:
            self.input_normalizer, self.output_normalizer = dataset.fit_normalizers()

    def _clip_gradients(self) -> None:
        limit = self.config.grad_clip
        if limit is None:
            return
        total = 0.0
        for param in self.model.parameters():
            if param.grad is not None:
                total += float(np.sum(param.grad ** 2))
        norm = math.sqrt(total)
        if norm > limit and norm > 0:
            # A Python float keeps float32 gradients float32 (an np.float64
            # scale would promote them, and Adam then every parameter).  Not
            # in place: two leaves can share one gradient array.
            scale = limit / norm
            for param in self.model.parameters():
                if param.grad is not None:
                    param.grad = param.grad * scale

    def _train_step(self, x: Tensor, y: Tensor, loss_fn: Callable[[Tensor, Tensor], Tensor]) -> float:
        """One optimiser step; returns the batch loss.

        The prediction, the loss and the tape behind them are locals, so they
        are freed on return and the next step's forward never overlaps them.
        """
        self.optimizer.zero_grad()
        loss = loss_fn(self.model(x), y)
        loss.backward()
        self._clip_gradients()
        self.optimizer.step()
        return loss.item()

    # ------------------------------------------------------------------
    def fit(
        self,
        train_data: ThermalDataset,
        validation_data: Optional[ThermalDataset] = None,
        callbacks: Sequence[Callback] = (),
    ) -> TrainingHistory:
        """Run the full training loop and return the per-epoch history."""
        config = self.config
        self._ensure_normalizers(train_data)
        loss_fn = config.loss_fn()
        rng = np.random.default_rng(config.seed)
        normalizers = (self.input_normalizer, self.output_normalizer)

        for epoch in range(config.epochs):
            start = time.perf_counter()
            self.model.train()
            epoch_losses = []
            for x, y in train_data.batches(
                config.batch_size, shuffle=True, rng=rng, normalizers=normalizers
            ):
                epoch_losses.append(self._train_step(x, y, loss_fn))

            train_loss = float(np.mean(epoch_losses))
            val_loss = None
            if validation_data is not None:
                val_loss = self.validation_loss(validation_data)

            self.scheduler.step()
            self.history.train_loss.append(train_loss)
            if val_loss is not None:
                self.history.val_loss.append(val_loss)
            self.history.learning_rate.append(self.optimizer.lr)
            self.history.epoch_seconds.append(time.perf_counter() - start)

            stop = False
            for callback in callbacks:
                callback.on_epoch_end(epoch, train_loss, val_loss)
                stop = stop or callback.should_stop()
            if stop:
                break
        return self.history

    # ------------------------------------------------------------------
    def validation_loss(self, dataset: ThermalDataset) -> float:
        """Normalised-space loss on a held-out dataset."""
        loss_fn = self.config.loss_fn()
        normalizers = (self.input_normalizer, self.output_normalizer)
        losses = []
        self.model.eval()
        with no_grad():
            for x, y in dataset.batches(
                self.config.batch_size, shuffle=False, normalizers=normalizers
            ):
                losses.append(loss_fn(self.model(x), y).item())
        self.model.train()
        return float(np.mean(losses))

    def predict(self, inputs: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Predict temperature fields in kelvin for raw (un-normalised) inputs."""
        if self.input_normalizer is None or self.output_normalizer is None:
            raise RuntimeError("the trainer has no fitted normalizers; call fit() first")
        batch_size = batch_size or self.config.batch_size
        normalized = self.input_normalizer.transform(inputs)
        outputs = []
        self.model.eval()
        with no_grad():
            for start in range(0, len(normalized), batch_size):
                chunk = Tensor(normalized[start:start + batch_size].astype(np.float32))
                outputs.append(self.model(chunk).data)
        self.model.train()
        prediction = np.concatenate(outputs, axis=0)
        return self.output_normalizer.inverse_transform(prediction)

    def evaluate(self, dataset: ThermalDataset) -> MetricReport:
        """Physical-unit metrics (Table II bundle) on a dataset."""
        prediction = self.predict(dataset.inputs)
        return evaluate_all(prediction, dataset.targets)

    def inference_seconds_per_case(self, dataset: ThermalDataset, repeats: int = 3) -> float:
        """Average wall-clock inference time per case (used by the speedup study)."""
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.predict(dataset.inputs)
            timings.append((time.perf_counter() - start) / len(dataset))
        return float(np.median(timings))
