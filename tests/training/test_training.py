"""Tests for the trainer, transfer learning, callbacks and grid search."""

import gc
import math
import weakref

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor, no_grad
from repro.data.dataset import ThermalDataset
from repro.operators import FNO2d, SAUFNO2d
from repro.optim import Adam
from repro.training import (
    EarlyStopping,
    GridSearch,
    ProgressLogger,
    Trainer,
    TrainingConfig,
    TransferLearningConfig,
    TransferLearningTrainer,
)

_TINY_MODEL = dict(width=8, modes1=3, modes2=3)
_TINY_SAU_FNO = dict(_TINY_MODEL, num_fourier_layers=1, num_ufourier_layers=1,
                     unet_base_channels=4, unet_levels=1, attention_dim=4)


def _synthetic_dataset(n=16, resolution=12, seed=0):
    """A cheap synthetic operator-learning problem: temperature = smoothed power."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0.0, 1.0, (n, 1, resolution, resolution))
    spectrum = np.fft.fft2(inputs, axes=(-2, -1))
    freqs_y = np.fft.fftfreq(resolution)[None, None, :, None]
    freqs_x = np.fft.fftfreq(resolution)[None, None, None, :]
    damping = 1.0 / (1.0 + 40.0 * (freqs_y ** 2 + freqs_x ** 2))
    targets = np.fft.ifft2(spectrum * damping, axes=(-2, -1)).real * 30.0 + 320.0
    return ThermalDataset(inputs=inputs, targets=targets, chip_name="synthetic", resolution=resolution)


class TestTrainingConfig:
    def test_loss_selection(self):
        assert TrainingConfig(loss="mse").loss_fn() is not None
        assert TrainingConfig(loss="relative_l2").loss_fn() is not None
        with pytest.raises(ValueError):
            TrainingConfig(loss="hinge").loss_fn()


class TestTrainer:
    def test_loss_decreases(self):
        dataset = _synthetic_dataset(20)
        model = FNO2d(1, 1, num_layers=2, **_TINY_MODEL)
        trainer = Trainer(model, TrainingConfig(epochs=8, batch_size=5, learning_rate=3e-3))
        history = trainer.fit(dataset)
        assert history.epochs_run == 8
        assert history.train_loss[-1] < history.train_loss[0]

    def test_validation_loss_tracked(self):
        data = _synthetic_dataset(20).split(0.8)
        model = FNO2d(1, 1, num_layers=1, **_TINY_MODEL)
        trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=4, learning_rate=1e-3))
        history = trainer.fit(data.train, validation_data=data.test)
        assert len(history.val_loss) == 3

    def test_predictions_in_physical_units(self):
        dataset = _synthetic_dataset(16)
        model = FNO2d(1, 1, num_layers=1, **_TINY_MODEL)
        trainer = Trainer(model, TrainingConfig(epochs=6, batch_size=4, learning_rate=3e-3))
        trainer.fit(dataset)
        prediction = trainer.predict(dataset.inputs)
        assert prediction.shape == dataset.targets.shape
        # After a few epochs the predictions should live near the target range.
        assert 250.0 < prediction.mean() < 400.0

    def test_predict_before_fit_raises(self):
        model = FNO2d(1, 1, num_layers=1, **_TINY_MODEL)
        trainer = Trainer(model)
        with pytest.raises(RuntimeError):
            trainer.predict(np.zeros((1, 1, 8, 8)))

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_predict_and_validation_loss_restore_the_callers_mode(self, training):
        dataset = _synthetic_dataset(8)
        model = FNO2d(1, 1, num_layers=1, **_TINY_MODEL)
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=4))
        trainer.fit(dataset)
        model.train(training)
        trainer.predict(dataset.inputs)
        assert model.training is training
        trainer.validation_loss(dataset)
        assert model.training is training

    def test_predict_answers_float32_within_its_bound(self):
        """Float32 normalisers keep a float32 answer within the docstring's
        6e-5 K of the float64-normaliser answer."""
        dataset = _synthetic_dataset(12)
        model = FNO2d(1, 1, num_layers=1, **_TINY_MODEL)
        trainer = Trainer(model, TrainingConfig(epochs=4, batch_size=4, learning_rate=3e-3))
        trainer.fit(dataset)
        prediction = trainer.predict(dataset.inputs.astype(np.float32))
        assert prediction.dtype == np.float32

        normalized = trainer.input_normalizer.transform(dataset.inputs).astype(np.float32)
        model.eval()
        with no_grad():
            outputs = [model(Tensor(normalized[i:i + 4])).data for i in range(0, 12, 4)]
        reference = trainer.output_normalizer.inverse_transform(np.concatenate(outputs))
        assert reference.dtype == np.float64
        assert np.max(np.abs(prediction - reference)) <= 6e-5

    def test_evaluate_returns_metric_bundle(self):
        dataset = _synthetic_dataset(12)
        model = FNO2d(1, 1, num_layers=1, **_TINY_MODEL)
        trainer = Trainer(model, TrainingConfig(epochs=2, batch_size=4))
        trainer.fit(dataset)
        report = trainer.evaluate(dataset)
        assert report.rmse > 0 and report.max_error >= 0

    def test_learning_rate_decays(self):
        dataset = _synthetic_dataset(8)
        model = FNO2d(1, 1, num_layers=1, **_TINY_MODEL)
        trainer = Trainer(
            model,
            TrainingConfig(epochs=4, batch_size=4, learning_rate=1e-3, lr_decay_step=2, lr_decay_gamma=0.1),
        )
        history = trainer.fit(dataset)
        assert history.learning_rate[-1] < history.learning_rate[0]

    def test_gradient_clipping_runs(self, monkeypatch):
        dataset = _synthetic_dataset(8)
        model = SAUFNO2d(1, 1, **_TINY_SAU_FNO)
        limit = 1e-3  # small enough that every step clips
        norms = []
        step = Adam.step

        def spy(optimizer):
            grads = [p.grad.astype(np.float64) for p in optimizer.parameters if p.grad is not None]
            norms.append(math.sqrt(sum(np.sum(g ** 2) for g in grads)))
            step(optimizer)

        monkeypatch.setattr(Adam, "step", spy)
        trainer = Trainer(model, TrainingConfig(epochs=2, batch_size=4, grad_clip=limit))
        history = trainer.fit(dataset)
        assert history.epochs_run == 2
        assert len(norms) == 4
        # Clipped to the limit, up to float32 rounding of the scaled gradients.
        assert max(norms) <= limit * (1 + 1e-6)
        assert min(norms) >= limit * (1 - 1e-6)
        # Clipping must not promote the gradients, and through Adam the model.
        assert all(p.dtype == np.float32 for p in model.parameters())
        with no_grad():
            assert model(Tensor(dataset.inputs[:2].astype(np.float32))).dtype == np.float32

    def test_one_tape_is_live_at_a_time(self, monkeypatch):
        """Step t's prediction, and the tape behind it, is freed before step
        t+1's forward starts.  ``Tensor`` takes no weak references; its data
        array does."""
        dataset = _synthetic_dataset(12)
        model = SAUFNO2d(1, 1, **_TINY_SAU_FNO)
        forward = model.forward
        predictions, alive_at_forward = [], []

        def watched_forward(x):
            alive_at_forward.append(sum(ref() is not None for ref in predictions))
            out = forward(x)
            predictions.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(model, "forward", watched_forward)
        gc_enabled = gc.isenabled()
        gc.disable()  # reference counting alone must free the tape
        try:
            Trainer(model, TrainingConfig(epochs=2, batch_size=4)).fit(dataset)
        finally:
            if gc_enabled:
                gc.enable()
        assert alive_at_forward == [0] * 6

    def test_early_stopping_halts_training(self):
        dataset = _synthetic_dataset(8)
        model = FNO2d(1, 1, num_layers=1, **_TINY_MODEL)
        trainer = Trainer(model, TrainingConfig(epochs=50, batch_size=4, learning_rate=1e-9))
        history = trainer.fit(dataset, callbacks=[EarlyStopping(patience=2, min_delta=1.0)])
        assert history.epochs_run < 50

    def test_inference_timer_positive(self):
        dataset = _synthetic_dataset(6)
        model = FNO2d(1, 1, num_layers=1, **_TINY_MODEL)
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=3))
        trainer.fit(dataset)
        assert trainer.inference_seconds_per_case(dataset, repeats=1) > 0


class TestCallbacks:
    def test_early_stopping_logic(self):
        stopper = EarlyStopping(patience=2)
        stopper.on_epoch_end(0, 1.0, None)
        stopper.on_epoch_end(1, 1.1, None)
        assert not stopper.should_stop()
        stopper.on_epoch_end(2, 1.2, None)
        assert stopper.should_stop()

    def test_early_stopping_resets_on_improvement(self):
        stopper = EarlyStopping(patience=2)
        stopper.on_epoch_end(0, 1.0, None)
        stopper.on_epoch_end(1, 1.5, None)
        stopper.on_epoch_end(2, 0.5, None)
        stopper.on_epoch_end(3, 0.6, None)
        assert not stopper.should_stop()

    def test_progress_logger_prints_on_schedule(self, capsys):
        logger = ProgressLogger(every=2, prefix="[x] ")
        logger.on_epoch_end(0, 1.0, None)
        logger.on_epoch_end(1, 0.9, 0.95)
        captured = capsys.readouterr().out
        assert "epoch 2" in captured and "[x]" in captured

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            ProgressLogger(every=0)


class TestTransferLearning:
    def test_pipeline_runs_and_reports(self):
        low = _synthetic_dataset(16, resolution=8, seed=0)
        high = _synthetic_dataset(10, resolution=16, seed=1)
        high_split = high.split(0.7)
        model = FNO2d(1, 1, num_layers=1, **_TINY_MODEL)
        pipeline = TransferLearningTrainer(
            model,
            TransferLearningConfig(
                pretrain=TrainingConfig(epochs=3, batch_size=4, learning_rate=2e-3),
                finetune_epochs=2,
            ),
        )
        result = pipeline.run(low, high_split.train, high_split.test)
        assert result.pretrain_history.epochs_run == 3
        assert result.finetune_history.epochs_run == 2
        assert result.metrics.rmse > 0
        assert result.total_seconds > 0

    def test_finetune_lr_is_scaled_down(self):
        config = TransferLearningConfig(
            pretrain=TrainingConfig(learning_rate=1e-3), finetune_lr_scale=0.1
        )
        assert config.finetune_config().learning_rate == pytest.approx(1e-4)

    def test_predict_requires_run(self):
        pipeline = TransferLearningTrainer(FNO2d(1, 1, num_layers=1, **_TINY_MODEL))
        with pytest.raises(RuntimeError):
            pipeline.predict(np.zeros((1, 1, 8, 8)))

    def test_mesh_invariant_weights_transfer_across_resolutions(self):
        """Pre-training at 8x8 then fine-tuning at 16x16 must be loss-reducing."""
        low = _synthetic_dataset(20, resolution=8, seed=2)
        high = _synthetic_dataset(12, resolution=16, seed=3)
        high_split = high.split(0.7)
        model = SAUFNO2d(1, 1, num_fourier_layers=1, num_ufourier_layers=1,
                         unet_base_channels=4, unet_levels=1, attention_dim=4, **_TINY_MODEL)
        pipeline = TransferLearningTrainer(
            model,
            TransferLearningConfig(
                pretrain=TrainingConfig(epochs=4, batch_size=4, learning_rate=3e-3),
                finetune_epochs=3,
            ),
        )
        result = pipeline.run(low, high_split.train, high_split.test)
        assert result.finetune_history.train_loss[-1] <= result.finetune_history.train_loss[0] * 1.5


class TestGridSearch:
    def test_runs_all_grid_points_and_picks_best(self):
        data = _synthetic_dataset(12).split(0.75)

        def builder(params):
            return FNO2d(1, 1, num_layers=params["num_layers"], **_TINY_MODEL)

        search = GridSearch(
            builder,
            TrainingConfig(epochs=1, batch_size=4),
            {"num_layers": [1, 2]},
        )
        result = search.run(data.train, data.test)
        assert len(result.records) == 2
        assert result.best_params()["num_layers"] in (1, 2)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSearch(lambda p: None, TrainingConfig(), {})
