"""Tests for the operator models: FNO, U-FNO, SAU-FNO, DeepOHeat, GAR."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.operators import (
    DeepOHeatModel,
    FNO2d,
    GARRegressor,
    SAUFNO2d,
    UFNO2d,
    build_operator,
    coordinate_channels,
    OPERATOR_REGISTRY,
)

_TINY = dict(width=8, modes1=3, modes2=3)


class TestCoordinateChannels:
    def test_shape_and_range(self):
        coords = coordinate_channels(2, 6, 9)
        assert coords.shape == (2, 2, 6, 9)
        assert coords.min() > 0.0 and coords.max() < 1.0

    def test_resolution_consistency(self):
        coarse = coordinate_channels(1, 4, 4)[0, 0]
        fine = coordinate_channels(1, 8, 8)[0, 0]
        # Cell-centre convention: the coarse grid samples the same [0, 1] span.
        assert abs(coarse.mean() - fine.mean()) < 1e-6


class TestFNOFamily:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: FNO2d(2, 3, num_layers=2, **_TINY),
            lambda: UFNO2d(2, 3, num_fourier_layers=1, num_ufourier_layers=1,
                           unet_base_channels=4, unet_levels=1, **_TINY),
            lambda: SAUFNO2d(2, 3, num_fourier_layers=1, num_ufourier_layers=1,
                             unet_base_channels=4, unet_levels=1, attention_dim=4, **_TINY),
        ],
    )
    def test_forward_shapes(self, factory, rng):
        model = factory()
        x = Tensor(rng.standard_normal((2, 2, 12, 12)).astype(np.float32))
        assert model(x).shape == (2, 3, 12, 12)

    def test_wrong_channel_count_raises(self, rng):
        model = FNO2d(2, 2, num_layers=1, **_TINY)
        with pytest.raises(ValueError):
            model(Tensor(rng.standard_normal((1, 3, 10, 10))))

    def test_mesh_invariance_of_fno(self, rng):
        """An FNO evaluated at a finer resolution produces a consistent field."""
        model = FNO2d(1, 1, num_layers=2, use_coordinates=True, **_TINY)
        xs_lo = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        xs_hi = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        field_lo = (np.sin(xs_lo)[None, :] * np.cos(xs_lo)[:, None])[None, None]
        field_hi = (np.sin(xs_hi)[None, :] * np.cos(xs_hi)[:, None])[None, None]
        out_lo = model.predict(field_lo.astype(np.float32))
        out_hi = model.predict(field_hi.astype(np.float32))
        assert out_hi.shape == (1, 1, 32, 32)
        np.testing.assert_allclose(out_lo[0, 0], out_hi[0, 0, ::2, ::2], atol=0.25)

    def test_sau_fno_attention_placements(self, rng):
        for placement, expected_blocks in [("none", 0), ("last", 1), ("all", 2)]:
            model = SAUFNO2d(
                1, 1, num_fourier_layers=0, num_ufourier_layers=2,
                unet_base_channels=4, unet_levels=1, attention_placement=placement,
                attention_dim=4, **_TINY,
            )
            assert len(model.attention_blocks) == expected_blocks
            out = model(Tensor(rng.standard_normal((1, 1, 10, 10)).astype(np.float32)))
            assert out.shape == (1, 1, 10, 10)

    def test_sau_fno_linear_attention(self, rng):
        model = SAUFNO2d(
            1, 1, num_ufourier_layers=1, unet_base_channels=4, unet_levels=1,
            attention_type="linear", attention_dim=4, **_TINY,
        )
        assert model(Tensor(rng.standard_normal((1, 1, 12, 12)).astype(np.float32))).shape == (1, 1, 12, 12)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SAUFNO2d(1, 1, attention_placement="sometimes", **_TINY)
        with pytest.raises(ValueError):
            SAUFNO2d(1, 1, attention_type="quadratic", **_TINY)
        with pytest.raises(ValueError):
            FNO2d(1, 1, num_layers=0, **_TINY)
        with pytest.raises(ValueError):
            UFNO2d(1, 1, num_ufourier_layers=0, **_TINY)

    def test_parameter_counts_increase_with_components(self):
        fno = FNO2d(2, 2, num_layers=2, **_TINY)
        ufno = UFNO2d(2, 2, num_fourier_layers=1, num_ufourier_layers=1,
                      unet_base_channels=4, unet_levels=1, **_TINY)
        sau = SAUFNO2d(2, 2, num_fourier_layers=1, num_ufourier_layers=1,
                       unet_base_channels=4, unet_levels=1, attention_dim=4, **_TINY)
        assert ufno.num_parameters() > fno.num_parameters()
        assert sau.num_parameters() > ufno.num_parameters()

    def test_gradients_reach_every_parameter_of_sau_fno(self, rng):
        model = SAUFNO2d(1, 1, num_fourier_layers=1, num_ufourier_layers=1,
                         unet_base_channels=4, unet_levels=1, attention_dim=4, **_TINY)
        x = Tensor(rng.standard_normal((2, 1, 8, 8)).astype(np.float32))
        (model(x) ** 2).mean().backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert not missing, f"parameters without gradients: {missing}"

    def test_predict_batches_match_forward(self, rng):
        model = FNO2d(1, 1, num_layers=1, **_TINY)
        inputs = rng.standard_normal((5, 1, 8, 8)).astype(np.float32)
        batched = model.predict(inputs, batch_size=2)
        full = model.predict(inputs, batch_size=5)
        np.testing.assert_allclose(batched, full, rtol=1e-5)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("name", ["fno", "sau_fno", "deepoheat"])
def test_predict_restores_the_callers_mode(name, training, rng):
    model = build_operator(
        name, 1, 1,
        dict(_TINY, unet_base_channels=4, unet_levels=1, attention_dim=4, latent_dim=8,
             sensor_resolution=4),
        rng,
    )
    model.train(training)
    model.predict(rng.standard_normal((1, 1, 8, 8)).astype(np.float32))
    assert all(module.training is training for module in model.modules())


class TestDeepOHeat:
    def test_forward_shape(self, rng):
        model = DeepOHeatModel(2, 3, sensor_resolution=8, latent_dim=16,
                               branch_hidden=(32,), trunk_hidden=(16,))
        out = model(Tensor(rng.standard_normal((4, 2, 10, 10)).astype(np.float32)))
        assert out.shape == (4, 3, 10, 10)

    def test_resolution_flexibility(self, rng):
        model = DeepOHeatModel(1, 1, sensor_resolution=8, latent_dim=8,
                               branch_hidden=(16,), trunk_hidden=(16,))
        for resolution in (8, 12, 20):
            out = model.predict(rng.standard_normal((1, 1, resolution, resolution)).astype(np.float32))
            assert out.shape == (1, 1, resolution, resolution)

    def test_channel_check(self, rng):
        model = DeepOHeatModel(2, 1)
        with pytest.raises(ValueError):
            model(Tensor(rng.standard_normal((1, 3, 8, 8))))

    def test_gradients_flow(self, rng):
        model = DeepOHeatModel(1, 1, sensor_resolution=4, latent_dim=8,
                               branch_hidden=(8,), trunk_hidden=(8,))
        x = Tensor(rng.standard_normal((2, 1, 6, 6)).astype(np.float32))
        (model(x) ** 2).mean().backward()
        assert all(p.grad is not None for p in model.parameters())


class TestGAR:
    def _data(self, rng, n=140, resolution=6):
        inputs = rng.standard_normal((n, 1, resolution, resolution))
        # A linear "solver": smoothed input plus a constant offset.
        kernel = np.ones((3, 3)) / 9.0
        targets = np.zeros_like(inputs)
        for i in range(n):
            padded = np.pad(inputs[i, 0], 1, mode="edge")
            for r in range(resolution):
                for c in range(resolution):
                    targets[i, 0, r, c] = (padded[r:r + 3, c:c + 3] * kernel).sum()
        return inputs, targets + 300.0

    def test_fits_linear_map_well(self, rng):
        inputs, targets = self._data(rng)
        model = GARRegressor(n_components=36, alpha=1e-8)
        model.fit(inputs[:120], targets[:120])
        prediction = model.predict(inputs[120:])
        error = np.abs(prediction - targets[120:]).mean()
        assert error < 0.05

    def test_multi_fidelity_fusion_improves_over_inputs_alone(self, rng):
        inputs, targets = self._data(rng)
        low_fidelity = targets + rng.standard_normal(targets.shape) * 0.05
        fused = GARRegressor(n_components=36, alpha=1e-8)
        fused.fit(inputs[:120], targets[:120], low_fidelity=low_fidelity[:120])
        prediction = fused.predict(inputs[120:], low_fidelity=low_fidelity[120:])
        assert np.abs(prediction - targets[120:]).mean() < 0.1

    def test_unfitted_predict_raises(self, rng):
        with pytest.raises(RuntimeError):
            GARRegressor().predict(rng.standard_normal((2, 1, 4, 4)))

    def test_shape_mismatch_raises(self, rng):
        model = GARRegressor(n_components=4)
        model.fit(rng.standard_normal((6, 1, 4, 4)), rng.standard_normal((6, 1, 4, 4)))
        with pytest.raises(ValueError):
            model.predict(rng.standard_normal((2, 1, 5, 5)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            GARRegressor(n_components=0)
        with pytest.raises(ValueError):
            GARRegressor(alpha=0.0)


class TestFactory:
    def test_registry_contains_all_baselines(self):
        assert set(OPERATOR_REGISTRY) == {"fno", "ufno", "sau_fno", "deepoheat", "gar"}

    @pytest.mark.parametrize("name", ["fno", "ufno", "sau_fno", "deepoheat", "gar"])
    def test_build_every_operator(self, name, rng):
        model = build_operator(
            name, 2, 2,
            {"width": 8, "modes1": 3, "modes2": 3, "unet_base_channels": 4,
             "unet_levels": 1, "attention_dim": 4, "latent_dim": 8,
             "sensor_resolution": 4, "n_components": 4},
            rng,
        )
        assert model is not None

    def test_name_normalisation_and_unknown(self, rng):
        assert build_operator("SAU-FNO", 1, 1, {"width": 8, "modes1": 2, "modes2": 2,
                                                "unet_base_channels": 4, "unet_levels": 1,
                                                "attention_dim": 4}, rng) is not None
        with pytest.raises(KeyError):
            build_operator("transformer", 1, 1)


class TestOperatorPersistence:
    """Self-describing weights: config embedded in the .npz by Module.save."""

    def test_build_operator_records_construction_config(self, rng):
        model = build_operator("fno", 2, 3, {"width": 8, "modes1": 3, "modes2": 3}, rng)
        assert model.config["operator"] == "fno"
        assert model.config["in_channels"] == 2
        assert model.config["out_channels"] == 3
        assert model.config["options"]["width"] == 8

    def test_load_operator_roundtrip_without_respecifying_architecture(self, tmp_path, rng):
        from repro.operators.factory import load_operator

        model = build_operator("fno", 2, 2, {"width": 8, "modes1": 3, "modes2": 3}, rng)
        path = tmp_path / "weights.npz"
        model.save(str(path))

        loaded = load_operator(str(path))
        assert loaded.name == "fno"
        assert loaded.options == {"width": 8, "modes1": 3, "modes2": 3}
        x = rng.standard_normal((2, 2, 12, 12)).astype(np.float32)
        np.testing.assert_allclose(loaded.model.predict(x), model.predict(x), atol=0.0)

    def test_save_operator_bundles_normalizers_and_provenance(self, tmp_path, rng):
        from repro.data.dataset import Normalizer
        from repro.operators.factory import load_operator, save_operator

        model = build_operator("fno", 2, 2, {"width": 8, "modes1": 3, "modes2": 3}, rng)
        data = rng.standard_normal((4, 2, 8, 8)) * 5.0 + 300.0
        in_norm = Normalizer().fit(data)
        out_norm = Normalizer().fit(data + 40.0)
        path = tmp_path / "served.npz"
        save_operator(model, str(path), input_normalizer=in_norm,
                      output_normalizer=out_norm, chip_name="chip1", resolution=8)

        loaded = load_operator(str(path))
        assert loaded.chip_name == "chip1" and loaded.resolution == 8
        assert loaded.has_normalizers
        np.testing.assert_allclose(loaded.input_normalizer.mean, in_norm.mean)
        np.testing.assert_allclose(loaded.output_normalizer.std, out_norm.std)
        # predict() de-normalises: outputs live on the target scale, not ~N(0,1).
        prediction = loaded.predict(data.astype(np.float32))
        assert prediction.mean() > 100.0

    def test_load_operator_without_config_errors_clearly(self, tmp_path, rng):
        from repro.operators.factory import load_operator

        model = build_operator("fno", 2, 2, {"width": 8, "modes1": 3, "modes2": 3}, rng)
        path = tmp_path / "legacy.npz"
        np.savez(str(path), **model.state_dict())  # pre-config archive
        with pytest.raises(ValueError, match="no embedded architecture config"):
            load_operator(str(path))

    def test_legacy_load_method_ignores_metadata_keys(self, tmp_path, rng):
        model = build_operator("fno", 2, 2, {"width": 8, "modes1": 3, "modes2": 3}, rng)
        path = tmp_path / "weights.npz"
        model.save(str(path))
        clone = build_operator("fno", 2, 2, {"width": 8, "modes1": 3, "modes2": 3}, rng)
        clone.load(str(path))  # must not trip over __config__
        x = rng.standard_normal((1, 2, 10, 10)).astype(np.float32)
        np.testing.assert_allclose(clone.predict(x), model.predict(x), atol=0.0)

    def test_save_rejects_extra_key_colliding_with_config(self, tmp_path, rng):
        model = build_operator("fno", 2, 2, {"width": 8, "modes1": 3, "modes2": 3}, rng)
        with pytest.raises(ValueError, match="reserved config entry"):
            model.save(str(tmp_path / "clash.npz"), extra={"config": np.zeros(2)})
