"""Tests for power sampling, datasets, normalisation, generation and caching."""

import numpy as np
import pytest

from repro.chip.designs import get_chip
from repro.solvers.voxelize import build_geometry
from repro.data import (
    DatasetCache,
    DatasetSpec,
    Normalizer,
    PowerSampler,
    ThermalDataset,
    generate_dataset,
    generate_multifidelity_pair,
)
from tests.conftest import assert_same_dataset


class TestPowerSampler:
    def test_total_power_within_budget(self, tiny_chip, rng):
        sampler = PowerSampler(tiny_chip)
        for _ in range(20):
            case = sampler.sample(rng)
            low, high = tiny_chip.power_budget_W
            assert low <= case.total_W <= high
            assert sum(case.assignment.values()) == pytest.approx(case.total_W, rel=1e-6)

    def test_all_powers_non_negative(self, tiny_chip, rng):
        sampler = PowerSampler(tiny_chip)
        case = sampler.sample(rng)
        assert all(value >= 0 for value in case.assignment.values())
        assert set(case.assignment) == set(tiny_chip.flat_block_names())

    def test_core_bias_raises_core_density(self, tiny_chip):
        sampler = PowerSampler(tiny_chip, core_bias=10.0, idle_probability=0.0)
        rng = np.random.default_rng(0)
        core_density, cache_density = [], []
        core_area = tiny_chip.get_layer("core_layer").floorplan.get_block("core").area_mm2
        cache_area = tiny_chip.get_layer("cache_layer").floorplan.get_block("l2_left").area_mm2
        for _ in range(50):
            case = sampler.sample(rng)
            core_density.append(case.assignment["core_layer/core"] / core_area)
            cache_density.append(case.assignment["cache_layer/l2_left"] / cache_area)
        assert np.mean(core_density) > np.mean(cache_density)

    def test_custom_power_range(self, tiny_chip, rng):
        sampler = PowerSampler(tiny_chip, total_power_range_W=(5.0, 6.0))
        case = sampler.sample(rng)
        assert 5.0 <= case.total_W <= 6.0

    def test_invalid_parameters_rejected(self, tiny_chip):
        with pytest.raises(ValueError):
            PowerSampler(tiny_chip, total_power_range_W=(5.0, 1.0))
        with pytest.raises(ValueError):
            PowerSampler(tiny_chip, idle_probability=1.5)
        with pytest.raises(ValueError):
            PowerSampler(tiny_chip, core_bias=0.0)

    def test_contrast_case_concentrates_power(self, tiny_chip, rng):
        sampler = PowerSampler(tiny_chip)
        case = sampler.contrast_case(["core_layer/core"], rng)
        assert case.assignment["core_layer/core"] > 0.5 * case.total_W
        with pytest.raises(KeyError):
            sampler.contrast_case(["nope"], rng)

    def test_rasterize_shape_and_conservation(self, tiny_chip, rng):
        sampler = PowerSampler(tiny_chip)
        case = sampler.sample(rng)
        maps = sampler.rasterize(case, 16)
        assert maps.shape == (2, 16, 16)
        cell_area = (tiny_chip.die_width_mm * 1e-3 / 16) * (tiny_chip.die_height_mm * 1e-3 / 16)
        assert maps.sum() * cell_area == pytest.approx(case.total_W, rel=1e-6)

    def test_sample_many_length(self, tiny_chip, rng):
        assert len(PowerSampler(tiny_chip).sample_many(7, rng)) == 7


class TestNormalizer:
    def test_fit_transform_statistics(self, rng):
        data = rng.standard_normal((20, 3, 8, 8)) * 5 + 2
        normalizer = Normalizer()
        transformed = normalizer.fit_transform(data)
        np.testing.assert_allclose(transformed.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(transformed.std(axis=(0, 2, 3)), 1.0, atol=1e-6)

    def test_inverse_transform_roundtrip(self, rng):
        data = rng.standard_normal((10, 2, 4, 4)) * 3 + 7
        normalizer = Normalizer().fit(data)
        np.testing.assert_allclose(
            normalizer.inverse_transform(normalizer.transform(data)), data, rtol=1e-6
        )

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            Normalizer().transform(np.zeros((1, 1, 2, 2)))

    def test_constant_channel_does_not_divide_by_zero(self):
        data = np.ones((5, 1, 3, 3))
        out = Normalizer().fit_transform(data)
        assert np.isfinite(out).all()

    def test_state_dict_roundtrip(self, rng):
        data = rng.standard_normal((6, 2, 3, 3))
        normalizer = Normalizer().fit(data)
        restored = Normalizer.from_state_dict(normalizer.state_dict())
        np.testing.assert_allclose(restored.transform(data), normalizer.transform(data))


class TestThermalDataset:
    def _dataset(self, n=10):
        rng = np.random.default_rng(0)
        return ThermalDataset(
            inputs=rng.standard_normal((n, 2, 8, 8)),
            targets=rng.standard_normal((n, 2, 8, 8)) + 300,
            chip_name="tiny",
            resolution=8,
            metadata={"total_power_W": np.arange(n, dtype=float)},
        )

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ThermalDataset(rng.standard_normal((3, 2, 4, 4)), rng.standard_normal((4, 2, 4, 4)), "x", 4)
        with pytest.raises(ValueError):
            ThermalDataset(rng.standard_normal((3, 2, 4, 4)), rng.standard_normal((3, 2, 5, 5)), "x", 4)

    def test_split_sizes_and_disjointness(self):
        dataset = self._dataset(10)
        split = dataset.split(0.8, rng=np.random.default_rng(1))
        assert len(split.train) == 8 and len(split.test) == 2
        assert split.ratio == pytest.approx(4.0)

    def test_subset_carries_metadata(self):
        subset = self._dataset(10).subset([0, 3, 5])
        np.testing.assert_allclose(subset.metadata["total_power_W"], [0.0, 3.0, 5.0])

    def test_batches_cover_all_samples(self):
        dataset = self._dataset(10)
        seen = 0
        for x, y in dataset.batches(3, shuffle=False):
            assert x.shape[0] == y.shape[0]
            seen += x.shape[0]
        assert seen == 10

    def test_batches_with_normalizers(self):
        dataset = self._dataset(8)
        normalizers = dataset.fit_normalizers()
        batches = list(dataset.batches(8, shuffle=False, normalizers=normalizers))
        assert abs(float(batches[0][1].data.mean())) < 1e-5

    def test_save_and_load_roundtrip(self, tmp_path):
        dataset = self._dataset(6)
        path = tmp_path / "data.npz"
        dataset.save(str(path))
        loaded = ThermalDataset.load(str(path))
        np.testing.assert_allclose(loaded.inputs, dataset.inputs)
        np.testing.assert_allclose(loaded.metadata["total_power_W"], dataset.metadata["total_power_W"])
        assert loaded.chip_name == "tiny" and loaded.resolution == 8


class TestGeneration:
    def test_generate_dataset_deterministic(self):
        spec = DatasetSpec(chip_name="chip1", resolution=12, num_samples=3, seed=7)
        first = generate_dataset(spec)
        second = generate_dataset(spec)
        np.testing.assert_allclose(first.inputs, second.inputs)
        np.testing.assert_allclose(first.targets, second.targets)

    def test_generated_temperatures_physical(self, tiny_dataset):
        assert tiny_dataset.targets.min() > 298.0
        assert tiny_dataset.targets.max() < 600.0
        assert tiny_dataset.inputs.min() >= 0.0

    def test_channels_match_chip_power_layers(self, tiny_dataset):
        chip = get_chip("chip1")
        assert tiny_dataset.num_input_channels == chip.num_power_layers
        assert tiny_dataset.num_output_channels == chip.num_power_layers

    def test_multifidelity_pair_resolutions(self):
        low, high = generate_multifidelity_pair(
            "chip1", low_resolution=10, high_resolution=14, num_low=2, num_high=2, seed=1
        )
        assert low.resolution == 10 and high.resolution == 14
        with pytest.raises(ValueError):
            generate_multifidelity_pair("chip1", 16, 16, 2, 2)

    def test_cache_key_distinguishes_specs(self):
        a = DatasetSpec("chip1", 16, 4, seed=0)
        b = DatasetSpec("chip1", 16, 4, seed=1)
        c = DatasetSpec("chip2", 16, 4, seed=0)
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 3

    def test_cache_key_embeds_solver_version(self):
        from repro.solvers.fvm import SOLVER_VERSION

        spec = DatasetSpec("chip1", 16, 4, seed=0)
        assert f"_v{SOLVER_VERSION}" in spec.cache_key()
        fine = DatasetSpec("chip1", 16, 4, seed=0, cells_per_layer=3)
        assert fine.cache_key() != spec.cache_key()
        # Pinned: datasets cached under this key format must keep hitting.
        assert DatasetSpec("chip1", 32, 8).cache_key() == (
            "chip1_r32_n8_s0_c2_b3_i0.15_pdefault_v7"
        )

    def test_generate_dataset_batch_size_invariant(self):
        spec = DatasetSpec(chip_name="chip1", resolution=10, num_samples=5, seed=3)
        small_batches = generate_dataset(spec, batch_size=2)
        one_batch = generate_dataset(spec, batch_size=64)
        np.testing.assert_allclose(small_batches.inputs, one_batch.inputs)
        np.testing.assert_allclose(small_batches.targets, one_batch.targets, atol=1e-9)
        with pytest.raises(ValueError):
            generate_dataset(spec, batch_size=0)

    def test_dataset_cache_generates_then_reuses(self, tmp_path):
        cache = DatasetCache(str(tmp_path))
        spec = DatasetSpec(chip_name="chip1", resolution=10, num_samples=2, seed=5)
        assert not cache.contains(spec)
        first = cache.get(spec)
        assert cache.contains(spec)
        second = cache.get(spec)
        np.testing.assert_allclose(first.inputs, second.inputs)
        assert cache.clear() == 1

    def test_dataset_cache_misses_share_one_plane(self, tmp_path, count_solver_calls):
        cache = DatasetCache(str(tmp_path))
        cache.get(DatasetSpec("chip2", 12, 4, seed=1))
        calls = count_solver_calls()
        second = cache.get(DatasetSpec("chip2", 12, 8, seed=2))
        assert calls == {"factorize": 0, "backsub": 0, "separable": 0}
        assert_same_dataset(second, generate_dataset(DatasetSpec("chip2", 12, 8, seed=2)))

    def test_interrupted_save_leaves_no_cache_entry(self, tmp_path, monkeypatch):
        cache = DatasetCache(str(tmp_path))
        spec = DatasetSpec(chip_name="chip1", resolution=8, num_samples=2, seed=6)

        def torn_save(self, path):
            with open(path, "wb") as handle:
                handle.write(b"PK\x03\x04 truncated archive")
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(ThermalDataset, "save", torn_save)
            with pytest.raises(OSError, match="disk full"):
                cache.get(spec)
        assert not cache.contains(spec)
        assert list(tmp_path.iterdir()) == []
        # The next get() regenerates and stores a loadable archive.
        cache.get(spec)
        assert cache.contains(spec)
        assert len(ThermalDataset.load(str(cache.path_for(spec)))) == 2


class TestMultifidelityGeometrySharing:
    """The low/high pair shares one voxelisation when resolutions allow."""

    def test_coarsened_geometry_equals_direct_build(self):
        chip = get_chip("chip1")
        high = build_geometry(chip, nx=16, cells_per_layer=2)
        derived = high.coarsen(2)
        direct = build_geometry(chip, nx=8, cells_per_layer=2)
        assert (derived.nx, derived.ny) == (direct.nx, direct.ny)
        np.testing.assert_array_equal(derived.conductivity, direct.conductivity)
        np.testing.assert_array_equal(derived.dz_mm, direct.dz_mm)
        np.testing.assert_array_equal(derived.layer_of_cell, direct.layer_of_cell)
        assert derived.power_layer_slices == direct.power_layer_slices
        # The vertical layout is shared, not copied.
        assert derived.dz_mm is high.dz_mm and derived.rasters is high.rasters

    def test_coarsen_validates_factor(self):
        geometry = build_geometry(get_chip("chip1"), nx=12)
        assert geometry.coarsen(1) is geometry
        with pytest.raises(ValueError):
            geometry.coarsen(5)
        with pytest.raises(ValueError):
            geometry.coarsen(0)

    def test_shared_pair_equivalent_to_independent(self):
        shared = generate_multifidelity_pair(
            "chip1", low_resolution=8, high_resolution=16, num_low=3, num_high=2,
            seed=2,
        )
        independent = (
            generate_dataset(DatasetSpec("chip1", 8, 3, seed=2)),
            generate_dataset(DatasetSpec("chip1", 16, 2, seed=3)),
        )
        for left, right in zip(shared, independent):
            np.testing.assert_array_equal(left.inputs, right.inputs)
            np.testing.assert_array_equal(left.targets, right.targets)

    def test_non_divisible_resolutions_fall_back(self):
        low, high = generate_multifidelity_pair(
            "chip1", low_resolution=10, high_resolution=16, num_low=2, num_high=2,
            seed=1,
        )
        assert low.resolution == 10 and high.resolution == 16
