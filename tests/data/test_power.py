"""Tests for the shared power-assignment parsing/validation helpers."""

import numpy as np
import pytest

from repro.chip.designs import get_chip
from repro.data.power import (
    PowerSampler,
    parse_power_spec,
    rasterize_assignment,
    uniform_power_assignment,
    validate_power_assignment,
)


@pytest.fixture
def chip():
    return get_chip("chip1")


class TestValidatePowerAssignment:
    def test_valid_mapping_coerces_to_float(self, chip):
        name = chip.flat_block_names()[0]
        result = validate_power_assignment(chip, {name: "12.5"})
        assert result == {name: 12.5}

    def test_unknown_block_raises_keyerror(self, chip):
        with pytest.raises(KeyError, match="unknown block 'bogus/block'"):
            validate_power_assignment(chip, {"bogus/block": 1.0})

    def test_negative_power_raises(self, chip):
        name = chip.flat_block_names()[0]
        with pytest.raises(ValueError, match="non-negative"):
            validate_power_assignment(chip, {name: -3.0})

    def test_non_numeric_and_non_finite_raise(self, chip):
        name = chip.flat_block_names()[0]
        with pytest.raises(ValueError, match="must be a number"):
            validate_power_assignment(chip, {name: "lots"})
        with pytest.raises(ValueError, match="finite"):
            validate_power_assignment(chip, {name: float("nan")})
        with pytest.raises(ValueError, match="finite"):  # float() overflows
            validate_power_assignment(chip, {name: 10**400})


class TestUniformAssignment:
    def test_spreads_total_over_all_blocks(self, chip):
        assignment = uniform_power_assignment(chip, 60.0)
        assert set(assignment) == set(chip.flat_block_names())
        assert abs(sum(assignment.values()) - 60.0) < 1e-9
        values = list(assignment.values())
        assert max(values) - min(values) < 1e-12

    def test_defaults_to_budget_midpoint(self, chip):
        assignment = uniform_power_assignment(chip)
        expected = sum(chip.power_budget_W) / 2
        assert abs(sum(assignment.values()) - expected) < 1e-9

    def test_negative_total_rejected(self, chip):
        with pytest.raises(ValueError):
            uniform_power_assignment(chip, -5.0)

    def test_total_beyond_float_range_rejected(self, chip):
        with pytest.raises(ValueError, match="finite"):
            uniform_power_assignment(chip, 10**400)


class TestParsePowerSpec:
    def test_json_path(self, chip):
        name = chip.flat_block_names()[0]
        assignment = parse_power_spec(chip, powers_json=f'{{"{name}": 20.0}}')
        assert assignment == {name: 20.0}

    def test_malformed_json_raises_valueerror(self, chip):
        with pytest.raises(ValueError, match="malformed power JSON"):
            parse_power_spec(chip, powers_json="{not json")

    def test_non_object_json_rejected(self, chip):
        with pytest.raises(ValueError, match="must be an object"):
            parse_power_spec(chip, powers_json="[1, 2, 3]")

    def test_unknown_block_propagates(self, chip):
        with pytest.raises(KeyError, match="unknown block"):
            parse_power_spec(chip, powers_json='{"bogus/block": 1.0}')

    def test_falls_back_to_uniform(self, chip):
        assignment = parse_power_spec(chip, total_power_W=44.0)
        assert abs(sum(assignment.values()) - 44.0) < 1e-9


class TestRasterizeAssignment:
    def test_matches_per_layer_floorplan_rasterisation(self, chip, rng):
        """Independent oracle: split the flat assignment by hand and rasterise
        each power layer's floorplan directly (the pre-refactor construction)."""
        case = PowerSampler(chip).sample(rng)
        direct = rasterize_assignment(chip, case.assignment, 16)
        assert direct.shape == (chip.num_power_layers, 16, 16)
        per_layer = {layer.name: {} for layer in chip.power_layers}
        for key, watts in case.assignment.items():
            layer_name, block_name = key.split("/", 1)
            per_layer[layer_name][block_name] = watts
        for index, layer in enumerate(chip.power_layers):
            expected = layer.floorplan.power_density_map(per_layer[layer.name], 16, 16)
            np.testing.assert_array_equal(direct[index], expected)

    def test_power_integral_preserved(self, chip):
        assignment = uniform_power_assignment(chip, 50.0)
        maps = rasterize_assignment(chip, assignment, 24)
        cell_area_m2 = (chip.die_width_mm * 1e-3 / 24) * (chip.die_height_mm * 1e-3 / 24)
        total = maps.sum() * cell_area_m2
        assert abs(total - 50.0) / 50.0 < 0.05  # up to block-edge rasterisation


def _sample_with_per_call_constants(sampler, rng):
    """``PowerSampler.sample`` as it was before its per-block constants were
    hoisted into ``__init__``: areas and core bias rebuilt on every call."""
    names = sampler.block_names
    areas = []
    for layer in sampler.chip.power_layers:
        areas.extend(block.area_mm2 for block in layer.floorplan.blocks)
    areas = np.asarray(areas)
    bias = np.array([
        sampler.core_bias
        if ("core" in n.lower() or n.lower().split("/")[-1].startswith("c"))
        else 1.0
        for n in names
    ])
    activity = rng.gamma(sampler.concentration, 1.0, size=len(names))
    active = rng.random(len(names)) >= sampler.idle_probability
    if not active.any():
        active[rng.integers(len(names))] = True
    weights = areas * bias * activity * active
    idle_floor = 0.02 * areas * (~active)
    weights = weights + idle_floor
    weights = weights / weights.sum()
    total = rng.uniform(*sampler.total_power_range_W)
    powers = weights * total
    return {name: float(p) for name, p in zip(names, powers)}, float(total)


class TestSamplerConstants:
    @pytest.mark.parametrize("seed", (0, 7))
    @pytest.mark.parametrize("chip_name", ("chip1", "chip2", "chip3"))
    def test_hoisted_constants_keep_samples_bitwise(self, chip_name, seed):
        sampler = PowerSampler(get_chip(chip_name))
        cases = sampler.sample_many(64, np.random.default_rng(seed))
        reference_rng = np.random.default_rng(seed)
        for case in cases:
            assignment, total = _sample_with_per_call_constants(sampler, reference_rng)
            assert case.assignment == assignment
            assert case.total_W == total
