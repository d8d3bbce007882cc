"""Random power-distribution sampling (Section IV-A, "Data Generation").

The paper "randomly assigned power levels to different functional blocks
while ensuring the total power remained within an appropriate range".  The
:class:`PowerSampler` reproduces that process: it draws per-block power
weights (cores hotter than caches on average), rescales them to a total power
drawn from the chip's budget, and optionally drops some blocks to idle to
create the strong power-contrast cases visualised in Figs. 4 and 5.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.chip.stack import ChipStack


# ----------------------------------------------------------------------
# Power-assignment parsing, validation and rasterisation
#
# Shared by the ``repro-thermal solve`` CLI and the serving request
# validator so both accept exactly the same power specifications and fail
# with the same messages.
# ----------------------------------------------------------------------
def error_message(error: BaseException) -> str:
    """Client-safe message of a validation error.

    ``str(KeyError)`` repr-quotes the message; unwrap ``args[0]`` so the CLI
    and the HTTP API report the same clean text for both error families.
    """
    if isinstance(error, KeyError) and error.args:
        return str(error.args[0])
    return str(error)


def validate_power_assignment(
    chip: ChipStack, assignment: Mapping[str, object]
) -> Dict[str, float]:
    """Check a flat ``"layer/block" -> watts`` mapping against a chip.

    Returns the mapping with every value coerced to ``float``.  Raises
    :class:`KeyError` for blocks the chip does not have and
    :class:`ValueError` for powers that are negative, non-finite or not
    numbers.
    """
    known = set(chip.flat_block_names())
    validated: Dict[str, float] = {}
    for key, raw in assignment.items():
        name = str(key)
        if name not in known:
            raise KeyError(
                f"unknown block '{name}' for chip '{chip.name}'; "
                f"valid blocks: {', '.join(sorted(known))}"
            )
        try:
            power = float(raw)  # type: ignore[arg-type]
        except OverflowError:  # an integer beyond the float range
            power = np.inf
        except (TypeError, ValueError):
            raise ValueError(f"power of block '{name}' must be a number, got {raw!r}")
        if not np.isfinite(power):
            raise ValueError(f"power of block '{name}' must be finite, got {power!r}")
        if power < 0:
            raise ValueError(f"power of block '{name}' must be non-negative, got {power:g}")
        validated[name] = power
    return validated


def uniform_power_assignment(
    chip: ChipStack, total_power_W: Optional[float] = None
) -> Dict[str, float]:
    """Spread a total power uniformly over every block of the chip.

    When ``total_power_W`` is omitted the midpoint of the chip's power
    budget is used (the CLI's historical default).
    """
    if total_power_W is None:
        total = sum(chip.power_budget_W) / 2
    else:
        try:
            total = float(total_power_W)
        except OverflowError:  # an integer beyond the float range
            total = np.inf
        if not np.isfinite(total) or total < 0:
            raise ValueError(f"total power must be non-negative and finite, got {total!r}")
    names = chip.flat_block_names()
    return {name: total / len(names) for name in names}


def parse_power_spec(
    chip: ChipStack,
    powers_json: Optional[str] = None,
    total_power_W: Optional[float] = None,
) -> Dict[str, float]:
    """Turn a CLI-style power specification into a validated assignment.

    ``powers_json`` is JSON text mapping ``"layer/block"`` to watts (the
    ``--powers`` argument); when absent, ``total_power_W`` is spread
    uniformly over every block (the ``--total-power`` argument).  Raises
    :class:`ValueError` for malformed JSON / bad powers and
    :class:`KeyError` for unknown blocks.
    """
    if powers_json is not None:
        try:
            raw = json.loads(powers_json)
        except json.JSONDecodeError as error:
            raise ValueError(f"malformed power JSON: {error}")
        if not isinstance(raw, dict):
            raise ValueError(
                f"power JSON must be an object mapping 'layer/block' to watts, "
                f"got {type(raw).__name__}"
            )
        return validate_power_assignment(chip, raw)
    return uniform_power_assignment(chip, total_power_W)


def rasterize_assignment(
    chip: ChipStack,
    assignment: Mapping[str, float],
    nx: int,
    ny: Optional[int] = None,
) -> np.ndarray:
    """Rasterise a flat power assignment into per-layer density maps (W/m^2).

    Returns an array of shape ``(num_power_layers, ny, nx)`` — the input the
    neural operators consume (one channel per power layer).
    """
    ny = ny or nx
    per_layer = chip.split_power_assignment(dict(assignment))
    maps = []
    for layer in chip.power_layers:
        maps.append(layer.floorplan.power_density_map(per_layer.get(layer.name, {}), nx, ny))
    return np.stack(maps)


@dataclass
class PowerCase:
    """A single random power distribution.

    Attributes
    ----------
    assignment:
        Flat mapping ``"layer/block" -> power (W)``.
    total_W:
        Total dissipated power.
    """

    assignment: Dict[str, float]
    total_W: float

    def per_layer(self, chip: ChipStack) -> Dict[str, Dict[str, float]]:
        return chip.split_power_assignment(self.assignment)


def _is_core_block(name: str) -> bool:
    lower = name.lower()
    return "core" in lower or lower.split("/")[-1].startswith("c")


class PowerSampler:
    """Draw random per-block power assignments for a chip.

    Parameters
    ----------
    chip:
        The chip whose blocks receive power.
    total_power_range_W:
        Overrides the chip's default ``power_budget_W`` when provided.
    core_bias:
        Mean power-density multiplier of core blocks relative to cache
        blocks; cores in real workloads dissipate far more per unit area.
    idle_probability:
        Probability that any given block is idle (near-zero power) in a
        sample, which produces the localised hot spots the paper highlights.
    concentration:
        Dirichlet concentration of the block weights; lower values give more
        unequal (spikier) power maps.
    """

    def __init__(
        self,
        chip: ChipStack,
        total_power_range_W: Optional[Tuple[float, float]] = None,
        core_bias: float = 3.0,
        idle_probability: float = 0.15,
        concentration: float = 1.5,
    ):
        self.chip = chip
        self.total_power_range_W = total_power_range_W or chip.power_budget_W
        low, high = self.total_power_range_W
        if low <= 0 or high < low:
            raise ValueError("total power range must satisfy 0 < low <= high")
        if core_bias <= 0:
            raise ValueError("core_bias must be positive")
        if not 0.0 <= idle_probability < 1.0:
            raise ValueError("idle_probability must be in [0, 1)")
        self.core_bias = core_bias
        self.idle_probability = idle_probability
        self.concentration = concentration
        self.block_names = chip.flat_block_names()
        # Per-block constants of :meth:`sample`, fixed at construction.
        self._areas_mm2 = np.asarray(
            [block.area_mm2 for layer in chip.power_layers
             for block in layer.floorplan.blocks]
        )
        self._bias = np.array(
            [core_bias if _is_core_block(name) else 1.0 for name in self.block_names]
        )

    def sample(self, rng: np.random.Generator) -> PowerCase:
        """Draw one random power case.

        Block powers scale with block area (bounded power density) modulated
        by a random activity factor and the core/cache bias, then the whole
        map is rescaled to a total power drawn from the chip budget.  This
        mirrors the paper's "randomly assigned power levels ... while ensuring
        the total power remained within an appropriate range" and keeps peak
        power densities physically plausible.
        """
        names = self.block_names
        areas = self._areas_mm2
        bias = self._bias
        # Gamma-distributed activity gives smooth variation with occasional
        # strongly loaded blocks (shape = concentration).
        activity = rng.gamma(self.concentration, 1.0, size=len(names))
        active = rng.random(len(names)) >= self.idle_probability
        if not active.any():
            active[rng.integers(len(names))] = True
        weights = areas * bias * activity * active
        idle_floor = 0.02 * areas * (~active)
        weights = weights + idle_floor
        weights = weights / weights.sum()
        total = rng.uniform(*self.total_power_range_W)
        powers = weights * total
        assignment = {name: float(p) for name, p in zip(names, powers)}
        return PowerCase(assignment=assignment, total_W=float(total))

    def sample_many(self, count: int, rng: np.random.Generator) -> List[PowerCase]:
        """Draw ``count`` independent power cases."""
        return [self.sample(rng) for _ in range(count)]

    def contrast_case(self, hot_blocks: List[str], rng: np.random.Generator) -> PowerCase:
        """A case where the named blocks take most of the power budget.

        Used to construct the two strongly contrasted visualisation cases of
        Figs. 4 and 5.
        """
        unknown = set(hot_blocks) - set(self.block_names)
        if unknown:
            raise KeyError(f"unknown blocks: {sorted(unknown)}")
        total = self.total_power_range_W[1]
        hot_share = 0.85
        cold_blocks = [name for name in self.block_names if name not in hot_blocks]
        assignment = {}
        for name in hot_blocks:
            assignment[name] = hot_share * total / len(hot_blocks)
        for name in cold_blocks:
            assignment[name] = (1.0 - hot_share) * total / max(len(cold_blocks), 1)
        return PowerCase(assignment=assignment, total_W=total)

    def rasterize(self, case: PowerCase, nx: int, ny: Optional[int] = None) -> np.ndarray:
        """Rasterise a power case into per-layer areal density maps (W/m^2).

        Returns an array of shape ``(num_power_layers, ny, nx)`` — the input
        the neural operators consume (one channel per power layer).
        """
        return rasterize_assignment(self.chip, case.assignment, nx, ny)
