"""The full 3D-IC stack: die layers plus the cooling assembly."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chip.cooling import CoolingSpec
from repro.chip.floorplan import Floorplan
from repro.chip.layers import Layer


@dataclass
class ChipStack:
    """A stacked 3D integrated circuit.

    Layers are ordered from the bottom of the stack (package side) to the top
    (TIM / heat-spreader side); the heat sink assembly is described by the
    :class:`~repro.chip.cooling.CoolingSpec` and enters the PDE as a Robin
    boundary condition on the top surface.

    Attributes
    ----------
    name:
        Chip identifier (``"chip1"``, ``"chip2"``, ``"chip3"``).
    die_width_mm, die_height_mm:
        In-plane dimensions of the die layers.
    layers:
        The stack, bottom to top.
    cooling:
        Heat spreader + heat sink assembly and ambient temperature.
    power_budget_W:
        The (min, max) total power range used by the random power-map
        sampler, chosen so the resulting junction temperatures match the
        ranges reported in the paper's Table IV.
    """

    name: str
    die_width_mm: float
    die_height_mm: float
    layers: List[Layer]
    cooling: CoolingSpec = field(default_factory=CoolingSpec)
    power_budget_W: Tuple[float, float] = (60.0, 110.0)

    def __post_init__(self):
        if self.die_width_mm <= 0 or self.die_height_mm <= 0:
            raise ValueError("die dimensions must be positive")
        if not self.layers:
            raise ValueError("a chip stack needs at least one layer")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError("layer names must be unique")
        for layer in self.layers:
            if layer.floorplan is not None:
                if (
                    abs(layer.floorplan.width - self.die_width_mm) > 1e-6
                    or abs(layer.floorplan.height - self.die_height_mm) > 1e-6
                ):
                    raise ValueError(
                        f"floorplan of layer '{layer.name}' does not match the die size"
                    )
        if not self.power_layers:
            raise ValueError("a chip stack needs at least one power layer")
        low, high = self.power_budget_W
        if low <= 0 or high < low:
            raise ValueError("power budget must satisfy 0 < low <= high")

    # ------------------------------------------------------------------
    # Layer access
    # ------------------------------------------------------------------
    @property
    def layer_names(self) -> List[str]:
        return [layer.name for layer in self.layers]

    def get_layer(self, name: str) -> Layer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named '{name}' in chip '{self.name}'")

    def layer_index(self, name: str) -> int:
        return self.layer_names.index(name)

    @property
    def power_layers(self) -> List[Layer]:
        """Device layers that dissipate power, bottom to top."""
        return [layer for layer in self.layers if layer.is_power_layer]

    @property
    def power_layer_names(self) -> List[str]:
        return [layer.name for layer in self.power_layers]

    @property
    def num_power_layers(self) -> int:
        return len(self.power_layers)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def die_area_m2(self) -> float:
        return self.die_width_mm * self.die_height_mm * 1e-6

    @property
    def total_thickness_mm(self) -> float:
        return sum(layer.thickness_mm for layer in self.layers)

    def layer_z_extents_mm(self) -> List[Tuple[float, float]]:
        """(z_bottom, z_top) of every layer, measured from the stack bottom."""
        extents = []
        z = 0.0
        for layer in self.layers:
            extents.append((z, z + layer.thickness_mm))
            z += layer.thickness_mm
        return extents

    # ------------------------------------------------------------------
    # Power handling
    # ------------------------------------------------------------------
    def all_power_blocks(self) -> Dict[str, List[str]]:
        """Map each power layer name to the names of its floorplan blocks."""
        return {layer.name: layer.floorplan.block_names for layer in self.power_layers}

    def flat_block_names(self) -> List[str]:
        """All power-dissipating blocks as ``"layer/block"`` identifiers."""
        names = []
        for layer in self.power_layers:
            names.extend(f"{layer.name}/{block}" for block in layer.floorplan.block_names)
        return names

    def split_power_assignment(
        self, assignment: Dict[str, float]
    ) -> Dict[str, Dict[str, float]]:
        """Split a flat ``"layer/block" -> power`` mapping into per-layer mappings."""
        per_layer: Dict[str, Dict[str, float]] = {layer.name: {} for layer in self.power_layers}
        for key, power in assignment.items():
            if "/" not in key:
                raise KeyError(f"power key '{key}' must have the form 'layer/block'")
            layer_name, block_name = key.split("/", 1)
            if layer_name not in per_layer:
                raise KeyError(f"'{layer_name}' is not a power layer of chip '{self.name}'")
            per_layer[layer_name][block_name] = power
        return per_layer

    def total_power(self, assignment: Dict[str, float]) -> float:
        """Total power (W) of a flat ``"layer/block" -> power`` assignment."""
        return float(sum(assignment.values()))

    def fingerprint(self) -> str:
        """Structural identity of this design.

        Two independently built :class:`ChipStack` objects describing the
        same design must fingerprint equally (``Floorplan`` is a plain
        class, so ``==`` cannot tell a rebuilt design from a changed one),
        and any change that affects the discretisation — dimensions,
        layers, materials, floorplans, cooling — must change the
        fingerprint.  The session uses it to decide when re-registering a
        chip name must invalidate pooled solvers, and dataset
        generation embeds a digest of it in warm-state keys so two different
        designs sharing a name never share a block basis.
        """
        parts = [
            self.name,
            repr((self.die_width_mm, self.die_height_mm, self.power_budget_W)),
            repr(self.cooling),
        ]
        for layer in self.layers:
            floorplan = None
            if layer.floorplan is not None:
                floorplan = (
                    layer.floorplan.name,
                    layer.floorplan.width,
                    layer.floorplan.height,
                    tuple(layer.floorplan.blocks),
                )
            parts.append(
                repr(
                    (
                        layer.name,
                        layer.thickness_mm,
                        layer.material,
                        layer.is_power_layer,
                        layer.tsv_array,
                        floorplan,
                    )
                )
            )
        return "\x00".join(parts)

    def summary(self) -> str:
        """A human-readable description used by examples and benches."""
        lines = [
            f"Chip '{self.name}': die {self.die_width_mm} x {self.die_height_mm} mm, "
            f"{len(self.layers)} layers, {self.num_power_layers} power layers"
        ]
        for layer in self.layers:
            blocks = (
                f", {len(layer.floorplan.blocks)} blocks" if layer.floorplan is not None else ""
            )
            lines.append(
                f"  - {layer.name}: {layer.thickness_mm} mm {layer.material.name}"
                f" (k={layer.effective_material.conductivity:.1f} W/mK){blocks}"
            )
        resistance = self.cooling.top_resistance(self.die_area_m2)
        lines.append(f"  cooling: die-to-ambient resistance {resistance:.3f} K/W")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ChipStack('{self.name}', {len(self.layers)} layers)"
