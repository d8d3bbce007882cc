"""Data pipeline: power-map sampling, dataset containers and generation.

The paper trains on 5,000 randomly generated power distributions per chip,
simulated with MTA.  Here the same generative process is implemented on top
of the in-repo FVM solver: random per-block powers within a total budget,
rasterised to per-layer power-density maps (the operator inputs), with the
solver's per-layer temperature maps as targets.
"""

from repro.data.power import (
    PowerSampler,
    PowerCase,
    parse_power_spec,
    rasterize_assignment,
    uniform_power_assignment,
    validate_power_assignment,
)
from repro.data.dataset import ThermalDataset, Normalizer, DataSplit
from repro.data.generation import (
    generate_dataset,
    generate_multifidelity_pair,
    DatasetSpec,
)
from repro.data.cache import DatasetCache

__all__ = [
    "PowerSampler",
    "PowerCase",
    "parse_power_spec",
    "rasterize_assignment",
    "uniform_power_assignment",
    "validate_power_assignment",
    "ThermalDataset",
    "Normalizer",
    "DataSplit",
    "generate_dataset",
    "generate_multifidelity_pair",
    "DatasetSpec",
    "DatasetCache",
]
