"""The one answer type of the thermal API: :class:`ThermalSolution`.

Before the :mod:`repro.api` facade existed the repository had two
incompatible result types for the same physical question: the field solvers
returned :class:`~repro.solvers.fvm.TemperatureField` (a chip object, a voxel
grid and a 3-D kelvin array) while the serving subsystem returned
``ThermalResult`` (summary statistics plus request metadata).  Every consumer
had to know which one it was holding.

:class:`ThermalSolution` merges the two: summary statistics (``max_K`` /
``min_K`` / ``mean_K`` / hotspot location) are always present, the per-layer
temperature maps and the full 3-D field are optional views populated on
request, ``provenance`` records how the answer was produced (backend
internals, cache hits, transient horizons), and the serving metadata
(``request_id`` / ``latency_seconds``) lives on the same object so the
serving engine needs no wrapper type.
``repro.serving.request.ThermalResult`` is now a deprecation alias for this
class.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np


@dataclass
class ThermalSolution:
    """Answer to one steady-state (or quasi-steady) thermal query.

    Attributes
    ----------
    chip:
        Name of the chip the query was answered for.
    resolution:
        In-plane grid resolution of the answer (block granularity for the
        compact backend, but maps are rasterised at this resolution).
    backend:
        Name of the backend that produced the numbers.
    max_K, min_K, mean_K:
        Summary statistics of the temperature field in kelvin.
    total_power_W:
        Total power dissipated by the query's power assignment.
    hotspot:
        Location (``x_mm`` / ``y_mm``) and value of the peak temperature.
    solve_seconds:
        Backend compute time attributed to this case; for batched solves the
        amortised per-case share of the batch.
    layer_maps:
        Optional per-power-layer temperature maps ``name -> (ny, nx)``.
    values:
        Optional full cell-centred field ``(nz, ny, nx)`` — populated only by
        backends that compute one (fvm, transient) and only on request.
    provenance:
        How the answer came to be: backend internals (solver kernel, model
        name), ``cached: True`` for session result-cache hits, transient
        integration parameters, and — through the serving engine — a
        ``trace`` dict (``trace_id`` plus ``spans_ms`` with queue-wait and
        solve timings) echoed back in ``to_json``.
    history:
        Optional transient time histories (``times_s`` / ``peak_K`` /
        ``mean_K`` arrays) for answers produced by time integration.
    request_id, latency_seconds:
        Serving metadata stamped by the serving engine; idle defaults
        outside the serving path.
    """

    chip: str
    resolution: int
    backend: str
    max_K: float
    min_K: float
    mean_K: float
    total_power_W: float
    hotspot: Dict[str, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    layer_maps: Optional[Dict[str, np.ndarray]] = None
    values: Optional[np.ndarray] = None
    provenance: Dict[str, Any] = field(default_factory=dict)
    history: Optional[Dict[str, np.ndarray]] = None
    request_id: str = ""
    latency_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def cached(self) -> bool:
        """Whether this answer came from the session result cache."""
        return bool(self.provenance.get("cached", False))

    def layer_map(self, layer_name: str) -> np.ndarray:
        """Temperature map (ny, nx) of one power layer."""
        if self.layer_maps is None:
            raise ValueError(
                "this solution carries no layer maps; re-solve with include_maps=True"
            )
        if layer_name not in self.layer_maps:
            raise KeyError(
                f"'{layer_name}' is not among the solution's layers: "
                f"{', '.join(sorted(self.layer_maps))}"
            )
        return self.layer_maps[layer_name]

    def power_layer_maps(self) -> np.ndarray:
        """Stack of per-power-layer maps, shape ``(n_layers, ny, nx)``."""
        if self.layer_maps is None:
            raise ValueError(
                "this solution carries no layer maps; re-solve with include_maps=True"
            )
        return np.stack([self.layer_maps[name] for name in self.layer_maps])

    def summary(self) -> Dict[str, float]:
        """Scalar summary used by tables and logs."""
        return {
            "max_K": self.max_K,
            "min_K": self.min_K,
            "mean_K": self.mean_K,
            "total_power_W": self.total_power_W,
            "solve_seconds": self.solve_seconds,
        }

    def error_vs(self, reference: "ThermalSolution") -> Dict[str, float]:
        """Error view against a reference answer to the same query.

        When both solutions carry layer maps of matching shape the errors are
        field errors over the common layers; otherwise they degrade to the
        summary-statistic deltas.  Either way the junction-temperature delta
        is always included — it is the number thermal sign-off cares about.
        """
        errors: Dict[str, float] = {
            "delta_max_K": float(self.max_K - reference.max_K),
            "delta_mean_K": float(self.mean_K - reference.mean_K),
        }
        if self.layer_maps and reference.layer_maps:
            common = [
                name
                for name in self.layer_maps
                if name in reference.layer_maps
                and self.layer_maps[name].shape == reference.layer_maps[name].shape
            ]
            if common:
                mine = np.stack([self.layer_maps[name] for name in common])
                theirs = np.stack([reference.layer_maps[name] for name in common])
                difference = mine - theirs
                errors["max_abs_K"] = float(np.abs(difference).max())
                errors["mean_abs_K"] = float(np.abs(difference).mean())
                errors["rmse_K"] = float(np.sqrt(np.mean(difference**2)))
        return errors

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """JSON-serialisable view (arrays become nested lists).

        Non-finite temperatures (a diverged surrogate) become ``null``:
        ``json.dumps`` would otherwise emit the literal ``NaN``, which strict
        JSON parsers reject.
        """

        def finite(value: float) -> Optional[float]:
            value = float(value)
            return round(value, 6) if np.isfinite(value) else None

        body: Dict[str, Any] = {
            "request_id": self.request_id,
            "chip": self.chip,
            "resolution": self.resolution,
            "backend": self.backend,
            "max_K": finite(self.max_K),
            "min_K": finite(self.min_K),
            "mean_K": finite(self.mean_K),
            "total_power_W": finite(self.total_power_W),
            "hotspot": {key: finite(v) for key, v in self.hotspot.items()},
            "solve_seconds": self.solve_seconds,
            "latency_seconds": self.latency_seconds,
        }
        if self.cached:
            body["cached"] = True
        trace = self.provenance.get("trace")
        if trace:
            body["trace"] = trace
        if self.layer_maps is not None:
            body["layer_maps"] = {
                name: np.asarray(values).tolist() for name, values in self.layer_maps.items()
            }
        if self.history is not None:
            body["history"] = {
                name: np.asarray(values).tolist() for name, values in self.history.items()
            }
        return body

    # ------------------------------------------------------------------
    # Cloning (the session result cache must never hand out the instance
    # it stores: the serving engine stamps latency and trace metadata onto
    # the solutions it returns).
    # ------------------------------------------------------------------
    def clone(self, **overrides: Any) -> "ThermalSolution":
        """A copy safe to mutate without touching this instance.

        Arrays are copied too: the result cache stores clones, and a shared
        ndarray would let a consumer's in-place unit conversion silently
        corrupt every future cache hit.
        """

        def copy_arrays(mapping):
            if mapping is None:
                return None
            return {key: np.array(value, copy=True) for key, value in mapping.items()}

        fields = dict(
            hotspot=dict(self.hotspot),
            layer_maps=copy_arrays(self.layer_maps),
            values=None if self.values is None else np.array(self.values, copy=True),
            provenance=dict(self.provenance),
            history=copy_arrays(self.history),
        )
        fields.update(overrides)
        return dataclasses.replace(self, **fields)
