"""Factory helpers to build operator models from configuration dictionaries.

The experiment harness (Tables II and III) builds every compared model from a
name plus a shared size configuration; centralising the construction here
keeps the benches declarative and makes it easy to add new baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.data.dataset import Normalizer
from repro.operators.deeponet import DeepOHeatModel
from repro.operators.fno import FNO2d
from repro.operators.gar import GARRegressor
from repro.operators.sau_fno import SAUFNO2d
from repro.operators.ufno import UFNO2d


def _build_fno(in_channels: int, out_channels: int, config: Dict[str, Any], rng):
    return FNO2d(
        in_channels,
        out_channels,
        width=config.get("width", 32),
        modes1=config.get("modes1", 12),
        modes2=config.get("modes2", 12),
        num_layers=config.get("num_layers", 4),
        rng=rng,
    )


def _build_ufno(in_channels: int, out_channels: int, config: Dict[str, Any], rng):
    return UFNO2d(
        in_channels,
        out_channels,
        width=config.get("width", 32),
        modes1=config.get("modes1", 12),
        modes2=config.get("modes2", 12),
        num_fourier_layers=config.get("num_fourier_layers", 2),
        num_ufourier_layers=config.get("num_ufourier_layers", 2),
        unet_base_channels=config.get("unet_base_channels", 16),
        unet_levels=config.get("unet_levels", 2),
        rng=rng,
    )


def _build_sau_fno(in_channels: int, out_channels: int, config: Dict[str, Any], rng):
    return SAUFNO2d(
        in_channels,
        out_channels,
        width=config.get("width", 32),
        modes1=config.get("modes1", 12),
        modes2=config.get("modes2", 12),
        num_fourier_layers=config.get("num_fourier_layers", 2),
        num_ufourier_layers=config.get("num_ufourier_layers", 2),
        unet_base_channels=config.get("unet_base_channels", 16),
        unet_levels=config.get("unet_levels", 2),
        attention_placement=config.get("attention_placement", "last"),
        attention_type=config.get("attention_type", "softmax"),
        attention_dim=config.get("attention_dim"),
        rng=rng,
    )


def _build_deepoheat(in_channels: int, out_channels: int, config: Dict[str, Any], rng):
    return DeepOHeatModel(
        in_channels,
        out_channels,
        sensor_resolution=config.get("sensor_resolution", 16),
        latent_dim=config.get("latent_dim", 64),
        branch_hidden=config.get("branch_hidden", (128, 128)),
        trunk_hidden=config.get("trunk_hidden", (64, 64)),
        rng=rng,
    )


def _build_gar(in_channels: int, out_channels: int, config: Dict[str, Any], rng):
    return GARRegressor(
        n_components=config.get("n_components", 32),
        alpha=config.get("alpha", 1e-3),
    )


OPERATOR_REGISTRY: Dict[str, Callable] = {
    "fno": _build_fno,
    "ufno": _build_ufno,
    "sau_fno": _build_sau_fno,
    "deepoheat": _build_deepoheat,
    "gar": _build_gar,
}


def build_operator(
    name: str,
    in_channels: int,
    out_channels: int,
    config: Dict[str, Any] | None = None,
    rng: np.random.Generator | None = None,
):
    """Build an operator model by registry name.

    Parameters
    ----------
    name:
        One of ``"fno"``, ``"ufno"``, ``"sau_fno"``, ``"deepoheat"``, ``"gar"``.
    in_channels, out_channels:
        Power-map and temperature channel counts of the target chip.
    config:
        Model-size options; unknown keys are ignored by builders that do not
        use them so one shared config can drive every baseline.
    """
    key = name.lower().replace("-", "_")
    if key not in OPERATOR_REGISTRY:
        raise KeyError(f"unknown operator '{name}'; available: {sorted(OPERATOR_REGISTRY)}")
    model = OPERATOR_REGISTRY[key](in_channels, out_channels, dict(config or {}), rng)
    # Record how the model was built so Module.save can embed the recipe and
    # load_operator can rebuild it standalone (no re-specifying widths/modes).
    model.config = {
        "operator": key,
        "in_channels": int(in_channels),
        "out_channels": int(out_channels),
        "options": dict(config or {}),
    }
    return model


# ----------------------------------------------------------------------
# Standalone persistence: weights + architecture + normalisers in one .npz
# ----------------------------------------------------------------------
@dataclass
class LoadedOperator:
    """An operator model reconstructed from a self-describing ``.npz``.

    Bundles the rebuilt model with the dataset normalisers it was trained
    with (when saved), so :meth:`predict` maps raw power-density maps
    straight to kelvin — exactly what the serving model registry needs.
    """

    model: Any
    name: str
    in_channels: int
    out_channels: int
    options: Dict[str, Any]
    chip_name: Optional[str] = None
    resolution: Optional[int] = None
    input_normalizer: Optional[Normalizer] = None
    output_normalizer: Optional[Normalizer] = None

    @property
    def has_normalizers(self) -> bool:
        return (
            self.input_normalizer is not None
            and self.input_normalizer.is_fitted
            and self.output_normalizer is not None
            and self.output_normalizer.is_fitted
        )

    def predict(self, inputs: np.ndarray, batch_size: int = 8) -> np.ndarray:
        """Run inference on raw (N, C, H, W) inputs, de-normalising outputs.

        The model computes in float32, and both normalisers apply in float32
        too, so the answer is float32 kelvin.  Against float64 normalisers
        the outputs moved by at most 4.3e-5 K, about 1.4 float32 spacings at
        370 K (three ``tiny`` chip1 @ 32 SAU-FNO models, 64 cases each).
        """
        if not self.has_normalizers:
            return self.model.predict(inputs, batch_size=batch_size)
        input_mean, input_std, output_mean, output_std = (
            np.asarray(stat, np.float32)
            for stat in (
                self.input_normalizer.mean,
                self.input_normalizer.std,
                self.output_normalizer.mean,
                self.output_normalizer.std,
            )
        )
        normalized = (np.asarray(inputs, np.float32) - input_mean) / input_std
        prediction = self.model.predict(normalized, batch_size=batch_size)
        return prediction * output_std + output_mean

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary (used by the serving ``/models`` endpoint)."""
        return {
            "operator": self.name,
            "chip": self.chip_name,
            "resolution": self.resolution,
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "options": self.options,
            "parameters": int(self.model.num_parameters()),
            "normalized": self.has_normalizers,
        }


def save_operator(
    model,
    path: str,
    input_normalizer: Optional[Normalizer] = None,
    output_normalizer: Optional[Normalizer] = None,
    chip_name: Optional[str] = None,
    resolution: Optional[int] = None,
) -> None:
    """Save a factory-built model with everything needed to serve it.

    Extends :meth:`Module.save` with the training normaliser statistics and
    the chip/resolution the model was trained for, so
    :func:`load_operator` reconstructs a ready-to-serve surrogate.
    """
    config = getattr(model, "config", None)
    if config is None:
        raise ValueError(
            "model has no construction config; build it with build_operator() "
            "or set model.config = {'operator': ..., 'in_channels': ..., ...}"
        )
    config = dict(config)
    if chip_name is not None:
        config["chip_name"] = str(chip_name)
    if resolution is not None:
        config["resolution"] = int(resolution)
    extra: Dict[str, np.ndarray] = {}
    if input_normalizer is not None and input_normalizer.is_fitted:
        extra["input_mean"] = input_normalizer.mean
        extra["input_std"] = input_normalizer.std
    if output_normalizer is not None and output_normalizer.is_fitted:
        extra["output_mean"] = output_normalizer.mean
        extra["output_std"] = output_normalizer.std
    model.save(path, config=config, extra=extra)


def _normalizer_from(archive, mean_key: str, std_key: str) -> Optional[Normalizer]:
    if mean_key in archive.files and std_key in archive.files:
        return Normalizer(mean=archive[mean_key], std=archive[std_key])
    return None


def load_operator(path: str, rng: Optional[np.random.Generator] = None) -> LoadedOperator:
    """Rebuild an operator model from a self-describing weights ``.npz``.

    The archive must contain the ``__config__`` entry written by
    :meth:`Module.save` for factory-built models (any model trained through
    the CLI or :func:`save_operator`).  Raises :class:`ValueError` for
    archives without it — e.g. weights written before the config embedding
    existed, which need one re-save through ``save_operator``.
    """
    with np.load(path, allow_pickle=False) as archive:
        from repro.nn.module import Module

        if Module.CONFIG_KEY not in archive.files:
            raise ValueError(
                f"'{path}' has no embedded architecture config; re-save it with "
                "save_operator() (or Module.save with an explicit config)"
            )
        config = json.loads(str(archive[Module.CONFIG_KEY]))
        model = build_operator(
            config["operator"],
            config["in_channels"],
            config["out_channels"],
            config.get("options"),
            rng or np.random.default_rng(0),
        )
        model.load_state_dict(
            {
                key: archive[key]
                for key in archive.files
                if not (key.startswith("__") and key.endswith("__"))
            }
        )
        input_normalizer = _normalizer_from(archive, "__input_mean__", "__input_std__")
        output_normalizer = _normalizer_from(archive, "__output_mean__", "__output_std__")
    return LoadedOperator(
        model=model,
        name=config["operator"],
        in_channels=config["in_channels"],
        out_channels=config["out_channels"],
        options=config.get("options", {}),
        chip_name=config.get("chip_name"),
        resolution=config.get("resolution"),
        input_normalizer=input_normalizer,
        output_normalizer=output_normalizer,
    )
