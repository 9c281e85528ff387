"""Model checkpointing: save/load trained radiance fields as ``.npz``.

The paper highlights NeRF's ~10 MB parameter footprint as a deployment
advantage (cheap to ship over the same USB link the accelerator lives
on); this module makes that concrete — a trained
:class:`~repro.nerf.model.InstantNGPModel` or
:class:`~repro.nerf.moe.MoENeRF` round-trips through a single archive
whose size *is* the deployment payload.

A checkpoint can also carry the *deployment state* around the weights:
the trained occupancy grid (so a cold-started scene renders its first
frame bit-identically to the training process, without re-warming the
grid from the density field) and the scene normalizer (so world-space
cameras can be served against the archive alone).  :func:`load_scene`
returns all three; :func:`load_model` keeps its historical
weights-only contract.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from .aabb import SceneNormalizer
from .hash_encoding import HashEncodingConfig
from .model import InstantNGPModel, ModelConfig
from .moe import MoEConfig, MoENeRF
from .occupancy import OccupancyGrid
from .precision import LowPrecisionField
from .tensorf import TensoRFConfig, TensoRFModel

_FORMAT_VERSION = 1

#: Array keys reserved for non-parameter state; ``load_model`` must not
#: feed these to ``load_parameters``.
_OCCUPANCY_EMA_KEY = "__occupancy_ema__"
_OCCUPANCY_MASK_KEY = "__occupancy_mask__"
_STATE_KEYS = ("__meta__", _OCCUPANCY_EMA_KEY, _OCCUPANCY_MASK_KEY)


class CheckpointError(ValueError):
    """A checkpoint archive could not be loaded.

    Raised for truncated/corrupt archives, missing metadata, unknown
    checkpoint kinds, and format-version mismatches — with a message
    naming the file and the specific problem, instead of a raw
    ``zipfile``/``KeyError`` surfacing from ``np.load`` internals.
    """


def _encoding_config_dict(config: HashEncodingConfig) -> dict:
    return {
        "n_levels": config.n_levels,
        "n_features": config.n_features,
        "log2_table_size": config.log2_table_size,
        "base_resolution": config.base_resolution,
        "finest_resolution": config.finest_resolution,
    }


def _model_config_dict(config: ModelConfig) -> dict:
    return {
        "encoding": _encoding_config_dict(config.encoding),
        "hidden_width": config.hidden_width,
        "geo_features": config.geo_features,
        "density_activation": config.density_activation,
        "density_bias": config.density_bias,
    }


def _tensorf_config_dict(config: TensoRFConfig) -> dict:
    return {
        "resolution": config.resolution,
        "n_components": config.n_components,
        "hidden_width": config.hidden_width,
        "geo_features": config.geo_features,
        "density_bias": config.density_bias,
    }


def _model_config_from_dict(data: dict) -> ModelConfig:
    return ModelConfig(
        encoding=HashEncodingConfig(**data["encoding"]),
        hidden_width=data["hidden_width"],
        geo_features=data["geo_features"],
        density_activation=data["density_activation"],
        density_bias=data["density_bias"],
    )


def save_model(model, path, occupancy: OccupancyGrid = None, normalizer: SceneNormalizer = None) -> int:
    """Write a model checkpoint; returns the payload size in bytes.

    Accepts :class:`InstantNGPModel`, :class:`TensoRFModel`, or an
    :class:`MoENeRF` of Instant-NGP experts; a :class:`LowPrecisionField`
    snapshot raises ``TypeError`` (checkpoint its float64 master
    instead), as does an MoE of any other experts.  When
    ``occupancy`` is given, the grid's EMA statistics *and* its binary
    mask are stored verbatim (the mask is not always derivable from the
    EMA — trainers force it full when it empties out), so a load renders
    the exact frames the saving process would — no re-warmup.
    ``normalizer`` adds the world-to-unit-cube map, making the archive a
    self-contained deployable scene for :func:`load_scene`.
    """
    path = Path(path)
    if isinstance(model, LowPrecisionField):
        # An InstantNGPModel by type, but a float32 rounding of
        # one: as an ngp archive it would reload as a float64 master.
        raise TypeError(f"cannot checkpoint a {type(model).__name__}")
    if isinstance(model, MoENeRF):
        # A load rebuilds n Instant-NGP experts of one configuration;
        # any other mixture (dense-grid or low-precision experts, mixed
        # configurations) would not come back as it was saved.
        configs = [
            expert.config
            for expert in model.experts
            if type(expert) is InstantNGPModel
        ]
        if len(configs) != model.n_experts or any(c != configs[0] for c in configs):
            raise TypeError(
                "cannot checkpoint an MoENeRF whose experts are not "
                "Instant-NGP models of one configuration"
            )
        meta = {
            "format": _FORMAT_VERSION,
            "kind": "moe",
            "n_experts": model.n_experts,
            "expert_model": _model_config_dict(configs[0]),
        }
    elif isinstance(model, InstantNGPModel):
        meta = {
            "format": _FORMAT_VERSION,
            "kind": "instant-ngp",
            "model": _model_config_dict(model.config),
        }
    elif isinstance(model, TensoRFModel):
        meta = {
            "format": _FORMAT_VERSION,
            "kind": "tensorf",
            "model": _tensorf_config_dict(model.config),
        }
    else:
        raise TypeError(f"cannot checkpoint a {type(model).__name__}")
    arrays = dict(model.parameters())
    if occupancy is not None:
        meta["occupancy"] = {
            "resolution": occupancy.resolution,
            "threshold": occupancy.threshold,
            "ema_decay": occupancy.ema_decay,
        }
        arrays[_OCCUPANCY_EMA_KEY] = occupancy.density_ema
        arrays[_OCCUPANCY_MASK_KEY] = occupancy.mask
    if normalizer is not None:
        meta["normalizer"] = {
            "offset": np.asarray(normalizer.offset, dtype=np.float64).tolist(),
            "scale": float(normalizer.scale),
        }
    np.savez_compressed(path, __meta__=json.dumps(meta), **arrays)
    return path.stat().st_size if path.suffix == ".npz" else Path(
        str(path) + ".npz"
    ).stat().st_size


def _read_archive(path) -> tuple:
    """Load and validate a checkpoint archive: ``(path, meta, arrays)``."""
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = Path(str(path) + ".npz")
    try:
        with np.load(path) as archive:
            try:
                meta = json.loads(str(archive["__meta__"]))
            except KeyError:
                raise CheckpointError(
                    f"{path} is not a model checkpoint: missing __meta__ entry"
                )
            version = meta.get("format")
            if version != _FORMAT_VERSION:
                hint = (
                    "written by a newer repro version"
                    if isinstance(version, int) and version > _FORMAT_VERSION
                    else "corrupt or not a model checkpoint"
                )
                raise CheckpointError(
                    f"{path}: unsupported checkpoint format {version!r} "
                    f"(this code reads format {_FORMAT_VERSION}; {hint})"
                )
            arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
    except (zipfile.BadZipFile, EOFError, OSError) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise CheckpointError(
            f"{path} is truncated or corrupt: {exc}"
        ) from exc
    return path, meta, arrays


def _build_model(path, meta: dict, params: dict):
    """Instantiate the checkpointed architecture and load its weights."""
    if meta["kind"] == "instant-ngp":
        model = InstantNGPModel(_model_config_from_dict(meta["model"]))
        model.load_parameters(params)
        return model
    if meta["kind"] == "tensorf":
        model = TensoRFModel(TensoRFConfig(**meta["model"]))
        model.load_parameters(params)
        return model
    if meta["kind"] == "moe":
        expert_config = _model_config_from_dict(meta["expert_model"])
        moe = MoENeRF(MoEConfig(n_experts=meta["n_experts"], expert_model=expert_config))
        for prefix, expert in zip(moe.prefixes(), moe.experts):
            expert.load_parameters(
                {
                    k[len(prefix):]: v
                    for k, v in params.items()
                    if k.startswith(prefix)
                }
            )
        return moe
    raise CheckpointError(f"{path}: unknown checkpoint kind {meta['kind']!r}")


def load_model(path):
    """Reconstruct the checkpointed model (architecture + weights).

    Raises :class:`CheckpointError` (a ``ValueError``) when the archive
    is truncated or corrupt, carries no metadata, or was written by a
    newer format version than this code understands.
    """
    path, meta, arrays = _read_archive(path)
    params = {k: v for k, v in arrays.items() if k not in _STATE_KEYS}
    return _build_model(path, meta, params)


def load_scene(path) -> tuple:
    """Load a deployable scene: ``(model, occupancy, normalizer)``.

    ``occupancy`` and ``normalizer`` are ``None`` when the archive was
    saved without them (a weights-only checkpoint).  When present, the
    occupancy grid is restored bit-exactly — EMA statistics *and* mask —
    so the first frame rendered after a cold start matches the frame the
    saving process would have rendered, without re-warming the grid.
    """
    path, meta, arrays = _read_archive(path)
    params = {k: v for k, v in arrays.items() if k not in _STATE_KEYS}
    model = _build_model(path, meta, params)
    occupancy = None
    if "occupancy" in meta:
        if _OCCUPANCY_EMA_KEY not in arrays or _OCCUPANCY_MASK_KEY not in arrays:
            raise CheckpointError(
                f"{path}: occupancy metadata present but grid arrays missing"
            )
        spec = meta["occupancy"]
        occupancy = OccupancyGrid(
            resolution=int(spec["resolution"]),
            threshold=float(spec["threshold"]),
            ema_decay=float(spec["ema_decay"]),
        )
        ema = np.asarray(arrays[_OCCUPANCY_EMA_KEY], dtype=np.float32)
        mask = np.asarray(arrays[_OCCUPANCY_MASK_KEY], dtype=bool)
        if ema.shape != occupancy.density_ema.shape or mask.shape != occupancy.mask.shape:
            raise CheckpointError(f"{path}: occupancy grid shape mismatch")
        occupancy.density_ema = ema
        occupancy.mask = mask
    normalizer = None
    if "normalizer" in meta:
        spec = meta["normalizer"]
        normalizer = SceneNormalizer(
            offset=np.asarray(spec["offset"], dtype=np.float64),
            scale=float(spec["scale"]),
        )
    return model, occupancy, normalizer


def deployment_payload_bytes(model) -> int:
    """Uncompressed fp16 parameter payload — what crosses the USB link."""
    return sum(p.size for p in model.parameters().values()) * 2
