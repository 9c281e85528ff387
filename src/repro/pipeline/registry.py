"""Renderer registry: construct renderers by name + config dict.

The registry is the single place the rest of the repo resolves a
renderer *name* — ``"ngp"`` (hash encoding + MLP field + occupancy
sampler + ERT-aware compositor) or ``"tensorf"`` (VM plane/line factor
encoding) out of the box — to an assembled
:class:`~repro.pipeline.renderer.Renderer`.  Serving tags deployed
scenes with these names (:meth:`repro.serve.registry.SceneRegistry.deploy`),
the admission EWMA and perf baselines key on them, and fault injection /
cost models classify by them, so registering a factory here is how a new
renderer becomes visible to every downstream layer (see
``docs/renderers.md``).
"""

from __future__ import annotations

from ..nerf.checkpoint import load_scene
from ..nerf.hash_encoding import HashEncodingConfig
from ..nerf.model import InstantNGPModel, ModelConfig
from ..nerf.moe import MoENeRF
from ..nerf.occupancy import OccupancyGrid
from ..nerf.precision import (
    FULL_PRECISION,
    LowPrecisionField,
    takes_float32_snapshot,
)
from ..nerf.sampling import RayMarcher, SamplerConfig
from ..nerf.tensorf import DenseGridField, TensoRFConfig, TensoRFModel
from .renderer import Renderer
from .stages import OccupancySampler, VolumeCompositor


class UnknownRendererError(KeyError):
    """The named renderer has no registered factory."""


def _split_common(config: dict) -> tuple:
    """Pop the stage-assembly keys shared by every factory.

    Returns ``(model_config, max_samples, background, ert_threshold,
    precision, switch_threshold)``; what remains in ``model_config`` is
    the field's own hyper-parameter dict.  ``precision`` is ``"full"``
    (the default), ``"fp16"``, or ``"fp16-int8"``;
    ``switch_threshold`` enables transmittance-adaptive precision on top
    of a non-full mode.
    """
    cfg = dict(config or {})
    max_samples = cfg.pop("max_samples", 64)
    background = cfg.pop("background", 1.0)
    ert_threshold = cfg.pop("ert_threshold", None)
    precision = cfg.pop("precision", FULL_PRECISION) or FULL_PRECISION
    switch_threshold = cfg.pop("switch_threshold", None)
    return cfg, max_samples, background, ert_threshold, precision, switch_threshold


def _assemble(
    name,
    model,
    max_samples,
    background,
    ert_threshold,
    precision=FULL_PRECISION,
    switch_threshold=None,
    marcher: RayMarcher = None,
    occupancy: OccupancyGrid = None,
) -> Renderer:
    """Standard stage assembly shared by the stock factories and wrapping.

    Every ``ngp`` renderer evaluates a float32 inference snapshot (a
    :class:`~repro.nerf.precision.LowPrecisionField`) of its model: a
    non-full ``precision`` rounds it to that mode, and ``"full"``
    snapshots a plain :class:`~repro.nerf.model.InstantNGPModel` into
    float32 unrounded.  The model itself stays the renderer's field,
    trainable and float64.  Fields that
    :func:`~repro.nerf.precision.takes_float32_snapshot` rejects (TensoRF,
    dense grids, existing snapshots) are evaluated as they are at
    ``"full"``.
    """
    lowp = None
    if precision != FULL_PRECISION or takes_float32_snapshot(model):
        lowp = LowPrecisionField(model, mode=precision)
    return Renderer(
        name,
        model,
        sampler=OccupancySampler(
            marcher or RayMarcher(SamplerConfig(max_samples=max_samples)),
            occupancy,
        ),
        compositor=VolumeCompositor(
            ert_threshold, lowp_field=lowp, switch_threshold=switch_threshold
        ),
        background=background,
    )


def _build_ngp(config: dict, seed: int) -> Renderer:
    """Factory for the reference Instant-NGP renderer.

    Config keys: ``encoding`` (a
    :class:`~repro.nerf.hash_encoding.HashEncodingConfig` kwargs dict),
    any :class:`~repro.nerf.model.ModelConfig` field, plus the shared
    ``max_samples`` / ``background`` / ``ert_threshold`` /
    ``precision`` / ``switch_threshold``.
    """
    cfg, max_samples, background, ert, precision, switch = _split_common(config)
    encoding = cfg.pop("encoding", None)
    model_config = ModelConfig(
        encoding=(
            HashEncodingConfig(**encoding)
            if encoding is not None
            else HashEncodingConfig()
        ),
        **cfg,
    )
    model = InstantNGPModel(model_config, seed=seed)
    return _assemble("ngp", model, max_samples, background, ert, precision, switch)


def _build_tensorf(config: dict, seed: int) -> Renderer:
    """Factory for the TensoRF VM-decomposition renderer.

    Config keys: any :class:`~repro.nerf.tensorf.TensoRFConfig` field,
    plus the shared ``max_samples`` / ``background`` /
    ``ert_threshold`` / ``precision`` / ``switch_threshold`` (though
    non-full precision rejects VM fields — snapshots need a hash
    encoding).
    """
    cfg, max_samples, background, ert, precision, switch = _split_common(config)
    model = TensoRFModel(TensoRFConfig(**cfg), seed=seed)
    return _assemble("tensorf", model, max_samples, background, ert, precision, switch)


class RendererRegistry:
    """Name -> factory registry for renderer construction.

    Factories are callables ``factory(config: dict, seed: int) ->
    Renderer``.  A fresh registry starts empty; the module-level
    :data:`DEFAULT_REGISTRY` ships with the stock ``ngp`` and
    ``tensorf`` factories registered.
    """

    def __init__(self):
        self._factories = {}

    def register(self, name: str, factory) -> None:
        """Register (or replace) the factory for ``name``."""
        if not name:
            raise ValueError("renderer name must be non-empty")
        self._factories[name] = factory

    def available(self) -> list:
        """Registered renderer names, sorted."""
        return sorted(self._factories)

    def create(self, name: str, config: dict = None, seed: int = 0) -> Renderer:
        """Build the named renderer from its config dict."""
        factory = self._factories.get(name)
        if factory is None:
            raise UnknownRendererError(
                f"unknown renderer {name!r} (available: {self.available()})"
            )
        return factory(config, seed)


#: The process-wide registry the serving/perf/experiment layers consult.
DEFAULT_REGISTRY = RendererRegistry()
DEFAULT_REGISTRY.register("ngp", _build_ngp)
DEFAULT_REGISTRY.register("tensorf", _build_tensorf)

#: Model type -> renderer name, most specific first (``DenseGridField``
#: is the dense TensoRF baseline).
_MODEL_RENDERERS = (
    (TensoRFModel, "tensorf"),
    (DenseGridField, "tensorf"),
    (InstantNGPModel, "ngp"),
)


def create(name: str, config: dict = None, seed: int = 0) -> Renderer:
    """Build a renderer from the default registry."""
    return DEFAULT_REGISTRY.create(name, config=config, seed=seed)


def available() -> list:
    """Renderer names registered in the default registry."""
    return DEFAULT_REGISTRY.available()


def renderer_name_for(model) -> str:
    """The renderer family an existing model instance belongs to.

    Used wherever a bare model crosses a renderer-tagged boundary (scene
    deployment, checkpoint loads): ``InstantNGPModel`` (a
    :class:`~repro.nerf.precision.LowPrecisionField` snapshot included)
    maps to ``"ngp"``, ``TensoRFModel`` /
    ``DenseGridField`` to ``"tensorf"``, and anything unrecognized falls
    back to its lowered type name so tags stay stable rather than raising.
    """
    for model_type, name in _MODEL_RENDERERS:
        if isinstance(model, model_type):
            return name
    return type(model).__name__.lower()


def wrap_model(
    model,
    name: str = None,
    marcher: RayMarcher = None,
    occupancy: OccupancyGrid = None,
    background: float = 1.0,
    ert_threshold: float = None,
    precision: str = FULL_PRECISION,
    switch_threshold: float = None,
) -> Renderer:
    """Lift an existing model into a staged :class:`Renderer`.

    The inverse of "construct by name": takes a trained (or in-training)
    field plus its serving state and assembles the standard stage stack
    around it.  ``name`` defaults to :func:`renderer_name_for`.  An
    ``InstantNGPModel`` is snapshotted into a float32
    :class:`~repro.nerf.precision.LowPrecisionField` (rounded to a
    non-full ``precision``) and composited through it (adaptively, when
    ``switch_threshold`` is set); the model itself stays the renderer's
    trainable field.  Each call takes a new snapshot, so wrap again
    after training the model.

    A :class:`~repro.nerf.moe.MoENeRF` is not a field (it has no
    ``forward``) and raises ``TypeError``: its fused frame is the adder
    over one renderer per expert, see
    :meth:`repro.nerf.trainer.Trainer.render_image`.
    """
    if isinstance(model, MoENeRF):
        raise TypeError(
            "an MoENeRF is not a field: wrap each of model.experts and fuse "
            "their renders (Trainer.renderers / Trainer.render_image)"
        )
    return _assemble(
        name or renderer_name_for(model),
        model,
        SamplerConfig().max_samples,
        background,
        ert_threshold,
        precision or FULL_PRECISION,
        switch_threshold,
        marcher=marcher,
        occupancy=occupancy,
    )


def load_renderer(path, background: float = 1.0) -> tuple:
    """Load a checkpoint as a renderer: ``(renderer, normalizer)``.

    Restores the field, occupancy grid, and normalizer via
    :func:`repro.nerf.checkpoint.load_scene` and wraps them with the
    renderer name inferred from the field type; ``normalizer`` is
    ``None`` for weights-only archives.
    """
    model, occupancy, normalizer = load_scene(path)
    renderer = wrap_model(
        model, occupancy=occupancy, background=background
    )
    return renderer, normalizer
