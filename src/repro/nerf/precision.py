"""Float32 snapshots of the radiance field.

The paper trains on wide masters over the same narrow datapath it
renders on (Challenge C2): hash-table features in fp16 and MLP weights
in INT8 at inference, accumulated in wider formats.  That is a storage
format, not a second way to compute a field, so this module models it
as one:

* :class:`LowPrecisionField` — an :class:`~repro.nerf.model.InstantNGPModel`
  whose stored values are cast once, when it is built, to float32 (mode
  ``"full"``, the datapath every ``ngp`` renderer evaluates and every
  training step runs its forward and backward on) or rounded to what
  the chip's SRAM holds: tables through fp16, MLP weights through INT8
  codes with per-layer symmetric scales (mode ``"fp16-int8"``) or not
  at all (mode ``"fp16"``).  Everything is held, and computed, in
  float32 (the accumulator width), through the inherited forward and
  backward: there is one field forward for every precision.
* :func:`takes_float32_snapshot` — the one rule for which fields are
  evaluated through a float32 snapshot.
* :class:`PrecisionGate` — the PSNR-delta budget that decides whether a
  low-precision configuration is allowed to replace the full-precision
  path for a scene.

The float64 master is what the optimizer updates, what checkpoints
save and what ``gradcheck`` differentiates.  A snapshot copies it, so
it stays stale while the master trains; take a new snapshot after a
training burst, exactly like re-flashing an accelerator's weight SRAM.
The trainer re-casts its own snapshot from the master every step.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .model import InstantNGPModel
from .volume_rendering import psnr

#: Low-precision modes a snapshot can run in, cheapest last.
PRECISION_MODES = ("fp16", "fp16-int8")

#: The pipeline's name for the unrounded path: a float32 snapshot of
#: the float64 master (the master itself for fields with no snapshot).
FULL_PRECISION = "full"

#: Largest finite float32; a finite master value beyond it cannot be
#: snapshotted.
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def takes_float32_snapshot(field) -> bool:
    """Whether ``field`` is evaluated through a float32 snapshot.

    True for a plain :class:`~repro.nerf.model.InstantNGPModel`, the
    float64 master of a hash-encoded field.  Fields with no hash
    encoding (TensoRF, dense grids) and subclasses, existing snapshots
    included, are evaluated as they are.  Both ``ngp`` renderer
    assembly and :class:`~repro.nerf.trainer.Trainer` apply this rule.
    """
    return type(field) is InstantNGPModel


def quantize_int8_layer(weight: np.ndarray) -> tuple:
    """Symmetric INT8 code words of one float32 weight matrix.

    Returns ``(codes, scale)`` with ``scale = max|W| / 127`` (the
    per-tensor rule of :func:`repro.nerf.quantization.quantize_int8`,
    applied per layer), so ``codes * scale`` is within ``scale / 2`` of
    ``weight``.  An all-zero layer (or one whose scale underflows) gets
    all-zero codes and scale 1.
    """
    scale = float(np.abs(weight).max()) / 127.0
    if scale == 0.0:
        return np.zeros(weight.shape, dtype=np.int8), 1.0
    codes = np.clip(np.round(weight / scale), -127, 127).astype(np.int8)
    return codes, scale


class LowPrecisionField(InstantNGPModel):
    """Float32 snapshot of an ``InstantNGPModel``.

    ``mode="full"`` casts every value to float32 and rounds nothing
    more; ``mode="fp16"`` also rounds the hash tables through fp16;
    ``mode="fp16-int8"`` also quantizes every MLP weight matrix to INT8
    with a per-layer scale (:func:`quantize_int8_layer`), dequantized
    once.  Every stored value is held as float32 (fp16 widens to it
    exactly), biases included.  ``forward``/``density`` run the
    inherited model on float32 inputs, and ``backward`` the inherited
    backward in float32, so a training step can run on a snapshot and
    hand its gradients to the master.  Fault injection flips bits in
    the arrays that ``forward`` reads.

    A finite master value beyond float32 range raises ``ValueError``
    naming its parameter; NaN and inf cast as they are, so a poisoned
    master still snapshots (and renders its poison).
    """

    def __init__(self, source, mode: str = "fp16-int8"):
        if mode not in (FULL_PRECISION,) + PRECISION_MODES:
            raise ValueError(
                f"mode must be {FULL_PRECISION!r} or one of "
                f"{PRECISION_MODES}, got {mode!r}"
            )
        if not isinstance(source, InstantNGPModel):
            raise TypeError(
                f"cannot snapshot a {type(source).__name__}: float32 "
                "snapshots hold the feature SRAM of a hash-encoded "
                "InstantNGPModel"
            )
        for name, value in source.parameters().items():
            out_of_range = np.isfinite(value) & (np.abs(value) > _FLOAT32_MAX)
            if out_of_range.any():
                raise ValueError(
                    f"cannot snapshot parameter {name!r}: "
                    f"{int(out_of_range.sum())} finite value(s) beyond "
                    f"float32 range (|x| > {_FLOAT32_MAX:.6g})"
                )
        # The source's stages, re-pointed at the stored values (no
        # random initialization of values that are overwritten anyway).
        self.config = source.config
        self.mode = mode
        self.encoding = copy.copy(source.encoding)
        tables = source.encoding.tables
        if mode != FULL_PRECISION:
            tables = tables.astype(np.float16)
        # Feature-major store: a C-contiguous (F, L*T) array seen through
        # its (L, T, F) view, so the Stage II gather reads one feature's
        # column without copying the table on every call.
        n_levels, table_size, n_features = tables.shape
        store = np.empty((n_features, n_levels * table_size), dtype=np.float32)
        store[...] = tables.reshape(-1, n_features).T
        self.encoding.tables = store.T.reshape(tables.shape)
        self.density_mlp = copy.copy(source.density_mlp)
        self.color_mlp = copy.copy(source.color_mlp)
        for mlp in (self.density_mlp, self.color_mlp):
            mlp.weights = [self._stored_weight(w) for w in mlp.weights]
            mlp.biases = [b.astype(np.float32) for b in mlp.biases]

    def _stored_weight(self, weight: np.ndarray) -> np.ndarray:
        """One weight matrix as the weight SRAM returns it, in float32."""
        weight = weight.astype(np.float32)
        if self.mode != "fp16-int8":
            return weight
        codes, scale = quantize_int8_layer(weight)
        return codes.astype(np.float32) * np.float32(scale)

    @property
    def precision(self) -> str:
        """The pipeline precision tag this field implements."""
        return self.mode

    def forward(self, positions: np.ndarray, directions: np.ndarray) -> tuple:
        """Per-sample float32 ``(sigma, rgb, cache)`` of float32 inputs."""
        return super().forward(
            np.asarray(positions, dtype=np.float32),
            np.asarray(directions, dtype=np.float32),
        )

    def density(self, positions: np.ndarray) -> np.ndarray:
        """Float32 density only (occupancy refreshes on the snapshot)."""
        return super().density(np.asarray(positions, dtype=np.float32))

    @property
    def storage_bytes(self) -> int:
        """Bytes the snapshot's parameter store occupies.

        2 B per fp16 table entry (4 B in mode ``"full"``), 1 B (mode
        ``"fp16-int8"``) or 4 B per MLP weight, and 4 B per float32 bias.
        """
        weight_bytes = 1 if self.mode == "fp16-int8" else 4
        table_bytes = 4 if self.mode == FULL_PRECISION else 2
        total = table_bytes * self.encoding.tables.size
        for mlp in (self.density_mlp, self.color_mlp):
            total += weight_bytes * sum(w.size for w in mlp.weights)
            total += 4 * sum(b.size for b in mlp.biases)
        return total


@dataclass(frozen=True)
class PrecisionGate:
    """PSNR-delta budget for admitting a low-precision configuration.

    A mode passes when its render agrees with the full-precision render
    to at least ``min_agreement_db`` PSNR *and* — when a ground-truth
    image is supplied — its quality drop against ground truth stays
    within ``max_delta_db``.  The two checks catch different failures:
    agreement catches numerical blow-ups even on scenes the model fits
    poorly; the delta keeps a mode from hiding quality loss behind an
    already-low baseline PSNR.
    """

    max_delta_db: float = 1.0
    min_agreement_db: float = 30.0

    def __post_init__(self):
        if self.max_delta_db < 0.0:
            raise ValueError("max_delta_db must be non-negative")
        if self.min_agreement_db <= 0.0:
            raise ValueError("min_agreement_db must be positive")

    def evaluate(
        self,
        full_image: np.ndarray,
        lowp_image: np.ndarray,
        ground_truth: np.ndarray = None,
    ) -> "PrecisionReport":
        """Measure one mode against the budget; never raises."""
        agreement_db = psnr(lowp_image, full_image)
        delta_db = 0.0
        if ground_truth is not None:
            delta_db = psnr(full_image, ground_truth) - psnr(
                lowp_image, ground_truth
            )
        passed = agreement_db >= self.min_agreement_db and (
            delta_db <= self.max_delta_db
        )
        return PrecisionReport(
            agreement_db=float(agreement_db),
            psnr_delta_db=float(delta_db),
            passed=bool(passed),
        )

@dataclass(frozen=True)
class PrecisionReport:
    """Outcome of one :class:`PrecisionGate` measurement."""

    agreement_db: float
    psnr_delta_db: float
    passed: bool
