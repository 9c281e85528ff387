"""Deterministic fault injectors and the scrubbers that survive them.

Three fault models, matching the storage formats the hardware actually
uses (Sec. V):

* :func:`flip_fp16_bits` — SRAM soft errors in the fp16 feature SRAM
  (hash-table entries): the value is round-tripped through its IEEE-754
  half-precision bit pattern with ``n`` random bits flipped.
* :func:`flip_quantized_bits` — soft errors in the INT8 weight store:
  the value is quantized to its fixed-point code word
  (:func:`repro.nerf.quantization.quantize_int8_fixed` format), ``n``
  random code bits are flipped, and the code is dequantized.
* :func:`inject_trace_faults` — corrupted workload-trace entries: NaN
  poison or duration spikes in a trace's pair durations.

The matching graceful-degradation half: :func:`scrub_trace` clamps
non-finite/negative durations to zero (flagging the count) before a
corrupted trace reaches the cycle simulator, and :func:`scrub_colors`
clamps non-finite rendered pixels to the background instead of letting
NaN propagate into PSNR.

Every injector takes an explicit :class:`numpy.random.Generator` —
derive it from :meth:`repro.robustness.faults.FaultPlan.rng` with a
site-specific salt so injections are reproducible.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .faults import SramFaultConfig, TraceFaultConfig

#: Leaf parameter names stored in the fp16 feature SRAM (and hence
#: subject to fp16 flips): the ngp hash tables and the TensoRF
#: plane/line factor stores.
_FEATURE_STORE_NAMES = frozenset(
    {"hash_tables", "factor_planes", "factor_lines"}
)


def flip_fp16_bits(
    values: np.ndarray, n_flips: int, rng: np.random.Generator
) -> np.ndarray:
    """Return ``values`` with ``n_flips`` random fp16 bit flips applied.

    The array is first rounded to fp16 (the storage precision whose bits
    are flipped), so the result models exactly what a soft error in the
    feature SRAM would read back.  Flip targets (entry, bit) are drawn
    independently, so two flips can land on the same entry.
    """
    values = np.asarray(values, dtype=np.float64)
    if n_flips < 0:
        raise ValueError("n_flips must be non-negative")
    stored = values.astype(np.float16)
    if n_flips == 0 or stored.size == 0:
        return stored.astype(np.float64)
    bits = stored.reshape(-1).view(np.uint16).copy()
    entries = rng.integers(0, bits.size, size=n_flips)
    positions = rng.integers(0, 16, size=n_flips)
    for entry, position in zip(entries, positions):
        bits[entry] ^= np.uint16(1 << int(position))
    flipped = bits.view(np.float16).astype(np.float64).reshape(values.shape)
    return flipped


def flip_quantized_bits(
    values: np.ndarray,
    n_flips: int,
    rng: np.random.Generator,
    step: float = 1.0 / 16.0,
) -> np.ndarray:
    """Return ``values`` with ``n_flips`` bit flips in INT8 code space.

    Values are quantized to the fixed-point format of
    :func:`repro.nerf.quantization.quantize_int8_fixed` (two's-complement
    code words), random code bits are flipped — a bit-7 flip toggles the
    sign, the large-magnitude error real SRAM upsets produce — and the
    codes are dequantized back.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if n_flips < 0:
        raise ValueError("n_flips must be non-negative")
    values = np.asarray(values, dtype=np.float64)
    codes = np.clip(np.round(values / step), -128, 127).astype(np.int8)
    if n_flips == 0 or codes.size == 0:
        return codes.astype(np.float64) * step
    raw = codes.reshape(-1).view(np.uint8).copy()
    entries = rng.integers(0, raw.size, size=n_flips)
    positions = rng.integers(0, 8, size=n_flips)
    for entry, position in zip(entries, positions):
        raw[entry] ^= np.uint8(1 << int(position))
    return raw.view(np.int8).astype(np.float64).reshape(values.shape) * step


def inject_model_faults(
    model, config: SramFaultConfig, rng: np.random.Generator
) -> dict:
    """Flip bits in a model's weight stores, in place.

    Feature-store parameters — ``hash_tables`` for the ``ngp`` renderer,
    ``factor_planes``/``factor_lines`` for ``tensorf``, possibly
    expert-prefixed — live in the fp16 feature SRAM and take fp16 flips;
    every other parameter (MLP weights and biases) takes INT8
    fixed-point flips.  The requested flip counts are spread over the
    matching tensors proportionally to their size.
    Returns ``{"hash_table_flips": n, "mlp_flips": n}`` actually applied.
    """
    params = model.parameters()
    hash_names = [
        n for n in params if n.split(".")[-1] in _FEATURE_STORE_NAMES
    ]
    mlp_names = [
        n for n in params if n.split(".")[-1] not in _FEATURE_STORE_NAMES
    ]
    applied = {"hash_table_flips": 0, "mlp_flips": 0}
    for names, total, kind in (
        (hash_names, config.hash_table_bit_flips, "hash"),
        (mlp_names, config.mlp_bit_flips, "mlp"),
    ):
        if total == 0 or not names:
            continue
        sizes = np.array([params[n].size for n in names], dtype=np.float64)
        targets = rng.choice(len(names), size=total, p=sizes / sizes.sum())
        counts = np.bincount(targets, minlength=len(names))
        for name, count in zip(names, counts):
            if count == 0:
                continue
            tensor = params[name]
            if kind == "hash":
                # Through fp16, so a flipped-in signalling NaN widens to
                # a float32 store without an invalid-cast warning.
                flipped = flip_fp16_bits(tensor, int(count), rng)
                tensor[...] = flipped.astype(np.float16)
                applied["hash_table_flips"] += int(count)
            else:
                tensor[...] = flip_quantized_bits(
                    tensor, int(count), rng, step=config.quant_step
                )
                applied["mlp_flips"] += int(count)
    return applied


def inject_trace_faults(trace, config: TraceFaultConfig, rng: np.random.Generator):
    """Return a corrupted copy of a workload trace.

    A ``corrupt_fraction`` of the trace's pair-duration entries are
    poisoned — NaN for ``mode="nan"``, multiplied by ``spike_factor``
    for ``mode="spike"``.  The input trace is never mutated (traces are
    immutable, and scene workloads may share one).
    """
    if config.corrupt_fraction <= 0:
        return trace
    durations = trace.pair_durations.copy()
    n_entries = len(durations)
    n_corrupt = int(round(config.corrupt_fraction * n_entries))
    if n_corrupt > 0:
        targets = rng.choice(n_entries, size=n_corrupt, replace=False)
        if config.mode == "nan":
            durations[targets] = np.nan
        else:
            durations[targets] *= config.spike_factor
    return dataclasses.replace(trace, pair_durations=durations)


def scrub_trace(trace):
    """Sanitize a trace for simulation: ``(clean_trace, n_scrubbed)``.

    Non-finite or negative pair durations — the signature of injected
    (or real) SRAM corruption in the trace buffers — are clamped to zero
    and counted, and the per-ray sample counts are recomputed from the
    clamped durations.  Finite spikes are deliberately *not* clamped:
    their latency cost is the measurable degradation.  When nothing
    needs scrubbing the input trace is returned unchanged (no copy).
    """
    from ..sim.trace import per_ray_sums

    durations = trace.pair_durations
    ok = np.isfinite(durations) & (durations >= 0)
    n_scrubbed = len(ok) - int(np.count_nonzero(ok))
    if n_scrubbed == 0:
        return trace, 0
    clean = np.where(ok, durations, 0.0)
    return (
        dataclasses.replace(
            trace,
            pair_durations=clean,
            samples_per_ray=per_ray_sums(clean, trace.pairs_per_ray),
        ),
        n_scrubbed,
    )


def scrub_colors(colors: np.ndarray, background: float) -> tuple:
    """Clamp-and-flag non-finite rendered pixels: ``(colors, n_flagged)``.

    Any NaN/inf channel value is replaced by the background color so one
    corrupted sample degrades one pixel instead of poisoning the whole
    image (and every PSNR computed from it).  Returns the input array
    untouched when every value is finite.
    """
    colors = np.asarray(colors)
    bad = ~np.isfinite(colors)
    n_flagged = int(bad.sum())
    if n_flagged == 0:
        return colors, 0
    cleaned = colors.copy()
    cleaned[bad] = background
    return cleaned, n_flagged
