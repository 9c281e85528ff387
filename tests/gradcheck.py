"""Finite-difference gradient checker for the test suite.

Everything in :mod:`repro.nerf` backpropagates by hand; this checker
compares a field's ``backward`` against central differences of its
``forward``, so a new encoding or head can be validated the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference sweep.

    A check fails when ``|analytic - numeric| > atol + rtol * scale``
    with ``scale = max(|analytic|, |numeric|)`` — the usual allclose
    criterion, robust across gradient magnitudes.
    """

    checked: int
    failures: int
    max_abs_error: float
    max_rel_error: float
    worst_parameter: str

    @property
    def passed(self) -> bool:
        return self.failures == 0


def check_model_gradients(
    model,
    n_points: int = 6,
    entries_per_parameter: int = 2,
    eps: float = 1e-6,
    atol: float = 1e-6,
    rtol: float = 1e-3,
    seed: int = 0,
) -> GradCheckReport:
    """Finite-difference check of a radiance-field model's backward pass.

    Works with any object exposing the
    :class:`~repro.nerf.model.InstantNGPModel` contract:
    ``forward(positions, directions) -> (sigma, rgb, cache)``,
    ``backward(grad_sigma, grad_rgb, cache) -> {name: grad}``, and
    ``parameters() -> {name: array}``.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.05, 0.95, (n_points, 3))
    dirs = rng.normal(size=(n_points, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    sigma, rgb, cache = model.forward(points, dirs)
    g_sigma = rng.normal(size=sigma.shape)
    g_rgb = rng.normal(size=rgb.shape)
    grads = model.backward(g_sigma, g_rgb, cache)

    def loss() -> float:
        s, c, _ = model.forward(points, dirs)
        return float((s * g_sigma).sum() + (c * g_rgb).sum())

    params = model.parameters()
    checked = 0
    failures = 0
    max_abs = 0.0
    max_rel = 0.0
    worst = ""
    for name, grad in grads.items():
        p = params[name]
        flat_grad = np.asarray(grad).reshape(-1)
        flat_p = p.reshape(-1)
        # Prefer entries with non-trivial analytic gradient; fall back to
        # arbitrary ones for all-zero gradients (still a valid check).
        order = np.argsort(-np.abs(flat_grad))
        picks = order[:entries_per_parameter]
        for idx in picks:
            original = flat_p[idx]
            flat_p[idx] = original + eps
            up = loss()
            flat_p[idx] = original - eps
            down = loss()
            flat_p[idx] = original
            numeric = (up - down) / (2 * eps)
            analytic = flat_grad[idx]
            abs_err = abs(analytic - numeric)
            scale = max(abs(numeric), abs(analytic))
            rel_err = abs_err / max(scale, 1e-8)
            checked += 1
            if abs_err > atol + rtol * scale:
                failures += 1
                worst = name
            max_abs = max(max_abs, abs_err)
            if abs_err > 1e-7:
                max_rel = max(max_rel, rel_err)
    return GradCheckReport(
        checked=checked,
        failures=failures,
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        worst_parameter=worst,
    )
