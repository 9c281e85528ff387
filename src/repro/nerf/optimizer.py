"""Adam optimizer over named parameter dicts.

Instant-NGP trains with Adam; gradients arrive as a flat
``{name: array}`` dict matching :meth:`InstantNGPModel.parameters`.
"""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with per-parameter state, operating in place on a param dict."""

    def __init__(
        self,
        params: dict,
        lr: float = 1e-2,
        betas: tuple = (0.9, 0.99),
        eps: float = 1e-10,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict) -> None:
        """Apply one update; missing grads leave their parameter untouched.

        Runs in place on the moments, the parameter and two scratch
        arrays, in the operation order of the textbook expression
        ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, so every value matches
        it bit for bit.
        """
        self.step_count += 1
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        for name, grad in grads.items():
            if name not in self.params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            p = self.params[name]
            if grad.shape != p.shape:
                raise ValueError(f"gradient shape mismatch for {name!r}")
            if self.weight_decay:
                grad = grad + self.weight_decay * p
            m = self._m[name]
            v = self._v[name]
            scratch = np.empty_like(p)
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=scratch)
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=scratch)
            v += np.multiply(scratch, grad, out=scratch)
            # scratch <- lr * m_hat; denom <- sqrt(v_hat) + eps.
            np.divide(m, bias1, out=scratch)
            scratch *= self.lr
            denom = np.divide(v, bias2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            scratch /= denom
            p -= scratch

    def set_lr(self, lr: float) -> None:
        """Set the learning rate; it must be positive."""
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple:
    """Mean-squared error and its gradient w.r.t. ``pred``."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("pred and target must have the same shape")
    diff = pred - target
    loss = float(np.mean(diff**2))
    grad = 2.0 * diff / diff.size
    return loss, grad
