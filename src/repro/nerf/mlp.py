"""Small fully-connected networks with hand-written gradients.

Stage III of the pipeline evaluates two tiny MLPs per sample: a density
network on the hash features and a color network on the density net's
latent output concatenated with a spherical-harmonics direction encoding.
NumPy forward/backward keeps the whole library dependency-light and makes
every gradient testable against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ACTIVATIONS = ("none", "relu", "sigmoid", "softplus", "exp")


def spherical_harmonics(directions: np.ndarray) -> np.ndarray:
    """Real SH basis up to degree 2 (9 coefficients) of unit directions."""
    d = np.atleast_2d(directions)
    x, y, z = d[:, 0], d[:, 1], d[:, 2]
    return np.stack(
        [
            np.full_like(x, 0.28209479177387814),
            0.4886025119029199 * y,
            0.4886025119029199 * z,
            0.4886025119029199 * x,
            1.0925484305920792 * x * y,
            1.0925484305920792 * y * z,
            0.31539156525252005 * (3.0 * z * z - 1.0),
            1.0925484305920792 * x * z,
            0.5462742152960396 * (x * x - y * y),
        ],
        axis=-1,
    )


#: Output width of :func:`spherical_harmonics`.
SH_DIM = 9


def _activate(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "none":
        return x
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))
    if kind == "softplus":
        return np.logaddexp(0.0, x)
    if kind == "exp":
        return np.exp(np.clip(x, -15.0, 15.0))
    raise ValueError(f"unknown activation {kind!r}")


def _layer(x: np.ndarray, w: np.ndarray, b: np.ndarray, kind: str) -> tuple:
    """One layer, ``act(x @ w + b)``: returns ``(pre_activation, output)``.

    The bias add and a ReLU run in place on the matmul's output, so a
    ReLU layer allocates one array and its ``pre_activation`` *is* its
    output (backward reads the ReLU mask from the output).  The
    arithmetic is that of the out-of-place expression.
    """
    pre = x @ w
    pre += b
    if kind == "relu":
        return pre, np.maximum(pre, 0.0, out=pre)
    return pre, _activate(pre, kind)


def _activate_grad(x: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    """d(activation)/dx given pre-activation x and post-activation y.

    ReLU reads its mask from ``y``, since :func:`_layer` overwrites the
    pre-activation: ``y > 0`` exactly where ``x > 0`` (NaN in both reads
    as not positive).
    """
    if kind == "none":
        return np.ones_like(x)
    if kind == "relu":
        return (y > 0.0).astype(y.dtype)
    if kind == "sigmoid":
        return y * (1.0 - y)
    if kind == "softplus":
        return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))
    if kind == "exp":
        return y * (np.abs(x) < 15.0)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class LayerCache:
    """Per-layer values saved by forward for backward."""

    inputs: np.ndarray
    #: The same array as ``output`` on ReLU layers (applied in place).
    pre_activation: np.ndarray
    output: np.ndarray


class MLP:
    """A plain MLP: ``widths[0] -> widths[1] -> ... -> widths[-1]``.

    Activations has one entry per weight layer; the last entry is the
    output activation.
    """

    def __init__(
        self,
        widths: list,
        activations: list = None,
        name: str = "mlp",
        rng: np.random.Generator = None,
    ):
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        n_layers = len(widths) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["none"]
        if len(activations) != n_layers:
            raise ValueError("one activation per weight layer required")
        for act in activations:
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.widths = list(widths)
        self.activations = list(activations)
        self.name = name
        rng = rng or np.random.default_rng(0)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            # He initialization suits the ReLU hidden layers.
            std = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out, dtype=np.float64))

    @property
    def n_layers(self) -> int:
        """Number of weight layers."""
        return len(self.weights)

    @property
    def n_parameters(self) -> int:
        """Total weights and biases."""
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def macs_per_sample(self) -> int:
        """Multiply-accumulates per input row (the simulator's cost unit)."""
        return sum(w.size for w in self.weights)

    def forward(self, x: np.ndarray) -> tuple:
        """Returns ``(output, caches)``; pass caches to :meth:`backward`."""
        x = np.atleast_2d(x)
        if x.shape[1] != self.widths[0]:
            raise ValueError(
                f"{self.name}: expected input width {self.widths[0]}, got {x.shape[1]}"
            )
        caches = []
        out = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            pre, post = _layer(out, w, b, act)
            caches.append(LayerCache(inputs=out, pre_activation=pre, output=post))
            out = post
        return out, caches

    def backward(self, grad_out: np.ndarray, caches: list) -> tuple:
        """Backprop; returns ``(grad_input, param_grads)``.

        ``param_grads`` maps ``"w0"/"b0"...`` to arrays shaped like the
        corresponding parameters.  ``grad_out`` should have the dtype the
        forward ran in.  A ``"none"`` layer passes ``grad`` through
        unmultiplied, and once ``grad`` is an array this call allocated,
        a ReLU mask multiplies it in place: the values are those of
        ``grad * _activate_grad(...)`` (NaN and inf rows included).

        Backward consumes ``caches``: each layer's entry is set to
        ``None`` and dropped once its parameter gradients are computed,
        before the input gradient is allocated, so a layer's saved
        arrays are freed while the layers below it still run.  A second
        backward on the same caches raises ``ValueError``; run forward
        again to get fresh ones.
        """
        if any(cache is None for cache in caches):
            raise ValueError(
                f"{self.name}: backward needs the caches of a fresh forward "
                "(backward consumes them)"
            )
        grad = np.atleast_2d(grad_out)
        owned = False
        param_grads = {}
        for layer in reversed(range(self.n_layers)):
            cache = caches[layer]
            caches[layer] = None
            act = self.activations[layer]
            if act == "relu" and owned:
                np.multiply(grad, cache.output > 0.0, out=grad)
            elif act != "none":
                grad = grad * _activate_grad(cache.pre_activation, cache.output, act)
                owned = True
            param_grads[f"w{layer}"] = cache.inputs.T @ grad
            param_grads[f"b{layer}"] = grad.sum(axis=0)
            # The input gradient reads only ``grad`` and the weights.
            del cache
            grad = grad @ self.weights[layer].T
            owned = True
        return grad, param_grads

    def parameters(self) -> dict:
        """Weights and biases keyed ``"<name>.w<i>"`` / ``"<name>.b<i>"``."""
        params = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params[f"{self.name}.w{i}"] = w
            params[f"{self.name}.b{i}"] = b
        return params

    def load_parameters(self, params: dict) -> None:
        """Adopt arrays keyed as :meth:`parameters` names them; each
        shape must match."""
        for i in range(self.n_layers):
            w = params[f"{self.name}.w{i}"]
            b = params[f"{self.name}.b{i}"]
            if w.shape != self.weights[i].shape or b.shape != self.biases[i].shape:
                raise ValueError(f"{self.name}: parameter shape mismatch at layer {i}")
            self.weights[i] = w
            self.biases[i] = b

