"""The MLP heads with hand-written backprop."""

import numpy as np
import pytest

from repro.nerf.mlp import MLP, SH_DIM, spherical_harmonics


@pytest.fixture
def net():
    return MLP([4, 8, 3], activations=["relu", "sigmoid"], rng=np.random.default_rng(0))


def test_forward_shapes(net):
    x = np.random.default_rng(1).normal(size=(5, 4))
    out, caches = net.forward(x)
    assert out.shape == (5, 3)
    assert len(caches) == 2


def test_forward_rejects_wrong_width(net):
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, 5)))


def test_sigmoid_output_bounded(net):
    x = np.random.default_rng(2).normal(size=(10, 4)) * 50
    out, _ = net.forward(x)
    assert np.all((out > 0) & (out < 1))


def test_relu_zeroes_negatives():
    net = MLP([2, 2], activations=["relu"], rng=np.random.default_rng(0))
    net.weights[0] = np.eye(2)
    net.biases[0] = np.zeros(2)
    out, _ = net.forward(np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])


def test_parameter_count(net):
    assert net.n_parameters == (4 * 8 + 8) + (8 * 3 + 3)
    assert net.macs_per_sample() == 4 * 8 + 8 * 3


@pytest.mark.parametrize("activations", [
    ["relu", "none"],
    ["relu", "sigmoid"],
    ["softplus", "none"],
    ["none", "exp"],
])
def test_gradients_match_finite_difference(activations):
    rng = np.random.default_rng(3)
    net = MLP([3, 5, 2], activations=activations, rng=rng)
    x = rng.normal(size=(4, 3))
    out, caches = net.forward(x)
    grad_out = rng.normal(size=out.shape)
    grad_in, grads = net.backward(grad_out, caches)
    eps = 1e-6
    # Weight gradient check (one entry per layer).
    for layer in range(net.n_layers):
        w = net.weights[layer]
        i, j = 1 % w.shape[0], 0
        original = w[i, j]
        w[i, j] = original + eps
        up, _ = net.forward(x)
        w[i, j] = original - eps
        down, _ = net.forward(x)
        w[i, j] = original
        numeric = ((up - down) * grad_out).sum() / (2 * eps)
        assert np.isclose(grads[f"w{layer}"][i, j], numeric, atol=1e-5)
    # Input gradient check.
    x2 = x.copy()
    x2[0, 0] += eps
    up, _ = net.forward(x2)
    x2[0, 0] -= 2 * eps
    down, _ = net.forward(x2)
    numeric = ((up - down) * grad_out).sum() / (2 * eps)
    assert np.isclose(grad_in[0, 0], numeric, atol=1e-5)


def test_bias_gradient_is_column_sum():
    rng = np.random.default_rng(4)
    net = MLP([2, 3], activations=["none"], rng=rng)
    x = rng.normal(size=(6, 2))
    out, caches = net.forward(x)
    grad_out = rng.normal(size=out.shape)
    _, grads = net.backward(grad_out, caches)
    assert np.allclose(grads["b0"], grad_out.sum(axis=0))


def test_backward_consumes_its_caches(net):
    x = np.random.default_rng(5).normal(size=(6, 4))
    out, caches = net.forward(x)
    net.backward(np.ones_like(out), caches)
    assert caches == [None, None]
    with pytest.raises(ValueError, match="consumes"):
        net.backward(np.ones_like(out), caches)


def test_construction_validation():
    with pytest.raises(ValueError):
        MLP([4])
    with pytest.raises(ValueError):
        MLP([4, 2], activations=["relu", "none"])
    with pytest.raises(ValueError):
        MLP([4, 2], activations=["swish"])


def test_parameters_namespaced():
    net = MLP([2, 2], name="color", rng=np.random.default_rng(0))
    assert set(net.parameters()) == {"color.w0", "color.b0"}


def test_load_parameters_shape_check(net):
    params = net.parameters()
    params["mlp.w0"] = np.zeros((4, 9))
    with pytest.raises(ValueError):
        net.load_parameters(params)


def test_spherical_harmonics_shape_and_dc():
    d = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    sh = spherical_harmonics(d)
    assert sh.shape == (2, SH_DIM)
    assert np.allclose(sh[:, 0], 0.28209479177387814)


def test_spherical_harmonics_distinguish_directions():
    a = spherical_harmonics(np.array([[0.0, 0.0, 1.0]]))
    b = spherical_harmonics(np.array([[0.0, 0.0, -1.0]]))
    assert not np.allclose(a, b)


def test_spherical_harmonics_rotational_symmetry():
    """The degree-0 band is rotation invariant; the norm of each band is
    too for unit vectors."""
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(32, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    sh = spherical_harmonics(dirs)
    band1 = np.linalg.norm(sh[:, 1:4], axis=1)
    assert np.allclose(band1, band1[0], atol=1e-9)


# Out-of-place oracle of one layer, ``act(x @ w + b)``, and its gradient
# from the pristine pre-activation.
_ACT = {
    "none": lambda x: x,
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0))),
    "softplus": lambda x: np.logaddexp(0.0, x),
    "exp": lambda x: np.exp(np.clip(x, -15.0, 15.0)),
}
_DACT = {
    "none": lambda x, y: np.ones_like(x),
    "relu": lambda x, y: (x > 0.0).astype(x.dtype),
    "sigmoid": lambda x, y: y * (1.0 - y),
    "softplus": lambda x, y: 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0))),
    "exp": lambda x, y: y * (np.abs(x) < 15.0),
}


def _oracle(weights, biases, activations, x, grad_out):
    inputs, pres, outs, grads = [], [], [], {}
    for w, b, act in zip(weights, biases, activations):
        inputs.append(x), pres.append(x @ w + b), outs.append(_ACT[act](pres[-1]))
        x = outs[-1]
    for i in reversed(range(len(weights))):
        grad_out = grad_out * _DACT[activations[i]](pres[i], outs[i])
        grads[f"w{i}"], grads[f"b{i}"] = inputs[i].T @ grad_out, grad_out.sum(axis=0)
        grad_out = grad_out @ weights[i].T
    return x, grad_out, grads


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 4096])
@pytest.mark.parametrize("act", ["relu", "sigmoid", "softplus", "exp", "none"])
def test_in_place_layer_step_matches_out_of_place_oracle(act, n):
    """MLP.forward/backward in float64 and forward in float32, bit for bit."""
    rng = np.random.default_rng(n)
    net = MLP([4, 6, 5], activations=[act, act], rng=rng)
    # Integer-valued first layer and rows: many pre-activations are
    # exactly 0, and pre[0, 0] is 0 by construction.
    x = rng.normal(size=(n, 4)) * 4.0
    x[: max(1, n // 2)] = rng.integers(-2, 3, size=(max(1, n // 2), 4))
    net.weights[0] = rng.integers(-2, 3, size=(4, 6)).astype(np.float64)
    net.biases[0] = rng.integers(-2, 3, size=6).astype(np.float64)
    net.biases[0][0] = -(x[0] @ net.weights[0][:, 0])
    if n > 1:
        x[-1, 1] = np.nan
    grad_out = rng.normal(size=(n, 5))
    # softplus warns on the NaN row; both sides must still agree on it.
    with np.errstate(invalid="ignore"):
        out, caches = net.forward(x)
        grad_in, grads = net.backward(grad_out, caches)
        want_out, want_in, want_grads = _oracle(
            net.weights, net.biases, net.activations, x, grad_out
        )
    assert (x[:1] @ net.weights[0] + net.biases[0])[0, 0] == 0.0
    assert _same_bits(out, want_out)
    assert _same_bits(grad_in, want_in)
    assert grads.keys() == want_grads.keys()
    for key, grad in grads.items():
        assert _same_bits(grad, want_grads[key]), key
    # Float32 parameters and inputs (a low-precision snapshot's MLP) run
    # the same layer step.
    net.weights = [w.astype(np.float32) for w in net.weights]
    net.biases = [b.astype(np.float32) for b in net.biases]
    x32 = x.astype(np.float32)
    with np.errstate(invalid="ignore"):
        want32, _, _ = _oracle(
            net.weights, net.biases, net.activations, x32, grad_out
        )
        assert _same_bits(net.forward(x32)[0], want32)


def _reference_backward(net, grad_out, caches):
    """The out-of-place backward: every layer multiplies by its
    activation gradient, ``"none"`` layers by ones."""
    from repro.nerf.mlp import _activate_grad

    grad = np.atleast_2d(grad_out)
    param_grads = {}
    for layer in reversed(range(net.n_layers)):
        cache = caches[layer]
        act = net.activations[layer]
        grad = grad * _activate_grad(cache.pre_activation, cache.output, act)
        param_grads[f"w{layer}"] = cache.inputs.T @ grad
        param_grads[f"b{layer}"] = grad.sum(axis=0)
        grad = grad @ net.weights[layer].T
    return grad, param_grads


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "activations",
    [
        ["relu", "none"],
        ["relu", "relu", "sigmoid"],
        ["none", "relu", "none"],
        ["softplus", "exp", "relu"],
    ],
)
def test_backward_matches_out_of_place_reference(dtype, activations):
    """Skipping the ``"none"`` multiply and masking ReLU in place leave
    every value and dtype bit-identical, NaN and inf rows included, and
    never write into the caller's ``grad_out``."""
    widths = [6] + [5] * (len(activations) - 1) + [4]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        net = MLP(widths, activations=activations, rng=rng)
        net.weights = [w.astype(dtype) for w in net.weights]
        net.biases = [b.astype(dtype) for b in net.biases]
        x = rng.normal(size=(9, widths[0])).astype(dtype)
        grad_out = rng.normal(size=(9, widths[-1])).astype(dtype)
        x[1] = np.nan
        x[2, 0] = np.inf
        grad_out[3] = -np.inf
        grad_out[4, 1] = np.nan
        grad_out[5] = -0.0
        given = grad_out.copy()
        # The non-finite rows are the point: their arithmetic may warn.
        with np.errstate(invalid="ignore", over="ignore"):
            _, caches = net.forward(x)
            grad_in, grads = net.backward(grad_out, caches)
            # Backward consumed its caches; the reference reads a
            # second forward's.
            _, ref_caches = net.forward(x)
            ref_in, ref = _reference_backward(net, given, ref_caches)
        assert np.array_equal(grad_out, given, equal_nan=True)
        assert grad_in.dtype == ref_in.dtype == dtype
        assert grad_in.tobytes() == ref_in.tobytes()
        assert grads.keys() == ref.keys()
        for name in ref:
            assert grads[name].dtype == ref[name].dtype, name
            assert grads[name].tobytes() == ref[name].tobytes(), name
