"""Adam and the MSE loss."""

import numpy as np
import pytest

from repro.nerf.optimizer import Adam, mse_loss


def test_adam_minimizes_quadratic():
    params = {"x": np.array([5.0, -3.0])}
    opt = Adam(params, lr=0.1)
    for _ in range(300):
        opt.step({"x": 2.0 * params["x"]})
    assert np.allclose(params["x"], 0.0, atol=1e-3)


def test_adam_updates_in_place():
    x = np.array([1.0])
    opt = Adam({"x": x}, lr=0.01)
    opt.step({"x": np.array([1.0])})
    assert x[0] < 1.0


def test_adam_skips_missing_grads():
    params = {"a": np.array([1.0]), "b": np.array([2.0])}
    opt = Adam(params, lr=0.1)
    opt.step({"a": np.array([1.0])})
    assert params["b"][0] == 2.0


def test_adam_rejects_unknown_parameter():
    opt = Adam({"a": np.zeros(2)}, lr=0.1)
    with pytest.raises(KeyError):
        opt.step({"zz": np.zeros(2)})


def test_adam_rejects_shape_mismatch():
    opt = Adam({"a": np.zeros(2)}, lr=0.1)
    with pytest.raises(ValueError):
        opt.step({"a": np.zeros(3)})


def test_adam_rejects_nonpositive_lr():
    with pytest.raises(ValueError):
        Adam({"a": np.zeros(1)}, lr=0.0)


def test_adam_weight_decay_shrinks_parameters():
    params = {"x": np.array([10.0])}
    opt = Adam(params, lr=0.1, weight_decay=0.1)
    for _ in range(200):
        opt.step({"x": np.zeros(1)})
    assert abs(params["x"][0]) < 10.0


def test_adam_set_lr():
    opt = Adam({"a": np.zeros(1)}, lr=0.1)
    opt.set_lr(0.5)
    assert opt.lr == 0.5
    with pytest.raises(ValueError):
        opt.set_lr(-1.0)


def test_adam_first_step_magnitude_is_lr():
    """Bias correction makes the first step ~lr regardless of grad scale."""
    params = {"x": np.array([0.0])}
    opt = Adam(params, lr=0.05)
    opt.step({"x": np.array([1234.0])})
    assert params["x"][0] == pytest.approx(-0.05, rel=1e-3)


def test_mse_loss_value_and_gradient():
    pred = np.array([1.0, 2.0])
    target = np.array([0.0, 0.0])
    loss, grad = mse_loss(pred, target)
    assert loss == pytest.approx(2.5)
    assert np.allclose(grad, [1.0, 2.0])


def test_mse_loss_gradient_finite_difference(rng):
    pred = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 3))
    loss, grad = mse_loss(pred, target)
    eps = 1e-7
    bumped = pred.copy()
    bumped[1, 2] += eps
    up, _ = mse_loss(bumped, target)
    assert np.isclose(grad[1, 2], (up - loss) / eps, atol=1e-5)


def test_mse_loss_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss(np.zeros(2), np.zeros(3))


def _reference_adam(params, m, v, grads, step, lr, betas, eps, weight_decay):
    """The out-of-place Adam update the in-place one must reproduce."""
    beta1, beta2 = betas
    bias1 = 1.0 - beta1**step
    bias2 = 1.0 - beta2**step
    for name, grad in grads.items():
        p = params[name]
        if weight_decay:
            grad = grad + weight_decay * p
        m[name] = beta1 * m[name] + (1.0 - beta1) * grad
        v[name] = beta2 * v[name] + (1.0 - beta2) * grad * grad
        m_hat = m[name] / bias1
        v_hat = v[name] / bias2
        params[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_adam_in_place_matches_out_of_place_formula(weight_decay):
    """Over a seeded sweep of shapes, scales and steps, parameters and
    both moments equal the out-of-place formula byte for byte, and the
    caller's gradients are left as they were."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        shapes = {"tables": (3, 16, 2), "w0": (5, 7), "b0": (7,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in params.items()}
        ref_v = {k: np.zeros_like(v) for k, v in params.items()}
        opt = Adam(params, lr=1e-2, weight_decay=weight_decay)
        for step in range(1, 6):
            scale = 10.0 ** rng.integers(-8, 3)
            grads = {k: scale * rng.normal(size=s) for k, s in shapes.items()}
            grads["b0"][0] = 0.0
            given = {k: g.copy() for k, g in grads.items()}
            opt.step(grads)
            _reference_adam(
                ref, ref_m, ref_v, given, step, opt.lr,
                (opt.beta1, opt.beta2), opt.eps, weight_decay,
            )
            for name in shapes:
                assert grads[name].tobytes() == given[name].tobytes()
                assert params[name].tobytes() == ref[name].tobytes(), name
                assert opt._m[name].tobytes() == ref_m[name].tobytes(), name
                assert opt._v[name].tobytes() == ref_v[name].tobytes(), name
