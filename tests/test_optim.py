"""Adam's dense and row updates, bitwise against the formulas they replaced."""

import numpy as np
import pytest

from owlink.optim import Adam


def reference_update(adam, name, param, grad):
    """Dense update as first written: moments, bias correction, step."""
    m, v = adam._state(name, param.shape)
    m *= adam.beta1
    m += (1 - adam.beta1) * grad
    v *= adam.beta2
    v += (1 - adam.beta2) * grad * grad
    m_hat = m / (1 - adam.beta1 ** adam.t)
    v_hat = v / (1 - adam.beta2 ** adam.t)
    param -= adam.lr * m_hat / (np.sqrt(v_hat) + adam.eps)


def reference_update_rows(adam, name, param, rows, grad_rows):
    """Row update as first written, on gathered copies of the moment rows."""
    m, v = adam._state(name, param.shape)
    m_r = adam.beta1 * m[rows] + (1 - adam.beta1) * grad_rows
    v_r = adam.beta2 * v[rows] + (1 - adam.beta2) * grad_rows * grad_rows
    m[rows] = m_r
    v[rows] = v_r
    m_hat = m_r / (1 - adam.beta1 ** adam.t)
    v_hat = v_r / (1 - adam.beta2 ** adam.t)
    param[rows] -= adam.lr * m_hat / (np.sqrt(v_hat) + adam.eps)


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def assert_same_state(a, b, param_a, param_b, name="w"):
    assert bits(param_a) == bits(param_b)
    assert bits(a._m[name]) == bits(b._m[name])
    assert bits(a._v[name]) == bits(b._v[name])


def grad_steps(rng, shape, steps):
    """Gradients over magnitudes 1e-4..1e2, with -0.0 rows, 0.0 rows and
    rows of mixed-sign zeros, so that any change of operation order shows."""
    out = []
    for _ in range(steps):
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3, size=shape)
        g[rng.random(shape[0]) < 0.2] = -0.0
        g[rng.random(shape[0]) < 0.1] = 0.0
        mixed = rng.random(shape[0]) < 0.1
        g[mixed] = np.where(rng.random((int(mixed.sum()), shape[1])) < 0.5, -0.0, 0.0)
        out.append(g)
    return out


HYPERPARAMS = [
    {},
    {"lr": 0.05},
    {"lr": 1.0, "beta1": 0.5, "beta2": 0.9, "eps": 1e-4},
]


@pytest.mark.parametrize("hp", HYPERPARAMS)
@pytest.mark.parametrize("seed", range(4))
def test_dense_update_equals_rows_over_all_rows(hp, seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 12)), int(rng.integers(1, 6)))
    dense, sparse = Adam(**hp), Adam(**hp)
    p_dense = rng.normal(size=shape)
    p_sparse = p_dense.copy()
    rows = np.arange(shape[0])
    for g in grad_steps(rng, shape, 6):
        dense.begin_step()
        sparse.begin_step()
        dense.update("w", p_dense, g)
        sparse.update_rows("w", p_sparse, rows, g)
        assert_same_state(dense, sparse, p_dense, p_sparse)


@pytest.mark.parametrize("seed", range(4))
def test_update_rows_leaves_other_rows_alone(seed):
    rng = np.random.default_rng(seed)
    shape = (10, 3)
    adam = Adam(lr=0.05)
    param = rng.normal(size=shape)
    for g in grad_steps(rng, shape, 3):  # non-zero moments in every row first
        adam.begin_step()
        adam.update_rows("w", param, np.arange(shape[0]), g)
    rows = rng.permutation(shape[0])[:4]
    others = np.setdiff1d(np.arange(shape[0]), rows)
    before = [a[others].copy() for a in (param, adam._m["w"], adam._v["w"])]
    touched = param[rows].copy()
    adam.begin_step()
    adam.update_rows("w", param, rows, grad_steps(rng, (len(rows), 3), 1)[0])
    after = [a[others] for a in (param, adam._m["w"], adam._v["w"])]
    for b, a in zip(before, after):
        assert bits(b) == bits(a)
    assert (param[rows] != touched).any(axis=1).all()


@pytest.mark.parametrize("hp", HYPERPARAMS)
@pytest.mark.parametrize("seed", range(4))
def test_dense_update_matches_reference(hp, seed):
    rng = np.random.default_rng(100 + seed)
    shape = (int(rng.integers(1, 12)), int(rng.integers(1, 6)))
    new, ref = Adam(**hp), Adam(**hp)
    p_new = rng.normal(size=shape)
    p_ref = p_new.copy()
    for g in grad_steps(rng, shape, 6):
        new.begin_step()
        ref.begin_step()
        new.update("w", p_new, g)
        reference_update(ref, "w", p_ref, g)
        assert_same_state(new, ref, p_new, p_ref)


@pytest.mark.parametrize("hp", HYPERPARAMS)
@pytest.mark.parametrize("seed", range(4))
def test_update_rows_matches_reference(hp, seed):
    rng = np.random.default_rng(200 + seed)
    shape = (int(rng.integers(2, 12)), int(rng.integers(1, 6)))
    new, ref = Adam(**hp), Adam(**hp)
    p_new = rng.normal(size=shape)
    p_ref = p_new.copy()
    for _ in range(6):
        rows = rng.permutation(shape[0])[: int(rng.integers(1, shape[0] + 1))]
        g = grad_steps(rng, (len(rows), shape[1]), 1)[0]
        new.begin_step()
        ref.begin_step()
        new.update_rows("w", p_new, rows, g)
        reference_update_rows(ref, "w", p_ref, rows, g)
        assert_same_state(new, ref, p_new, p_ref)
