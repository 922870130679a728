import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emis.autodiff import Tape, value_of
from emis.errors import ShapeMismatch


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar-valued f at x, coordinate by coordinate."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        up = f(x)
        xf[i] = orig - h
        down = f(x)
        xf[i] = orig
        flat[i] = (up - down) / (2.0 * h)
    return grad


def check_op(build, shapes, seed=0, tol=1e-6):
    """Compare tape gradients of scalar build(*vars) against central differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) if s else np.float64(rng.standard_normal())
              for s in shapes]
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = build(*leaves)
    assert np.isscalar(out.value) or out.value.shape == ()
    tape.backward(out)
    for k, (arr, leaf) in enumerate(zip(arrays, leaves)):
        analytic = tape.gradient(leaf)

        def scalar_f(x, k=k):
            args = list(arrays)
            args[k] = x
            t = Tape()
            vs = [t.leaf(a) for a in args]
            return float(value_of(build(*vs)))

        numeric = numeric_grad(scalar_f, np.array(arr, dtype=np.float64))
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


def test_add_sub_mul_div_grads():
    check_op(lambda a, b: (a + b).sum(), [(3, 4), (3, 4)])
    check_op(lambda a, b: (a - b).sum(), [(3, 4), (3, 4)])
    check_op(lambda a, b: (a * b).sum(), [(3, 4), (3, 4)])
    check_op(lambda a, b: (a / (b * b + 1.0)).sum(), [(3, 4), (3, 4)])


def test_broadcast_grads():
    check_op(lambda a, b: (a + b).sum(), [(3, 4), (4,)])
    check_op(lambda a, b: (a * b).sum(), [(3, 4), (3, 1)])
    check_op(lambda a, b: (a / (b.square() + 0.5)).sum(), [(2, 5), (2, 1)])


def test_constant_mixing_grads():
    check_op(lambda a: (2.0 * a + 1.0).sum(), [(4,)])


def test_matmul_grads():
    check_op(lambda a, b: (a @ b).sum(), [(3, 4), (4, 5)])


def test_unary_grads():
    check_op(lambda a: a.relu().sum(), [(3, 4)], seed=1)
    check_op(lambda a: a.square().sum(), [(3, 4)])
    check_op(lambda a: (a.square() + 1.0).sqrt().sum(), [(3, 4)])
    check_op(lambda a: a.softmax_rows().square().sum(), [(3, 4)])
    check_op(lambda a: a.logsumexp_rows().sum(), [(3, 4)])
    check_op(lambda a: a.diag_part().sum(), [(4, 4)])
    check_op(lambda a: a.sum(axis=0).square().sum(), [(3, 4)])
    check_op(lambda a: a.sum(axis=1, keepdims=True).square().sum(), [(3, 4)])


def test_softmax_rows_value():
    tape = Tape()
    x = tape.leaf(np.array([[0.0, 10.0, -5.0], [3.0, 3.0, 3.0]]))
    s = x.softmax_rows().value
    np.testing.assert_allclose(s.sum(axis=1), [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(s[1], [1 / 3] * 3, atol=1e-15)


def test_logsumexp_rows_is_stable():
    tape = Tape()
    x = tape.leaf(np.array([[1000.0, 1000.0]]))
    out = x.logsumexp_rows().value
    np.testing.assert_allclose(out, [1000.0 + np.log(2.0)], atol=1e-12)


def test_unused_leaf_gets_zero_gradient():
    tape = Tape()
    a = tape.leaf(np.ones((2, 2)))
    b = tape.leaf(np.ones((3,)))
    out = a.sum()
    tape.backward(out)
    assert np.array_equal(tape.gradient(b), np.zeros(3))


def test_gradient_accumulates_over_reuse():
    tape = Tape()
    a = tape.leaf(np.array([2.0, 3.0]))
    out = (a * a).sum()       # d/da (a^2) = 2a
    tape.backward(out)
    np.testing.assert_allclose(tape.gradient(a), [4.0, 6.0])


def test_dropped_graph_is_freed_without_the_collector():
    gc.disable()
    try:
        tape = Tape()
        a = tape.leaf(np.array([2.0, -3.0]))
        hidden = (a * a).relu()
        probe = weakref.ref(hidden)
        out = hidden.sum()
        del hidden
        tape.backward(out)
        np.testing.assert_allclose(tape.gradient(a), [4.0, -6.0])
        assert probe() is not None          # its child `out` still holds it
        del out
        assert probe() is None
        out = (a * 3.0).sum()               # the next sweep skips the dead nodes
        tape.backward(out)
        np.testing.assert_allclose(tape.gradient(a), [3.0, 3.0])
    finally:
        gc.enable()


def test_backward_requires_scalar_root():
    tape = Tape()
    a = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        tape.backward(a + a)


def test_cross_tape_mixing_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones(3))
    b = t2.leaf(np.ones(3))
    with pytest.raises(ShapeMismatch):
        _ = a + b


def test_matmul_shape_check():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((4, 5)))
    with pytest.raises(ShapeMismatch):
        _ = a @ b


def test_numpy_ufuncs_are_blocked():
    tape = Tape()
    a = tape.leaf(np.ones(3))
    with pytest.raises(TypeError):
        np.exp(a)


def test_rmul_radd_with_ndarray():
    tape = Tape()
    a = tape.leaf(np.arange(3.0)[:, None])
    left = np.array([[1.0], [2.0], [3.0]]) * a
    right = a * np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(left.value, right.value)
    out = np.ones((2, 3)) @ a
    assert out.value.shape == (2, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_chained_expression_gradient_property(seed):
    """Random small expression: softmax -> gate -> normalize -> reduce."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3))
    w = rng.standard_normal((3, 3))

    def build(xv, wv):
        gate = (xv @ wv).softmax_rows()
        num = (gate * xv).sum(axis=1, keepdims=True)
        den = ((gate * gate).sum(axis=1, keepdims=True) + 1e-3).sqrt()
        return (num / den).sum()

    tape = Tape()
    xv, wv = tape.leaf(x), tape.leaf(w)
    tape.backward(build(xv, wv))
    for arr, leaf in ((x, xv), (w, wv)):
        analytic = tape.gradient(leaf)

        def f(a, arr=arr, leaf_is_x=leaf is xv):
            t = Tape()
            if leaf_is_x:
                return float(value_of(build(t.leaf(a), t.leaf(w))))
            return float(value_of(build(t.leaf(x), t.leaf(a))))

        numeric = numeric_grad(f, arr.copy(), h=1e-5)
        np.testing.assert_allclose(analytic, numeric, rtol=2e-5, atol=2e-6)
