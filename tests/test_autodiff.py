import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emis.autodiff import Tape, node, value_of
from emis.errors import ShapeMismatch


def total(x):
    """Sum of all entries as one node."""
    return node(x.value.sum(), [x], lambda g: (np.broadcast_to(g, x.value.shape),))


def square(x):
    return node(x.value * x.value, [x], lambda g: (2.0 * x.value * g,))


def product(x, y):
    """Elementwise x * y, one node over both."""
    return node(x.value * y.value, [x, y], lambda g: (g * y.value, g * x.value))


def test_unused_leaf_gets_zero_gradient():
    tape = Tape()
    a = tape.leaf(np.ones((2, 2)))
    b = tape.leaf(np.ones((3,)))
    tape.backward(total(a))
    assert np.array_equal(tape.gradient(b), np.zeros(3))
    np.testing.assert_array_equal(tape.gradient(a), np.ones((2, 2)))


def test_gradient_accumulates_over_reuse():
    tape = Tape()
    a = tape.leaf(np.array([2.0, 3.0]))
    tape.backward(total(product(a, a)))       # d/da (a^2) = 2a
    np.testing.assert_allclose(tape.gradient(a), [4.0, 6.0])


def test_contributions_are_summed_in_reverse_creation_order():
    """A parent's gradient is its children's contributions added in reverse
    creation order; the order is what makes gradients bit-reproducible."""
    seen = []

    def recording(tag, contribution):
        def backward(g):
            seen.append(tag)
            return (np.full(3, contribution),)
        return backward

    tape = Tape()
    a = tape.leaf(np.zeros(3))
    first = node(np.zeros(3), [a], recording("first", 1e16))
    second = node(np.zeros(3), [a], recording("second", -1e16))
    third = node(np.zeros(3), [a], recording("third", 1.0))
    root = node(0.0, [first, second, third], lambda g: (np.ones(3),) * 3)
    tape.backward(root)
    assert seen == ["third", "second", "first"]
    # (1.0 + -1e16) + 1e16 is 0.0 in float64; creation order would give 1.0.
    np.testing.assert_array_equal(tape.gradient(a), np.zeros(3))


def test_dropped_graph_is_freed_without_the_collector():
    gc.disable()
    try:
        tape = Tape()
        a = tape.leaf(np.array([2.0, -3.0]))
        hidden = square(a)
        probe = weakref.ref(hidden)
        out = total(hidden)
        del hidden
        tape.backward(out)
        np.testing.assert_allclose(tape.gradient(a), [4.0, -6.0])
        assert probe() is not None          # its child `out` still holds it
        del out
        assert probe() is None
        out = total(a)                      # the next sweep skips the dead nodes
        tape.backward(out)
        np.testing.assert_allclose(tape.gradient(a), [1.0, 1.0])
    finally:
        gc.enable()


def test_backward_requires_scalar_root():
    tape = Tape()
    a = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        tape.backward(square(a))


def test_cross_tape_mixing_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones(3))
    b = t2.leaf(np.ones(3))
    with pytest.raises(ShapeMismatch):
        product(a, b)


def test_numpy_ufuncs_are_blocked():
    tape = Tape()
    a = tape.leaf(np.ones(3))
    with pytest.raises(TypeError):
        np.exp(a)


def test_var_has_no_arithmetic():
    """A Var reaches a formula only through ``node``: numpy and Python
    operators both refuse it."""
    tape = Tape()
    a = tape.leaf(np.arange(3.0)[:, None])
    for combine in (lambda: a + a, lambda: a * 2.0, lambda: np.ones((3, 1)) * a,
                    lambda: np.ones((2, 3)) @ a, lambda: a @ np.ones((1, 2)), lambda: -a):
        with pytest.raises(TypeError):
            combine()
    assert not hasattr(a, "sum")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_chained_expression_gradient_property(seed):
    """A chain of nodes with fan-out, x -> x*w -> (x*w)^2 * x -> sum, against
    central differences: the sweep must route and add every contribution."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((2, 3))
    w0 = rng.standard_normal((2, 3))

    def build(tape, x, w):
        xv, wv = tape.leaf(x), tape.leaf(w)
        return xv, wv, total(product(square(product(xv, wv)), xv))

    tape = Tape()
    xv, wv, root = build(tape, x0, w0)
    tape.backward(root)
    for k, arr in enumerate((x0, w0)):
        numeric = np.zeros_like(arr)
        for i in range(arr.size):
            shifted = [x0.copy(), w0.copy()]
            shifted[k].flat[i] += 1e-6
            up = float(value_of(build(Tape(), *shifted)[2]))
            shifted[k].flat[i] -= 2e-6
            down = float(value_of(build(Tape(), *shifted)[2]))
            numeric.flat[i] = (up - down) / 2e-6
        np.testing.assert_allclose(tape.gradient((xv, wv)[k]), numeric, rtol=2e-5, atol=2e-6)
