"""Array-valued reverse-mode differentiation over a minimal op set.

Covers exactly what the scoring head and its loss need: broadcast
arithmetic, matmul, relu, squares and square roots, reductions, row
softmax, row logsumexp and diagonal extraction. Parameters enter as one
leaf per block (``head.lift_params``). Values are eager float64 numpy
arrays; each operation appends its output node to a ``Tape``, so
creation order is already a topological order and the backward pass is
a single reverse sweep.

The tape holds its nodes by weak reference; each node holds its parents
strongly. So a graph lives exactly as long as its root (or a node the
caller keeps), and is freed by reference counting when that goes, with
no cycle left for the garbage collector.

Module-level helpers (``relu``, ``square``, ``sqrt``, ``sum_rows``,
``softmax_rows``, ``logsumexp_rows``, ``diag_part``) dispatch on
``Var`` vs plain ndarray, so forward-only callers pay no tape overhead
while training code reuses the same formulas.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from .errors import ShapeMismatch

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tape:
    """Records nodes in creation order; ``backward`` sweeps them once."""

    def __init__(self) -> None:
        self._nodes: list[weakref.ref[Var]] = []

    def leaf(self, value) -> "Var":
        return Var(np.asarray(value, dtype=np.float64), self)

    def backward(self, root: "Var") -> None:
        if root.value.size != 1:
            raise ShapeMismatch(f"backward root must be scalar, got shape {root.value.shape}")
        # A dead node cannot be an ancestor of the live root: children hold
        # their parents. Creation order fixes every gradient sum's order.
        nodes = [node for ref in self._nodes if (node := ref()) is not None]
        for node in nodes:
            node.grad = None
        root.grad = np.ones_like(root.value)
        for node in reversed(nodes):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                contribution = vjp(g)
                if parent.grad is None:
                    parent.grad = contribution.copy() if contribution is g else contribution
                else:
                    parent.grad = parent.grad + contribution

    def gradient(self, var: "Var") -> Array:
        """Gradient of the last backward root w.r.t. `var`; zero if unused."""
        if var.grad is None:
            return np.zeros_like(var.value)
        return var.grad


def _tape_of(*operands) -> Tape:
    tapes = {id(v._tape): v._tape for v in operands if isinstance(v, Var)}
    if len(tapes) != 1:
        raise ShapeMismatch("operands recorded on different tapes")
    return next(iter(tapes.values()))


class Var:
    """One node: a float64 array plus a gradient slot."""

    # Keep numpy from hijacking `ndarray <op> Var`; defer to our __r*__ methods.
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "_parents", "_vjps", "_tape", "__weakref__")

    def __init__(self, value: Array, tape: Tape,
                 parents: tuple["Var", ...] = (),
                 vjps: tuple[Callable[[Array], Array], ...] = ()) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self._parents = parents
        self._vjps = vjps
        self._tape = tape
        tape._nodes.append(weakref.ref(self))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Var):
            tape = _tape_of(self, other)
            a, b = self.value, other.value
            return Var(a + b, tape, (self, other),
                       (lambda g: _unbroadcast(g, a.shape),
                        lambda g: _unbroadcast(g, b.shape)))
        c = np.asarray(other, dtype=np.float64)
        a = self.value
        return Var(a + c, self._tape, (self,), (lambda g: _unbroadcast(g, a.shape),))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Var):
            tape = _tape_of(self, other)
            a, b = self.value, other.value
            return Var(a - b, tape, (self, other),
                       (lambda g: _unbroadcast(g, a.shape),
                        lambda g: _unbroadcast(-g, b.shape)))
        c = np.asarray(other, dtype=np.float64)
        a = self.value
        return Var(a - c, self._tape, (self,), (lambda g: _unbroadcast(g, a.shape),))

    def __mul__(self, other):
        if isinstance(other, Var):
            tape = _tape_of(self, other)
            a, b = self.value, other.value
            return Var(a * b, tape, (self, other),
                       (lambda g: _unbroadcast(g * b, a.shape),
                        lambda g: _unbroadcast(g * a, b.shape)))
        c = np.asarray(other, dtype=np.float64)
        a = self.value
        return Var(a * c, self._tape, (self,), (lambda g: _unbroadcast(g * c, a.shape),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Var):
            tape = _tape_of(self, other)
            a, b = self.value, other.value
            return Var(a / b, tape, (self, other),
                       (lambda g: _unbroadcast(g / b, a.shape),
                        lambda g: _unbroadcast(-g * a / (b * b), b.shape)))
        c = np.asarray(other, dtype=np.float64)
        a = self.value
        return Var(a / c, self._tape, (self,), (lambda g: _unbroadcast(g / c, a.shape),))

    def __matmul__(self, other):
        if isinstance(other, Var):
            tape = _tape_of(self, other)
            a, b = self.value, other.value
            _check_matmul(a, b)
            return Var(a @ b, tape, (self, other),
                       (lambda g: g @ b.T, lambda g: a.T @ g))
        c = np.asarray(other, dtype=np.float64)
        a = self.value
        _check_matmul(a, c)
        return Var(a @ c, self._tape, (self,), (lambda g: g @ c.T,))

    def __rmatmul__(self, other):
        c = np.asarray(other, dtype=np.float64)
        a = self.value
        _check_matmul(c, a)
        return Var(c @ a, self._tape, (self,), (lambda g: c.T @ g,))

    # -- unary / structural ----------------------------------------------------

    def relu(self):
        x = self.value
        return Var(np.maximum(x, 0.0), self._tape, (self,), (lambda g: g * (x > 0),))

    def square(self):
        x = self.value
        return Var(x * x, self._tape, (self,), (lambda g: 2.0 * x * g,))

    def sqrt(self):
        out = np.sqrt(self.value)
        return Var(out, self._tape, (self,), (lambda g: g / (2.0 * out),))

    def sum(self, axis=None, keepdims=False):
        x = self.value
        out = x.sum(axis=axis, keepdims=keepdims)

        def vjp(g: Array) -> Array:
            if axis is None:
                return np.broadcast_to(g, x.shape).copy()
            gg = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(gg, x.shape).copy()

        return Var(out, self._tape, (self,), (vjp,))

    def softmax_rows(self):
        x = self.value
        if x.ndim != 2:
            raise ShapeMismatch(f"softmax_rows expects a matrix, got shape {x.shape}")
        y = _softmax_rows_value(x)
        return Var(y, self._tape, (self,),
                   (lambda g: y * (g - (g * y).sum(axis=1, keepdims=True)),))

    def logsumexp_rows(self):
        x = self.value
        if x.ndim != 2:
            raise ShapeMismatch(f"logsumexp_rows expects a matrix, got shape {x.shape}")
        out = _logsumexp_rows_value(x)
        soft = _softmax_rows_value(x)
        return Var(out, self._tape, (self,), (lambda g: soft * g[:, None],))

    def diag_part(self):
        x = self.value
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ShapeMismatch(f"diag_part expects a square matrix, got shape {x.shape}")

        def vjp(g: Array) -> Array:
            out = np.zeros_like(x)
            np.fill_diagonal(out, g)
            return out

        return Var(np.diagonal(x).copy(), self._tape, (self,), (vjp,))

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape})"


def _check_matmul(a: Array, b: Array) -> None:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"cannot matmul shapes {a.shape} and {b.shape}")


def _softmax_rows_value(x: Array) -> Array:
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _logsumexp_rows_value(x: Array) -> Array:
    m = x.max(axis=1)
    return m + np.log(np.exp(x - m[:, None]).sum(axis=1))


# -- generic helpers: work on Var or plain ndarray ----------------------------

def relu(x):
    return x.relu() if isinstance(x, Var) else np.maximum(x, 0.0)


def square(x):
    return x.square() if isinstance(x, Var) else x * x


def sqrt(x):
    return x.sqrt() if isinstance(x, Var) else np.sqrt(x)


def sum_rows(x):
    """Row sums, kept as a column for broadcasting."""
    return x.sum(axis=1, keepdims=True)


def softmax_rows(x):
    return x.softmax_rows() if isinstance(x, Var) else _softmax_rows_value(x)


def logsumexp_rows(x):
    return x.logsumexp_rows() if isinstance(x, Var) else _logsumexp_rows_value(x)


def diag_part(x):
    return x.diag_part() if isinstance(x, Var) else np.diagonal(x).copy()


def value_of(x) -> Array:
    """Underlying ndarray of a Var, or the array itself."""
    return x.value if isinstance(x, Var) else np.asarray(x)
