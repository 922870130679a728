"""A reverse-mode tape over hand-written fused nodes.

The head's formulas are written once, in plain numpy (``head``,
``training``). Where their inputs are tape ``Var``s, each formula wraps
its result in one ``node`` whose backward, written by hand, returns one
contribution per parent. Parameters enter as one leaf per block
(``head.lift_params``). A ``Var`` has no arithmetic: numpy refuses it
as an operand, so no formula can reach the tape by accident.

Each node is appended to its ``Tape`` when it is made, so creation order
is a topological order and ``backward`` is a single reverse sweep. That
sweep also fixes the order in which a parent's contributions are summed,
which keeps gradients bit-for-bit reproducible.

The tape holds its nodes by weak reference; each node holds its parents
strongly. So a graph lives exactly as long as its root (or a node the
caller keeps), and is freed by reference counting when that goes, with
no cycle left for the garbage collector.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeMismatch

Array = np.ndarray


class Tape:
    """Records nodes in creation order; ``backward`` sweeps them once."""

    def __init__(self) -> None:
        self._nodes: list[weakref.ref[Var]] = []

    def leaf(self, value) -> "Var":
        return Var(value, self)

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
            if g is None or not node._parents:
                continue
            for parent, contribution in zip(node._parents, node._backward(g)):
                if parent.grad is None:
                    parent.grad = contribution.copy() if contribution is g else contribution
                else:
                    parent.grad = parent.grad + contribution

    def gradient(self, var: "Var") -> Array:
        """Gradient of the last backward root w.r.t. `var`; zero if unused."""
        if var.grad is None:
            return np.zeros_like(var.value)
        return var.grad


class Var:
    """One node: a float64 array plus a gradient slot; no arithmetic."""

    # A Var in any numpy operation raises TypeError instead of being
    # silently turned into an object array.
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "_parents", "_backward", "_tape", "__weakref__")

    def __init__(self, value, tape: Tape, parents: tuple["Var", ...] = (),
                 backward: Callable[[Array], Sequence[Array]] | None = None) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self._parents = parents
        self._backward = backward
        self._tape = tape
        tape._nodes.append(weakref.ref(self))

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape})"


def node(value, parents: Sequence[Var], backward: Callable[[Array], Sequence[Array]]) -> Var:
    """One node over ``parents`` (one tape); ``backward(g)`` returns one
    contribution per parent, in the order of ``parents``."""
    tapes = {id(p._tape): p._tape for p in parents}
    if len(tapes) != 1:
        raise ShapeMismatch("parents recorded on different tapes")
    return Var(value, next(iter(tapes.values())), tuple(parents), backward)


def value_of(x) -> Array:
    """Underlying ndarray of a Var, or the array itself."""
    return x.value if isinstance(x, Var) else np.asarray(x)
