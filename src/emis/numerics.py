"""The norm floor, row norms, the row normalizer, the row padder, the row
softmax and gradient verification.

``NORM_EPS`` is the smallest norm the program will divide by.
``row_norms`` is the one row-norm loop, taken ``NORM_ROWS`` rows at a
time so no bank-sized temporary is built, and ``normalize_rows`` the
one row normalizer: a row whose norm is NaN or <= ``NORM_EPS`` raises
``NearZeroNorm``. ``pad_rows`` pads gathered rows so that a gemm of them
keeps the bits of a full-tile gemm. ``softmax_rows`` is the max-shifted
row softmax of the attention branches and the loss. ``finite_diff_check``
is the ground-truth oracle used by the test suite and the ``gradcheck`` CLI
command: it compares a given analytic gradient against central
differences of a plain-array function, coordinate by coordinate, and
builds no tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NearZeroNorm, NonFiniteGradient, ShapeMismatch

Array = np.ndarray

NORM_EPS = 1e-12

# Rows per pass of ``row_norms``: a pass's float64 rows and their squares
# are NORM_ROWS x D, never bank-sized.
NORM_ROWS = 1024

FD_ABS_FLOOR = 1e-6
FD_ABS_TOL = 1e-7


def guard_norms(norms, what: str, eps: float = NORM_EPS) -> None:
    """Raise ``NearZeroNorm`` unless every entry of the array ``norms`` is > ``eps``.

    The error carries the row of the first failing norm of a block.
    """
    # min() propagates NaN and NaN > eps is False, so NaN fails the guard
    # too; the inf start lets zero rows through.
    smallest = float(norms.min(initial=np.inf))
    if not smallest > eps:
        row = int(np.argwhere(~(np.atleast_1d(norms) > eps))[0, 0])
        raise NearZeroNorm(f"{what} has norm {smallest!r}", row=row)


def row_norms(rows: Array) -> Array:
    """The float64 L2 norm of every row of a 2-D array, ``NORM_ROWS`` rows at a time.

    A pass of any other dtype (float32 bank rows) is widened to float64
    before it is squared; float64 rows are not copied. Each row's sum does
    not depend on the pass it falls in, so the norms are bit-identical to
    ``np.linalg.norm`` of the whole widened array along axis 1.
    """
    norms = np.empty(len(rows))
    for lo in range(0, len(rows), NORM_ROWS):
        chunk = rows[lo:lo + NORM_ROWS]
        if chunk.dtype != np.float64:
            chunk = chunk.astype(np.float64)
        norms[lo:lo + NORM_ROWS] = np.linalg.norm(chunk, axis=1)
    return norms


def normalize_rows(x: Array) -> Array:
    """Unit rows in one fresh float64 array, divided in place."""
    out = np.array(x, dtype=np.float64)
    norms = row_norms(out)
    guard_norms(norms, "row to normalize")
    out /= norms[:, None]
    return out


def pad_rows(rows: Array, multiple: int) -> Array:
    """``rows`` with copies of its first row appended, up to
    max(multiple * ceil(n / multiple), 40) rows; unchanged when already there.

    A gemm's bits depend on its shape only through the kernel OpenBLAS
    picks for it, and small or ragged shapes take paths that sum in
    another order. Query rows padded to a multiple of 4 and gallery rows
    to 8 keep the bits of a 256 x 2048 gemm on OpenBLAS 0.3.31, as
    ``tests/test_head.py`` pins through ``head.pair_scores``; floors of 32
    or less do not.
    """
    n = len(rows)
    target = max(-(-n // multiple) * multiple, 40)
    if n == 0 or n == target:
        return rows
    out = np.empty((target, *rows.shape[1:]), dtype=rows.dtype)   # C order, as gathered rows
    out[:n], out[n:] = rows, rows[:1]
    return out


def softmax_rows(x: Array) -> Array:
    """Row softmax of a matrix, each row shifted by its max first."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class CoordinateCheck:
    """One coordinate's analytic-vs-numeric comparison."""

    index: int
    analytic: float
    numeric: float
    error: float
    passed: bool


@dataclass
class FiniteDiffReport:
    """Outcome of a finite-difference gradient check."""

    n_checked: int
    max_error: float
    worst_index: int
    passed: bool
    failures: list[CoordinateCheck] = field(default_factory=list)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{status}: {self.n_checked} coordinates, "
                f"max error {self.max_error:.3e} at index {self.worst_index}, "
                f"{len(self.failures)} failing")


def finite_diff_check(f: Callable[[Array], float], x, grad,
                      h: float = 1e-3, tol: float = 1e-4,
                      coords: Sequence[int] | None = None) -> FiniteDiffReport:
    """Compare the analytic gradient ``grad`` of ``f`` at ``x`` with central differences.

    ``f`` maps a float64 array shaped like ``x`` to a scalar. A coordinate
    passes if its relative error is <= ``tol``, falling back to absolute
    error <= ``FD_ABS_TOL`` when both magnitudes are below ``FD_ABS_FLOOR``.
    ``coords`` restricts the sweep to a subset of flat indices.
    """
    x0 = np.array(x, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != x0.shape:
        raise ShapeMismatch(f"gradient shape {grad.shape} vs point shape {x0.shape}")

    def eval_plain(v: Array) -> float:
        out = np.asarray(f(v), dtype=np.float64)
        if out.size != 1:
            raise ShapeMismatch("finite_diff_check needs a scalar-valued function")
        return float(out.reshape(()))

    if not np.isfinite(eval_plain(x0)):
        raise NonFiniteGradient("function value is not finite at the check point")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("analytic gradient contains non-finite entries")

    indices: Iterable[int] = range(x0.size) if coords is None else coords
    checks: list[CoordinateCheck] = []
    shifted = x0.copy()
    for i in indices:
        shifted.flat[i] = x0.flat[i] + h
        f_plus = eval_plain(shifted)
        shifted.flat[i] = x0.flat[i] - h
        f_minus = eval_plain(shifted)
        shifted.flat[i] = x0.flat[i]
        numeric = (f_plus - f_minus) / (2.0 * h)
        if not np.isfinite(numeric):
            raise NonFiniteGradient(f"central difference non-finite at index {i}")
        analytic = float(grad.flat[i])
        diff = abs(analytic - numeric)
        if abs(analytic) < FD_ABS_FLOOR and abs(numeric) < FD_ABS_FLOOR:
            error, ok = diff, diff <= FD_ABS_TOL
        else:
            error = diff / max(abs(analytic), abs(numeric))
            ok = error <= tol
        checks.append(CoordinateCheck(int(i), analytic, numeric, error, ok))

    if not checks:
        return FiniteDiffReport(0, 0.0, -1, True)
    worst = max(checks, key=lambda c: c.error)
    return FiniteDiffReport(
        n_checked=len(checks),
        max_error=worst.error,
        worst_index=worst.index,
        passed=all(c.passed for c in checks),
        failures=[c for c in checks if not c.passed],
    )
