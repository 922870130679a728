"""In-memory span tracing from outside the program, plus the statistics
the benchmark reports from spans.

A ``Tracer`` wraps public functions at the place their caller looks
them up (a module attribute or a class attribute), so the program's own
code is untouched. Each call of a wrapped function records one span:
name, start, end, the index of the enclosing span, and a small ``info``
dict with shapes or flavor. Spans stay in memory until ``dump``.

Stdlib only, so the self-tests can import it without numpy.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

# Percentiles the tail rule picks from, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; ``restore`` unwraps them all."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, info: dict | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               info=info or {}))
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner: object, attr: str, name: str,
             describe: Callable[..., dict] | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        The wrapper records nothing while ``enabled`` is false, so traced
        and untraced calls can alternate in one process.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            index = self.open(name, describe(*args, **kwargs) if describe else None)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "info": span.info}, sort_keys=True) + "\n")


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(index)
    return kids


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    kids = children_of(spans)
    out = []
    for index, span in enumerate(spans):
        child = [(spans[k].start, spans[k].end) for k in kids.get(index, ())]
        out.append(span.duration - covered(child, span.start, span.end))
    return out


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it."""
    kids = children_of(spans)
    out, todo = [], [root]
    while todo:
        index = todo.pop()
        out.append(index)
        todo.extend(kids.get(index, ()))
    return sorted(out)


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_SAMPLES samples beyond it.

    Falls back to the median when even p50 has fewer beyond it, so a
    small sample reports its median as its tail rather than an extreme.
    """
    best = PERCENTILE_LADDER[0]
    for q in PERCENTILE_LADDER:
        # n * (100 - q) / 100 >= TAIL_SAMPLES, in integers (q has one decimal)
        if n * (1000 - round(q * 10)) >= TAIL_SAMPLES * 1000:
            best = q
    return best


def distribution(values: list[float]) -> dict[str, float]:
    """Median, tail by the rule above, the tail's percentile, sample count."""
    if not values:
        return {"p50": 0.0, "tail": 0.0, "tail_q": 0.0, "n": 0}
    q = tail_percentile(len(values))
    return {"p50": percentile(values, 50.0), "tail": percentile(values, q),
            "tail_q": q, "n": len(values)}
