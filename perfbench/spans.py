"""In-memory span tracer installed around calls into a package's modules.

While :func:`traced_package` is active, every public function defined in a
module of the package is replaced, on every module of the package that binds
it (its own module and any module that imported the name), by a wrapper that
records one span per call: ``(id, parent, name, start, end)``.  A call from
inside the defining module itself is passed straight through, so spans mark
calls *into* a module, which is where the layers meet.  The package's files
are not edited; leaving the context restores every binding.

The tracer is single-threaded: the parent of a span is the innermost span
open on the one stack.  Per-call work counts are recorded at the same
boundary by counter functions ``counter(args, kwargs, result) -> dict``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Tuple

Span = Tuple[int, int, str, float, float]  # id, parent (-1 for a root), name, start, end
Counter = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    """Spans and per-name work counts of one traced interval."""

    def __init__(self, counters: Dict[str, Counter] = None):
        self.spans: List[Span] = []
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counters = counters or {}
        self._stack: List[int] = []
        self._next_id = 0

    def wrap(self, name: str, owner: str, fn: Callable) -> Callable:
        """Return ``fn`` recording a span named ``name`` for calls from
        outside module ``owner``."""
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = self.counters.get(name)
        clock, caller = time.perf_counter, sys._getframe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if caller(1).f_globals.get("__name__") == owner:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[name][key] += value
            return result

        return traced


@contextmanager
def traced_package(tracer: Tracer, package: str):
    """Route calls into the public functions of ``package``'s loaded modules
    through ``tracer``; span names are ``<module path below package>.<function>``."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    wrappers = {}
    for mod in modules:
        layer = mod.__name__[len(package) + 1:] or package
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", mod.__name__, obj)
    patched = []
    try:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    patched.append((mod, attr, obj))
        yield tracer
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of each span: its duration minus the union of its
    children's intervals within it."""
    spans = list(spans)
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {sid: (end - start) - union_length(children.get(sid, ()), start, end)
            for sid, _, _, start, end in spans}
