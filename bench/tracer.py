"""Counts and spans around mvalg's public functions, installed from outside.

The tracer never edits mvalg's source.  It replaces a function object by a
wrapper in *every* ``mvalg`` module that holds it, so a name bound elsewhere
with ``from .x import y`` (``mvalg.verify.enumerate_homs``,
``mvalg.terms._oplus``, the re-exports in ``mvalg/__init__``) is wrapped too,
and it replaces methods on their class (``FiniteMV.contains``,
``Hom.__call__``), so every instance sees the wrapper.

Two kinds of wrapper:

* counters, for functions called once per element.  A span per call would
  distort them; their time shows as self time of the enclosing span.
* spans, for coarser calls: name, start, end, span id and parent span id,
  kept in memory and written out by the caller when the run ends.  A span
  opened while another span of the same name is open (recursion) is not
  recorded again.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter


def _mvalg_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mvalg" or n.startswith("mvalg."))]


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start_ns, end_ns, id, parent id
        self.ratios: dict[str, list[float]] = {}  # name -> [numerator, denominator]
        self._stack: list[tuple[str, int]] = []
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []
        self._wrapped: list = []  # functions replaced by patch_function

    # -- spans ------------------------------------------------------------------

    def begin(self, name: str) -> tuple | None:
        if any(open_name == name for open_name, _ in self._stack):
            return None
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        self._stack.append((name, span_id))
        return name, time.perf_counter_ns(), span_id, parent

    def end(self, token: tuple | None) -> None:
        if token is None:
            return
        end_ns = time.perf_counter_ns()
        name, start_ns, span_id, parent = token
        self._stack.pop()
        self.spans.append((name, start_ns, end_ns, span_id, parent))

    @contextlib.contextmanager
    def span(self, name: str):
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    def add_ratio(self, name: str, numerator: float, denominator: float) -> None:
        acc = self.ratios.setdefault(name, [0.0, 0.0])
        acc[0] += numerator
        acc[1] += denominator

    # -- wrappers -----------------------------------------------------------------

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_iter(self, name: str, fn):
        """Counts the items a generator-returning function yields."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def spanned(self, name: str, fn, ratio: tuple | None = None):
        """``ratio`` is (metric, counter, numerator_of_result): the wrapper adds
        numerator_of_result(result) over the growth of ``counter`` inside the
        span to the ratio ``metric``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.begin(name)
            before = counts[ratio[1]] if ratio else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(token)
            if ratio:
                self.add_ratio(ratio[0], ratio[2](result), counts[ratio[1]] - before)
            return result

        return wrapper

    # -- installing -----------------------------------------------------------------

    def replace(self, owner, name: str, new) -> None:
        """Set ``owner.name`` (or ``owner[name]`` for a dict) until uninstall."""
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = new
        else:
            self._undo.append((owner, name, vars(owner)[name]))
            setattr(owner, name, new)

    def patch_function(self, module: str, attr: str, make) -> None:
        """Wrap ``module.attr`` in every loaded mvalg module that binds the
        same object."""
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        self._wrapped.append(original)
        for mod in _mvalg_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, name, wrapped)

    def patch_method(self, cls: type, attr: str, make) -> None:
        self.replace(cls, attr, make(vars(cls)[attr]))

    def stale_bindings(self) -> list[str]:
        """mvalg module attributes that still hold a function this tracer
        wrapped (a binding the patching missed)."""
        return [
            f"{mod.__name__}.{name}"
            for mod in _mvalg_modules()
            for name, value in vars(mod).items()
            if any(value is original for original in self._wrapped)
        ]

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()
        self._wrapped.clear()

    # -- summaries --------------------------------------------------------------------

    def span_totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.  Self time is the span's
        duration minus the time its direct children cover."""
        inclusive: dict[str, float] = Counter()
        child_ns: dict[int, int] = Counter()
        for name, start, end, _, parent in self.spans:
            inclusive[name] += (end - start) / 1e9
            if parent:
                child_ns[parent] += end - start
        self_s: dict[str, float] = Counter()
        for name, start, end, span_id, _ in self.spans:
            self_s[name] += (end - start - child_ns[span_id]) / 1e9
        return dict(inclusive), dict(self_s)

    def excluding(self, name: str, child_prefix: str) -> float:
        """Seconds in spans ``name`` minus the time their direct children whose
        names start with ``child_prefix`` cover."""
        ids = {span_id: end - start for n, start, end, span_id, _ in self.spans if n == name}
        covered = sum(
            end - start for n, start, end, _, parent in self.spans
            if parent in ids and n.startswith(child_prefix)
        )
        return (sum(ids.values()) - covered) / 1e9

    def ratio(self, name: str) -> float:
        num, den = self.ratios.get(name, (0.0, 0.0))
        return num / den if den else 0.0
