"""Outside-in layer trace of qrelent.

The tracer replaces each public function object of the package's
modules, wherever a ``qrelent`` module binds it, by a wrapper that
records a span (name, parent span, start, end).  Public classmethods
and methods are wrapped on their class, and ``numpy.linalg.eigh`` /
``eigvalsh`` on ``numpy.linalg``, which is where qrelent looks them up.
Private helpers are not wrapped, so their time counts toward the public
function that called them.

Spans of one operation are kept in memory and folded into per-name
totals when the operation ends: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy.linalg

MODULES = ("linop", "entropy", "mixing", "lueders", "stategen", "campaign", "matio", "cli")
EIGENSOLVERS = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][3] = clock()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"qrelent.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        packages = [m for n, m in sys.modules.items() if n == "qrelent" or n.startswith("qrelent.")]
        for mod in packages:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for attr in ("eigh", "eigvalsh"):
            self._patch(numpy.linalg, attr, self._wrap(f"numpy.linalg.{attr}", getattr(numpy.linalg, attr)))

    def _wrap_methods(self, short: str, cls: type) -> None:
        for attr, desc in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(desc, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, desc.__func__)))
            elif inspect.isfunction(desc):
                self._patch(cls, attr, self._wrap(name, desc))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def fold(self) -> int:
        """Fold the spans of the operation just finished into the totals.

        Returns the number of eigensolver calls the operation made.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for _name, parent, t0, t1 in spans:
            if parent >= 0:
                children[parent] += t1 - t0
        solves = 0
        for (name, _parent, t0, t1), child in zip(spans, children):
            agg = self.totals.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += (t1 - t0) - child
            if name in EIGENSOLVERS:
                solves += 1
        spans.clear()
        return solves
