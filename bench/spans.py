"""In-memory span recorder around the package's public functions.

Tracing lives entirely in the benchmark: :class:`Tracer` replaces public
module attributes of ``queueloss`` with timing wrappers and puts the
originals back afterwards. Calls made inside the package go through the
module globals, so nested calls (``loss_pdf`` -> ``laplace_invert``) are
recorded as child spans too. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from typing import Callable

#: Layers whose public functions are wrapped, in package order.
LAYERS = ("discrete", "fokker_planck", "numerics", "simulate", "stats", "cli")

#: Scalar helpers called once per contour node; wrapping them would make the
#: trace measure itself.
UNWRAPPED = frozenset({"coth", "cosh_ratio", "sinh_ratio"})


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    failed: bool = False
    info: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def public_functions(module) -> list[str]:
    """Names of the plain functions a module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        name for name in names
        if name not in UNWRAPPED
        and inspect.isfunction(getattr(module, name, None))
        and getattr(module, name).__module__ == module.__name__
    ]


class Tracer:
    """Wraps the public functions of the given modules while installed.

    ``spans`` holds one :class:`Span` per call in start order; ``parent`` is
    the index of the innermost span open when it started. ``extractors``
    maps a span name to ``f(args, kwargs, result)`` whose return value is
    stored as the span's ``info`` (a size or key read from the call), so no
    argument or result is kept alive. An extractor that raises stores None.
    """

    def __init__(self, modules: dict[str, object],
                 extractors: dict[str, Callable] | None = None):
        self.modules = modules
        self.extractors = extractors or {}
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        extract = self.extractors.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(qualname, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_time += span.end - span.start
                if extract is not None:
                    try:
                        span.info = extract(args, kwargs, result)
                    except Exception:  # noqa: BLE001 - a changed signature reads as no data
                        span.info = None

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module in self.modules.items():
            for name in public_functions(module):
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Spans recorded since the last call, in start order."""
        if self._stack:
            raise RuntimeError("spans are still open")
        out = self.spans[:]
        self.spans.clear()
        return out
