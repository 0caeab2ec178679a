"""Spans around calls into varsparse's public functions, kept in memory.

A span records its name, its parent span, the phase it ran in ("setup" or
"pass") and wall and CPU clocks at start and end. CPU is the calling
thread's, so the resident-memory sampler below never counts towards a layer.
A layer's self time is its span's time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


class RssSampler:
    """Polls this process's resident size on a thread; keeps the largest rise."""

    def __init__(self, interval_s: float = 0.002):
        self.interval_s = interval_s
        self.rise_mb = 0.0

    def __enter__(self) -> "RssSampler":
        self._base = self._peak = rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def _poll(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._peak = max(self._peak, rss_bytes())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._peak = max(self._peak, rss_bytes())
        self.rise_mb = (self._peak - self._base) / 1e6


@dataclass
class Span:
    name: str
    parent: Optional[int]
    phase: str
    wall0: float
    cpu0: float
    wall1: float = 0.0
    cpu1: float = 0.0
    rss_rise_mb: Optional[float] = None

    @property
    def cpu_s(self) -> float:
        return self.cpu1 - self.cpu0


def replace_attr(stack: ExitStack, module, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Swap module.attr for make(original) until the stack closes."""
    original = getattr(module, attr)
    setattr(module, attr, functools.wraps(original)(make(original)))
    stack.callback(setattr, module, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, sample_rss: bool = False) -> Iterator[Span]:
        span = Span(name, self._open[-1] if self._open else None, self.phase,
                    time.perf_counter(), time.thread_time())
        self._open.append(len(self.spans))
        self.spans.append(span)
        sampler = RssSampler() if sample_rss else nullcontext()
        try:
            with sampler:
                yield span
        finally:
            span.cpu1, span.wall1 = time.thread_time(), time.perf_counter()
            self._open.pop()
            if sample_rss:
                span.rss_rise_mb = sampler.rise_mb

    def instrument(self, stack: ExitStack, module, attr: str, name: str,
                   sample_rss: bool = False) -> None:
        """Open a span around every call made through module.attr."""

        def make(original):
            def traced(*args, **kwargs):
                with self.span(name, sample_rss):
                    return original(*args, **kwargs)

            return traced

        replace_attr(stack, module, attr, make)

    def layer_cpu(self, phase: str) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self CPU seconds per span name over one phase."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] = child.get(span.parent, 0.0) + span.cpu_s
        own: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span.phase == phase:
                total[span.name] = total.get(span.name, 0.0) + span.cpu_s
                own[span.name] = own.get(span.name, 0.0) + span.cpu_s - child.get(i, 0.0)
        return total, own

    def to_dicts(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
