"""In-memory spans for the traced run, and the arithmetic over them.

A span records name, start, end, its parent's index and the process's
peak RSS (``ru_maxrss``) at both ends.  Spans stay in memory and are
written out once, when the traced run ends.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects nested spans; ``with tracer.span("nmf.fit"): ...``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "rss0_kib": _maxrss_kib(),
            "rss1_kib": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()
            record["rss1_kib"] = _maxrss_kib()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(duration(s) - covered)
    return out


def total(spans: list[dict], name: str) -> float:
    """Summed duration of every span with this name."""
    return sum(duration(s) for s in spans if s["name"] == name)


def pipeline_total(spans: list[dict]) -> float:
    """Summed duration of the top-level spans, leaving out ``probe.*`` spans.

    Probes time extra calls the traced run makes outside the pipeline.
    """
    return sum(duration(s) for s in spans
               if s["parent"] is None and not s["name"].startswith("probe."))


def rss_rise_mib(spans: list[dict], prefix: str) -> float:
    """Rise in peak RSS across the spans whose name starts with ``prefix``."""
    return sum(
        s["rss1_kib"] - s["rss0_kib"] for s in spans if s["name"].startswith(prefix)
    ) / 1024.0
