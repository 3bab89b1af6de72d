"""In-memory spans for the traced run.

A span records its name, start, end, the index of the span that was open
when it started (its parent, -1 for none) and a few attributes.  Spans are
kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, attrs]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _matching(self, name: str, match: dict):
        for n, start, end, _, attrs in self.spans:
            if n == name and end is not None and all(attrs.get(k) == v for k, v in match.items()):
                yield end - start, attrs

    def durations(self, name: str, **match) -> list[float]:
        """Durations of the finished spans called ``name`` whose attributes match."""
        return [d for d, _ in self._matching(name, match)]

    def durations_by(self, name: str, key: str, **match) -> dict:
        """The same, grouped by the value of attribute ``key``."""
        groups: dict = {}
        for d, attrs in self._matching(name, match):
            groups.setdefault(attrs[key], []).append(d)
        return groups

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time of its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump(
                {
                    "self_time_s": self.self_times(),
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p, **attrs}
                        for n, s, e, p, attrs in self.spans
                    ],
                },
                out,
            )


class NullTracer:
    """Stands in for a Tracer in the untraced passes."""

    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null


NULL_TRACER = NullTracer()
