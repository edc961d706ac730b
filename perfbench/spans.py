"""In-memory spans around the benchmark's calls into orihex.

A span records a name (``<layer>.<function>``), start and end times, the
span that was open when it began and the operation it belongs to. Spans
are kept in a list and written out once, when the run ends. Nothing here
reaches inside the package: spans wrap calls made from benchmark code.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

#: the package's modules, in the order the report lists them
LAYERS = ("tournaments", "hexgrid", "digraph", "hexcolor", "homomorphism", "verify", "cli")


class NullTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    traced = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, amount):
        pass

    def operation(self, op_id):
        return self.span("bench.op")


class Tracer(NullTracer):
    traced = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._op_id: int | None = None

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self._op_id,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name, amount):
        self.counts[name] += amount

    @contextmanager
    def operation(self, op_id):
        self._op_id = op_id
        try:
            with self.span("bench.op"):
                yield
        finally:
            self._op_id = None

    def inclusive_by_name(self) -> dict[str, float]:
        """Summed duration of the spans of each name."""
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s["name"]] += s["end"] - s["start"]
        return dict(totals)

    def self_by_layer(self) -> dict[str, float]:
        """Per layer, span durations minus the part their child spans cover.

        Spans named ``bench.*`` and ``setup.*`` belong to the benchmark, not
        to a layer of the package, and are left out.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals = {layer: 0.0 for layer in LAYERS}
        for s, covered in zip(self.spans, child_time):
            layer = s["name"].split(".", 1)[0]
            if layer in totals:
                totals[layer] += s["end"] - s["start"] - covered
        return totals

    def traced_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)


def span_cost_s(calls: int = 2000, rounds: int = 7) -> float:
    """What one span adds to a call, measured in this process.

    Blocks of `calls` calls of a no-op, with and without a span around
    each, alternate for `rounds` rounds; the fastest block of each kind is
    kept, since load on the machine only ever slows a block down.
    """
    def noop():
        return None

    tr = Tracer()
    fastest = {True: float("inf"), False: float("inf")}
    for _ in range(rounds):
        for traced in (False, True):
            tr.spans.clear()
            start = time.perf_counter()
            if traced:
                for _ in range(calls):
                    tr.call("bench.noop", noop)
            else:
                for _ in range(calls):
                    noop()
            fastest[traced] = min(fastest[traced], time.perf_counter() - start)
    return (fastest[True] - fastest[False]) / calls
