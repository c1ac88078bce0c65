"""Span recording for the traced benchmark run.

The program is not changed: while a ``traced(tracer)`` block is active, the
public functions that ``linkcert.cli`` imports (and the ``validate_metric``
that ``linkcert.instance_lab`` calls) are replaced by wrappers that open a
span, call the original, close the span and read work counts off the
returned object.  Spans are kept in memory; ``Tracer.to_json`` writes them
out once the run is over.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int  # index of the enclosing span, -1 at top level
    counts: dict = field(default_factory=dict)


class Tracer:
    """Nested spans of one single-threaded pass, in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str, t: float | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter() if t is None else t,
                               None, parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, t: float | None = None) -> None:
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self.spans[idx].end = time.perf_counter() if t is None else t

    def wrap(self, name: str | Callable, fn: Callable,
             count: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``name`` may be a function of the call args."""
        def wrapper(*args, **kwargs):
            idx = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx].counts = count(result, *args, **kwargs)
            return result
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s.name] += (s.end - s.start) - c
        return dict(out)

    def counts(self) -> dict[str, int]:
        """Integer work counts summed over all spans."""
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            for key, v in s.counts.items():
                if isinstance(v, int):
                    out[key] += v
        return dict(out)

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent,
                 "counts": {k: v for k, v in s.counts.items() if isinstance(v, int)}}
                for s in self.spans]


def _count_oracle(res, score, D, k, *a, **kw):
    # "pair" identifies the (instance, k) question, so a caller that asks the
    # same question twice shows up as wasted partitions.
    return {"partitions": res.enumerated, "pair": (D.packed.tobytes(), D.n, k)}


@contextmanager
def traced(tracer: Tracer):
    """Swap the wrapped functions in for the duration of the block."""
    import linkcert.cli as cli
    import linkcert.instance_lab as instance_lab

    targets = [
        (cli, "run_linkage",
         lambda method, *a, **kw: f"linkage_engine.run_linkage.{method}",
         lambda dg, *a, **kw: {"merges": len(dg.merges), "linkage_calls": 1}),
        (cli, "extract_clustering", "linkage_engine.extract_clustering", None),
        (cli, "opt_score", "opt_oracles.opt_score", _count_oracle),
        (cli, "alg1_trace", "family_certificates.alg1_trace",
         lambda t, *a, **kw: {"families": len(t.forest),
                              "alg1_assertions": sum(t.assertion_counts)}),
        (cli, "alg1_bound", "family_certificates.alg1_bound", None),
        (cli, "alg2_trace", "graph_certificates.alg2_trace",
         lambda t, *a, **kw: {"spanning_certs": len(t.spanning_certs),
                              "alg2_assertions": sum(t.assertion_counts)}),
        (cli, "alg2_bound", "graph_certificates.alg2_bound", None),
        (cli, "load_instance", "metric_core.load_instance", None),
        (cli, "load_target", "instance_lab.load_target", None),
        (cli, "clustering_score", "metric_core.clustering_score", None),
        (cli, "gen_single_link_adversary",
         "instance_lab.gen_single_link_adversary", None),
        (instance_lab, "validate_metric", "metric_core.validate_metric", None),
    ]
    saved = []
    try:
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
