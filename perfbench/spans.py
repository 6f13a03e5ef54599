"""Span bookkeeping shared by the traced launcher and the benchmark runner.

A span is (name, start_ns, end_ns, parent) where parent is the index of the
enclosing span in the same list, or None.  Names are `<layer>.<function>`.
"""
from __future__ import annotations

from collections import defaultdict


def self_times(spans):
    """Seconds of each span not covered by its child spans.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or runaway children never count twice.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start - covered) / 1e9)
    return out


def summarize(spans):
    """Per span name: total self seconds and number of calls."""
    totals = defaultdict(lambda: [0.0, 0])
    for (name, *_), self_s in zip(spans, self_times(spans)):
        totals[name][0] += self_s
        totals[name][1] += 1
    return {name: {"self_s": s, "calls": n} for name, (s, n) in totals.items()}
