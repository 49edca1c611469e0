"""Spans recorded at the program's layer boundaries, from outside the program.

`Tracer.install` replaces a module attribute (for example
`centro_spectra.harness.sample_centrosymmetric`) with a wrapper that records
one span per call: name, optional tag, start, end and parent span.  Every
module that imported a function by name holds its own binding, so a layer
boundary is one or more (module, attribute) targets.  Spans stay in memory
until the run ends.  The trial engine must run at threads=1 while a tracer
is installed: the parent of a span is the innermost open span.
"""

from __future__ import annotations

import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, tag, start, end, parent index or -1]
        self._open = []
        self._installed = []

    def wrap(self, name, fn, tag=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, None if tag is None else tag(*args, **kwargs), 0.0, 0.0,
                    open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                open_.pop()

        return traced

    def install(self, targets):
        """targets: iterable of (module, attribute, span name[, tag function])."""
        for module, attr, name, *tag in targets:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, *tag))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()


def durations(spans, name, tag=None):
    return [s[3] - s[2] for s in spans if s[0] == name and (tag is None or s[1] == tag)]


def median_of(spans, name, tag=None, scale=1.0):
    values = durations(spans, name, tag)
    return statistics.median(values) * scale if values else None


def children_sum(spans, parent_name, child_names):
    """Per span named parent_name: total duration of its direct children
    whose names are in child_names."""
    totals = {i: 0.0 for i, s in enumerate(spans) if s[0] == parent_name}
    for s in spans:
        if s[4] in totals and s[0] in child_names:
            totals[s[4]] += s[3] - s[2]
    return list(totals.values())


def grouped_sum(spans, group_name, member_names):
    """Split spans in start order at each span named group_name and total
    the members of each group (the trial engine has no per-trial function
    to wrap, so a trial is everything from one sample to the next)."""
    groups = []
    for s in sorted(spans, key=lambda s: s[2]):
        if s[0] == group_name:
            groups.append(0.0)
        elif groups and s[0] in member_names:
            groups[-1] += s[3] - s[2]
    return groups


def self_times(spans):
    """Self time per layer (the part of a name before the first dot): span
    duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    per_layer = {}
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + (s[3] - s[2]) - child_time[i]
    return per_layer
