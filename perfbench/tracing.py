"""In-memory span tracer that wraps the package's functions at their module
bindings.

``install`` replaces a function by a recording wrapper in every
``stepturn`` module that binds it, so calls made through module globals
(``fit`` -> ``abc_reject`` -> ``standardized_distances``, ``neuralnet_adjust``
-> ``nnet.train`` -> ``loss_and_grad``) are seen without touching ``src/``.
Spans record name, layer, start, end and parent; they stay in memory and
are summarised after the traced pass. Spans from fork children would be
lost, so traced passes run the program with one worker.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("movement", "summaries", "inference", "nnet", "experiments", "io", "cli")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "tag")

    def __init__(self, name, layer, start, parent):
        self.name, self.layer, self.start, self.parent = name, layer, start, parent
        self.end = start
        self.tag = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Spans and boundary counts for one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.calls_under = Counter()  # (counted name, id of enclosing span) -> calls
        self._restore = []

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, fn, name, layer, tag):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, layer, time.perf_counter(), parent)
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if tag is not None:
                span.tag = tag(args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stack:
                tracer.calls_under[(name, id(tracer.stack[-1]))] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, owner, attr, layer, tag=None, count_only=False):
        """Wrap ``owner.attr`` wherever a ``stepturn`` module binds it.

        ``owner`` is a module or a class; a class attribute is replaced on
        the class itself. ``tag(args, result)`` returns a cheap annotation
        stored on the span.
        """
        original = getattr(owner, attr)
        name = f"{layer}.{attr}"
        wrapper = (self._count_wrapper(original, name) if count_only
                   else self._span_wrapper(original, name, layer, tag))
        targets = [owner] if isinstance(owner, type) else [
            module for key, module in sys.modules.items()
            if module is not None and (key == "stepturn" or key.startswith("stepturn."))
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._restore.append((target, key, value))
                    setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    # -- summaries ----------------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def calls_in(self, counted, span):
        return self.calls_under[(counted, id(span))]

    def self_times(self):
        """Self time (s) per span: its duration minus its children's."""
        child_total = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_total[id(span.parent)] += span.duration
        return {id(s): s.duration - child_total[id(s)] for s in self.spans}

    def layer_report(self, wall_s):
        """Self time per layer, the uncovered remainder and the self-check.

        The check requires every child span to lie inside its parent and
        the per-layer self times plus the time no span covers to add up
        to the traced wall time.
        """
        self_s = self.self_times()
        per_layer = {layer: 0.0 for layer in LAYERS}
        nested = True
        for span in self.spans:
            per_layer[span.layer] += self_s[id(span)]
            parent = span.parent
            if parent is not None and not (parent.start <= span.start <= span.end <= parent.end):
                nested = False
        covered = sum(s.duration for s in self.spans if s.parent is None)
        uncovered = wall_s - covered
        residual = sum(per_layer.values()) + uncovered - wall_s
        ok = nested and uncovered >= 0.0 and abs(residual) <= 1e-9 * max(wall_s, 1.0)
        return per_layer, uncovered, residual, ok
