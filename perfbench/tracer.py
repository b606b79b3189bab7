"""Outside-in tracing of fibrelab's layers.

:meth:`Tracer.install` replaces every entry point listed in
:mod:`layers` with a wrapper that records a span (function, start, end,
parent span).  A function imported into several modules
(``from .catcolim import colimit_cat`` binds copies in ``cli``,
``formulas`` and ``diagcat``) is replaced wherever a ``fibrelab`` module
holds it; a method is replaced on its class.  Spans are kept in memory and
summarised or written out at the end.

Work counts are taken in hooks after a span closes.  Hook time is taken
off the tracer's clock, so it shows in no span and in no traced op time.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

from layers import LAYERS


def _composable_triples(c):
    """Composable triples (h, g, f) of a category: for every g: b -> c,
    the morphisms into b times the morphisms out of c."""
    into, out_of = Counter(), Counter()
    for _, d, e in c.morphisms:
        out_of[d] += 1
        into[e] += 1
    return sum(into[d] * out_of[e] for _, d, e in c.morphisms)


def _count_check(counts, args, result, exc):
    counts["fincat.check.triples"] += _composable_triples(args[0])


def _count_limit_set(counts, args, result, exc):
    if exc is not None:
        counts["finset.limit_set.refusals"] += 1
        return
    x = args[0]
    tuples = 1
    for a in x.shape.objects:
        tuples *= len(x.sets[a])
    counts["finset.limit_set.tuples"] += tuples
    counts["finset.limit_set.apex"] += len(result.apex)


def _count_ran(counts, args, result, exc):
    if exc is not None:
        return
    f, x = args
    for j in f.target.objects:
        tuples = 1
        for i in f.source.objects:
            tuples *= len(x.sets[i]) ** len(f.target.hom(j, f.ob(i)))
        counts["kan.ran.tuples"] += tuples
        counts["kan.ran.families"] += len(result.extension.sets[j])


def _count_groth_co(counts, args, result, exc):
    if exc is None:
        counts["grothendieck.groth_co.total_morphisms"] += len(result.total.morphisms)


def _count_found(name):
    def hook(counts, args, result, exc):
        if exc is None:
            counts[name] += len(result)

    return hook


def _count_colimit_cat(counts, args, result, exc):
    key = "catcolim.colimit_cat."
    if exc is not None:
        if hasattr(exc, "trace"):
            counts[key + "refusals"] += 1
            counts[key + "trace_len"] += len(exc.trace)
        return
    stats = result.saturation_stats
    counts[key + "morphism_classes"] += stats["morphism_classes"]
    counts[key + "discovered_words"] += stats["discovered_words"]
    counts[key + "iterations"] += stats["iterations"]
    counts[key + "trace_len"] += len(stats["growth_trace"])


COUNT_HOOKS = {
    "fincat.check": _count_check,
    "finset.limit_set": _count_limit_set,
    "kan.ran": _count_ran,
    "grothendieck.groth_co": _count_groth_co,
    "fibrations.enumerate_functors": _count_found("fibrations.enumerate_functors.found"),
    "fibrations.enumerate_cones": _count_found("fibrations.enumerate_cones.found"),
    "catcolim.colimit_cat": _count_colimit_cat,
}


class Tracer:
    def __init__(self):
        # span name index -> "layer.fn"
        self.names = ["%s.%s" % (layer, fn) for layer, fns in LAYERS.items() for fn, _ in fns]
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.stack = []
        self.counts = Counter()
        self.excluded = 0.0  # seconds spent in count hooks
        self.active = False
        self._patched = []  # (owner, attribute, original)

    def clock(self):
        return perf_counter() - self.excluded

    def _wrap(self, index, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [index, tracer.clock(), 0.0, parent]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = tracer.clock()
                tracer.stack.pop()
                if hook is not None:
                    started = perf_counter()
                    hook(tracer.counts, args, result, exc)
                    tracer.excluded += perf_counter() - started

        return traced

    def install(self):
        modules = {
            layer: importlib.import_module("fibrelab." + layer) for layer in LAYERS
        }
        holders = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fibrelab" or name.startswith("fibrelab."))
        ]
        entries = [(layer, target) for layer, fns in LAYERS.items() for _, target in fns]
        for index, (layer, target) in enumerate(entries):
            hook = COUNT_HOOKS.get(self.names[index])
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(modules[layer], cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(index, original, hook))
                continue
            original = getattr(modules[layer], target)
            wrapper = self._wrap(index, original, hook)
            for module in holders:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def dump(self, path, **extra):
        """Write the spans and counts out, for a parent process to merge."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "excluded_s": self.excluded,
                    **extra,
                },
                fh,
            )


def self_times(names, spans):
    """Per-name call counts and self seconds: a span's duration minus the
    durations of the spans it directly caused."""
    calls, self_s = Counter(), Counter()
    for index, start, end, parent in spans:
        duration = end - start
        calls[names[index]] += 1
        self_s[names[index]] += duration
        if parent >= 0:
            self_s[names[spans[parent][0]]] -= duration
    return calls, self_s
