"""Span tracing around diffalg's public functions, from outside the program.

``Tracer.install()`` replaces every module binding of each traced function
(``diffalg.groebner.normal_form`` and ``diffalg.kernels.normal_form`` alike,
and the package's re-exports) with a wrapper that records a span: name,
parent span, start and end.  ``uninstall()`` puts the originals back.
Spans stay in memory; ``summary()`` turns them into per-layer metrics.

A traced name called inside a span of the same name (the path loaders of
``files`` call the text loaders) is folded into the outer span.
"""
from __future__ import annotations

import statistics
import sys
import time

# (span name, module under diffalg, attribute path)
TARGETS = [
    ("cli.run", "cli", "run"),
    ("files.load", "files", "load_ideal"),
    ("files.load", "files", "load_kernel"),
    ("files.load", "files", "load_ideal_text"),
    ("files.load", "files", "load_kernel_text"),
    ("dpoly.parse_poly", "dpoly", "parse_poly"),
    ("dpoly.print_poly", "dpoly", "print_poly"),
    ("dpoly.derivation_image", "dpoly", "derivation_image"),
    ("groebner.buchberger", "groebner", "buchberger"),
    ("groebner.normal_form", "groebner", "normal_form"),
    ("groebner.elimination_ideal", "groebner", "elimination_ideal"),
    ("groebner.radical_member", "groebner", "radical_member"),
    ("prolong.prolong_delta", "prolong", "prolong_delta"),
    ("kernels.kernel_prolong_once", "kernels", "kernel_prolong_once"),
    ("kernels.kernel_validate", "kernels", "kernel_validate"),
    ("kernels.is_zero_mod", "kernels", "KernelPresentation.is_zero_mod"),
    ("axioms.containment_check", "axioms", "containment_check"),
    ("axioms.compile_formula", "axioms", "compile_formula"),
]

# Per-layer metrics: (span name, statistic).  "calls" counts spans, "s" is
# inclusive seconds and "self_s" seconds not covered by child spans.
SPAN_METRICS = [
    ("groebner.buchberger", "calls"), ("groebner.buchberger", "self_s"),
    ("groebner.normal_form", "calls"), ("groebner.normal_form", "self_s"),
    ("groebner.elimination_ideal", "calls"),
    ("groebner.elimination_ideal", "self_s"),
    ("groebner.radical_member", "calls"), ("groebner.radical_member", "self_s"),
    ("kernels.kernel_prolong_once", "calls"),
    ("kernels.kernel_prolong_once", "self_s"),
    ("kernels.kernel_validate", "calls"), ("kernels.kernel_validate", "self_s"),
    ("kernels.is_zero_mod", "calls"), ("kernels.is_zero_mod", "self_s"),
    ("dpoly.parse_poly", "calls"), ("dpoly.parse_poly", "s"),
    ("files.load", "calls"), ("files.load", "self_s"),
    ("dpoly.print_poly", "calls"), ("dpoly.print_poly", "s"),
    ("cli.run", "calls"), ("cli.run", "self_s"),
    ("dpoly.derivation_image", "calls"), ("dpoly.derivation_image", "s"),
    ("prolong.prolong_delta", "calls"), ("prolong.prolong_delta", "s"),
    ("axioms.containment_check", "calls"),
    ("axioms.containment_check", "self_s"),
    ("axioms.compile_formula", "calls"), ("axioms.compile_formula", "s"),
]
# Counts derived from span parents and the notes below.
DERIVED_COUNTS = ["groebner.buchberger.gens_in", "groebner.buchberger.basis_out",
                  "groebner.buchberger.reductions", "kernels.saturation_builds"]


def _note_buchberger(args, result):
    return len(args[0]), len(result)


def _note_normal_form(args, result):
    return result.is_zero()


NOTES = {"groebner.buchberger": _note_buchberger,
         "groebner.normal_form": _note_normal_form}

# span fields
NAME, PARENT, START, END, NOTE = range(5)


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


PACKAGE = "diffalg"


class Tracer:
    """Records spans of one traced pass; install, run, uninstall, summary."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def install(self):
        """Patch every binding of each target in the loaded package."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        wrappers = {}
        for name, module, path in TARGETS:
            original = _resolve(sys.modules[PACKAGE + "." + module], path)
            wrappers[id(original)] = self._wrap(name, original)
        namespaces = []
        for mod in modules:
            namespaces.append(mod)
            namespaces.extend(
                obj for obj in vars(mod).values()
                if isinstance(obj, type)
                and obj.__module__.startswith(PACKAGE))
        seen = set()
        for ns in namespaces:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        return self

    def uninstall(self):
        while self._patches:
            ns, attr, value = self._patches.pop()
            setattr(ns, attr, value)
        self._stack.clear()

    def summary(self):
        """Per-layer counts and times of the recorded spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        calls, incl, self_ns = {}, {}, {}
        derived = dict.fromkeys(DERIVED_COUNTS, 0)
        zero_reductions = 0
        for idx, span in enumerate(spans):
            name = span[NAME]
            dur = span[END] - span[START]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[idx]
            parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
            if name == "groebner.buchberger":
                if span[NOTE] is not None:
                    derived["groebner.buchberger.gens_in"] += span[NOTE][0]
                    derived["groebner.buchberger.basis_out"] += span[NOTE][1]
                if parent == "kernels.is_zero_mod":
                    derived["kernels.saturation_builds"] += 1
            elif name == "groebner.normal_form" and \
                    parent == "groebner.buchberger":
                derived["groebner.buchberger.reductions"] += 1
                zero_reductions += span[NOTE] is True
        out = {}
        for name, stat in SPAN_METRICS:
            if stat == "calls":
                out[name + ".calls"] = calls.get(name, 0)
            elif stat == "s":
                out[name + ".s"] = incl.get(name, 0) / 1e9
            else:
                out[name + ".self_s"] = self_ns.get(name, 0) / 1e9
        out.update(derived)
        reductions = derived["groebner.buchberger.reductions"]
        out["groebner.buchberger.zero_reductions_ratio"] = (
            zero_reductions / reductions if reductions else 0.0)
        return out


def combine(summaries):
    """Counts from the first traced pass, times as medians over all."""
    out = dict(summaries[0])
    for key, value in out.items():
        if key.endswith((".s", ".self_s")):
            out[key] = statistics.median(s[key] for s in summaries)
    return out
