"""Spans around relchern's public functions, built from the benchmark alone.

:class:`Tracer` wraps the functions and methods listed in :data:`TARGETS`.
Each call becomes a span ``[name, parent, start_ns, end_ns, job]`` kept in
memory; the tracer writes them out once, at the end.  A wrapper replaces the
original everywhere the package binds it: every ``relchern`` module
namespace that imported the function (``expand_ratio`` lives in both
``ring`` and ``pushforward``), and every class attribute that aliases the
method (``__rmul__`` is ``__mul__``).  A target the package no longer has is
skipped, and its metrics read 0.

:func:`layer_metrics` turns the spans of one pass over a workload's job mix
into the per-layer metrics named in ``BENCHMARK.json``.

This module imports nothing from relchern at import time;
:meth:`Tracer.install` imports the target modules.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute or Class.attribute)
TARGETS = (
    ("ring.mul", "relchern.ring", "ChowPoly.__mul__"),
    ("ring.add", "relchern.ring", "ChowPoly.__add__"),
    ("ring.add", "relchern.ring", "ChowPoly.__sub__"),
    ("ring.add", "relchern.ring", "ChowPoly.__rsub__"),
    ("ring.expand_ratio", "relchern.ring", "expand_ratio"),
    ("ring.substitute", "relchern.ring", "ChowPoly.substitute"),
    ("ring.component", "relchern.ring", "ChowPoly.component"),
    ("ring.component", "relchern.ring", "ChowPoly.truncate"),
    ("pushforward.projclass_mul", "relchern.pushforward", "ProjClass.__mul__"),
    ("pushforward.projclass_inverse", "relchern.pushforward", "ProjClass.inverse"),
    ("pushforward.series", "relchern.pushforward", "pushforward_series"),
    ("pushforward.inv_chern", "relchern.pushforward", "inverse_total_chern"),
    ("pushforward.divided_difference", "relchern.pushforward",
     "divided_difference"),
    ("pushforward.closed_form", "relchern.pushforward", "pushforward_closed_form"),
    ("pushforward.normalize_twist", "relchern.pushforward", "normalize_twist"),
    ("fibration.alpha_class", "relchern.fibration", "alpha_class"),
    ("fibration.q_class", "relchern.fibration", "q_class"),
    ("fibration.q_class_display", "relchern.fibration", "q_class_display"),
    ("fibration.relative_chern_class", "relchern.fibration",
     "relative_chern_class"),
    ("fibration.svw_components", "relchern.fibration", "svw_components"),
    ("fibration.euler_characteristic", "relchern.fibration",
     "euler_characteristic"),
    ("fibration.chern_by_strata", "relchern.fibration",
     "FermatFamily.chern_by_strata"),
    ("bases.chern_polynomial", "relchern.bases", "FormalBase.chern_polynomial"),
    ("bases.chern_polynomial", "relchern.bases",
     "ProjectiveSpaceBase.chern_polynomial"),
    ("bases.specialize", "relchern.bases", "specialize"),
    ("bases.integrate", "relchern.bases", "ProjectiveSpaceBase.integrate"),
    ("expressions.parse", "relchern.expressions", "parse_class_expr"),
    ("expressions.evaluate", "relchern.expressions", "evaluate"),
    ("render.text", "relchern.render", "to_text"),
    ("render.latex", "relchern.render", "to_latex"),
    ("render.json", "relchern.render", "class_to_json"),
    ("cli.main", "relchern.cli", "main"),
)

# metric name -> unit; the per_layer list of BENCHMARK.json, in order
LAYER_METRICS = {
    "ring.mul.calls": "count",
    "ring.mul.self_s": "s",
    "ring.mul.term_pairs": "count",
    "ring.mul.kept_share": "ratio",
    "ring.add.self_s": "s",
    "ring.expand_ratio.calls": "count",
    "ring.expand_ratio.self_s": "s",
    "ring.substitute.self_s": "s",
    "ring.component.self_s": "s",
    "pushforward.projclass_mul.calls": "count",
    "pushforward.projclass_mul.self_s": "s",
    "pushforward.projclass_width_max": "coeffs",
    "pushforward.projclass_inverse.self_s": "s",
    "pushforward.series.self_s": "s",
    "pushforward.inv_chern.hit_share": "ratio",
    "pushforward.divided_difference.calls": "count",
    "pushforward.divided_difference.self_s": "s",
    "pushforward.closed_form.self_s": "s",
    "pushforward.normalize_twist.self_s": "s",
    "fibration.alpha_class.total_s": "s",
    "fibration.q_class.total_s": "s",
    "fibration.q_class_display.total_s": "s",
    "fibration.relative_chern_class.total_s": "s",
    "fibration.svw_components.total_s": "s",
    "fibration.euler_characteristic.total_s": "s",
    "fibration.chern_by_strata.total_s": "s",
    "bases.chern_polynomial.total_s": "s",
    "bases.specialize.total_s": "s",
    "bases.integrate.total_s": "s",
    "expressions.parse.total_s": "s",
    "expressions.evaluate.total_s": "s",
    "render.text.total_s": "s",
    "render.latex.total_s": "s",
    "render.json.total_s": "s",
    "render.output_bytes": "bytes",
    "cli.spawn_to_exit_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.contract_violations": "count",
    "trace.overhead_share": "ratio",
}


def _term_count(value):
    terms = getattr(value, "_terms", None)
    if terms is not None:
        return len(terms)
    if hasattr(value, "terms"):
        return len(value.terms())
    return 1 if value else 0  # an int or Fraction operand


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.stack = []
        self.job = -1
        self.counters = {"ring.mul.term_pairs": 0, "ring.mul.kept_terms": 0,
                         "pushforward.projclass_width_max": 0,
                         "render.output_bytes": 0}
        self._patched = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, hook=None):
        name_id = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, 0, 0, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- counters, recorded outside the span they belong to ----------------

    def _count_mul(self, args, result):
        if result is NotImplemented:
            return
        c = self.counters
        c["ring.mul.term_pairs"] += _term_count(args[0]) * _term_count(args[1])
        c["ring.mul.kept_terms"] += _term_count(result)

    def _count_width(self, args, result):
        widths = [len(getattr(a, "coeffs", ())) for a in args[:2]]
        c = self.counters
        c["pushforward.projclass_width_max"] = max(
            c["pushforward.projclass_width_max"], *widths)

    def _count_bytes(self, args, result):
        text = result if isinstance(result, str) else json.dumps(result)
        self.counters["render.output_bytes"] += len(text.encode("utf-8"))

    _HOOKS = {"ring.mul": "_count_mul",
              "pushforward.projclass_mul": "_count_width",
              "render.text": "_count_bytes", "render.latex": "_count_bytes",
              "render.json": "_count_bytes"}

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every target; returns the names of targets not found."""
        missing = []
        wrappers = {}
        for name, module_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = (vars(owner).get(leaf) if isinstance(owner, type)
                        else getattr(owner, leaf, None))
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            hook = getattr(self, self._HOOKS[name]) if name in self._HOOKS else None
            wrappers[id(original)] = (original,
                                      self.wrap(name, original, hook), owner)
        packages = [m for n, m in list(sys.modules.items())
                    if m is not None and n.split(".")[0] == "relchern"]
        for original, wrapper, owner in wrappers.values():
            homes = [owner] if isinstance(owner, type) else packages
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, key, wrapper)
                        self._patched.append((home, key, original))
        return missing

    def uninstall(self):
        for home, key, original in reversed(self._patched):
            setattr(home, key, original)
        self._patched.clear()

    def dump(self, path, extra=None):
        doc = {"names": self.names, "spans": self.spans,
               "counters": self.counters}
        doc.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def self_times(spans):
    """Self time of each span, in ns: its duration minus its children's."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def outermost(spans):
    """For each span, whether no ancestor has the same name (so recursive
    calls are counted once in a total)."""
    flags = []
    for s in spans:
        parent = s[1]
        while parent >= 0 and spans[parent][0] != s[0]:
            parent = spans[parent][1]
        flags.append(parent < 0)
    return flags


def layer_metrics(names, spans, counters, extra):
    """Per-layer metrics of one traced pass; ``extra`` supplies the values
    measured outside the spans (the ``cli.*`` parent-side figures and
    ``trace.overhead_share``)."""
    own = self_times(spans)
    outer = outermost(spans)
    calls, self_s, total_s = {}, {}, {}
    for s, t, top in zip(spans, own, outer):
        name = names[s[0]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0) + t
        if top:
            total_s[name] = total_s.get(name, 0) + s[3] - s[2]
    with_expand = {s[1] for s in spans if names[s[0]] == "ring.expand_ratio"}
    inv = [i for i, s in enumerate(spans) if names[s[0]] == "pushforward.inv_chern"]
    hits = sum(1 for i in inv if i not in with_expand)
    pairs = counters["ring.mul.term_pairs"]

    out = {}
    for metric in LAYER_METRICS:
        layer, _, what = metric.rpartition(".")
        if what == "calls":
            out[metric] = calls.get(layer, 0)
        elif what == "self_s":
            out[metric] = self_s.get(layer, 0) / 1e9
        elif what == "total_s":
            out[metric] = total_s.get(layer, 0) / 1e9
    out["ring.mul.term_pairs"] = pairs
    out["ring.mul.kept_share"] = (counters["ring.mul.kept_terms"] / pairs
                                  if pairs else 0.0)
    out["pushforward.projclass_width_max"] = \
        counters["pushforward.projclass_width_max"]
    out["pushforward.inv_chern.hit_share"] = hits / len(inv) if inv else 0.0
    out["render.output_bytes"] = counters["render.output_bytes"]
    for metric in ("cli.spawn_to_exit_s", "cli.import_s",
                   "cli.contract_violations", "trace.overhead_share"):
        out[metric] = extra.get(metric, 0)
    return out


def merge(names, spans, counters, doc, job):
    """Append a child process's dumped spans to ``spans`` as ``job``."""
    ids = []
    for name in doc["names"]:
        if name not in names:
            names.append(name)
        ids.append(names.index(name))
    offset = len(spans)
    for name_id, parent, start, end, _ in doc["spans"]:
        spans.append([ids[name_id], parent + offset if parent >= 0 else -1,
                      start, end, job])
    for key, value in doc["counters"].items():
        if key == "pushforward.projclass_width_max":
            counters[key] = max(counters[key], value)
        else:
            counters[key] += value


def job_self_sums(spans, jobs):
    """Summed self time (ns) of the spans of each job index in ``jobs``."""
    own = self_times(spans)
    sums = dict.fromkeys(jobs, 0)
    for s, t in zip(spans, own):
        if s[4] in sums:
            sums[s[4]] += t
    return sums
