"""Span tracing of bquiver's layers, installed from outside the package.

``install`` wraps the public functions, the public methods and the
constructors of the classes of each layer module (named ``<module>.<name>``,
constructors ``<module>.<Class>.init``), and rebinds every module attribute
that still points at an original, so names other modules imported with
``from .x import y`` are traced too.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, call]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``call`` the id of the CLI call it
belongs to.  Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "dsl", "pathalg", "linalg", "homotopy", "hochschild", "presentations", "relquiver")

# Value-type constructors, accessors, conversions and polynomial helpers,
# called so often (up to a hundred thousand times a pass) that a span each
# would swamp the run; none is a layer boundary a per-layer metric reads.
SKIP = {
    "linalg.Matrix.init", "linalg.Matrix.entry", "linalg.Matrix.column", "linalg.Matrix.is_zero",
    "linalg.Matrix.from_columns",
    "pathalg.AlgebraElement.init", "pathalg.AlgebraElement.is_zero", "pathalg.AlgebraElement.unit",
    "pathalg.AlgebraElement.support", "pathalg.AlgebraElement.coefficient",
    "pathalg.AlgebraElement.leading_path", "pathalg.AlgebraElement.scale",
    "pathalg.AlgebraElement.from_path", "pathalg.AlgebraElement.zero",
    "pathalg.Automorphism.apply_path",
    "hochschild.FDAlgebra.vector_of", "hochschild.FDAlgebra.element_of",
    "hochschild.Derivation.coordinates",
    "hochschild.CohomologyClass.init", "hochschild.CohomologyClass.is_zero",
    "hochschild.CohomologyClass.scale",
    "homotopy.Decision.init", "homotopy.GroupPresentation.word_of_walk",
    "homotopy.GroupPresentation.word_of_path", "homotopy.GroupPresentation.exponent_vector",
}
SKIP_PREFIXES = ("linalg.poly_",)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self.call_id = -1

    def wrap(self, name: str, fn, probe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(self, args, result)
                return result
            finally:
                stack.pop()
                rec[2] = clock()

        return traced


# ---------- probes: counts read where the work happens ----------

def _rref_cells(tr, args, result):
    m = args[0]
    tr.counters["linalg.rref.max_cells"] = max(tr.counters["linalg.rref.max_cells"], m.nrows * m.ncols)


def _decision(tr, args, result):
    tr.counters[f"homotopy.decisions.{result.verdict}"] += 1


def _candidates(tr, args, result):
    tr.counters["relquiver.candidates"] += len(result)


def _gamma(tr, args, result):
    tr.counters["relquiver.gamma.vertices"] += len(result.vertices)
    tr.counters["relquiver.gamma.arrows"] += len(result.arrows)
    tr.counters["relquiver.gamma.unknown_candidates"] += len(result.unknown_candidates)


def _spans(tr, args, result):
    tr.counters["relquiver.enumerate_spans.spans"] += len(result)


def _report(tr, args, result):
    tr.counters["cli.report_bytes"] += len(result.encode())


PROBES = {
    "linalg.rref": _rref_cells,
    "homotopy.HomotopyOracle.decide_closed_word": _decision,
    "relquiver.critical_taus": _candidates,
    "relquiver.build_relation_quiver": _gamma,
    "relquiver.enumerate_spans": _spans,
    "cli.emit": _report,
}


# ---------- installing and removing the wrappers ----------

def _targets(package, layer):
    """(owner, attribute, span name, function, kind) for one layer module."""
    mod = getattr(package, layer)
    modname = mod.__name__
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield mod, attr, f"{layer}.{attr}", obj, None
        elif inspect.isclass(obj):
            for mattr, raw in sorted(vars(obj).items()):
                if mattr.startswith("_") and mattr != "__init__":
                    continue
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    continue
                label = "init" if mattr == "__init__" else mattr
                yield obj, mattr, f"{layer}.{attr}.{label}", fn, kind


def install(tracer: Tracer, package) -> list:
    """Wrap every traced callable; returns the patches for ``uninstall``."""
    patches = []
    wrapped = {}
    for layer in LAYERS:
        for owner, attr, name, fn, kind in _targets(package, layer):
            if name in SKIP or name.startswith(SKIP_PREFIXES):
                continue
            new = tracer.wrap(name, fn, PROBES.get(name))
            wrapped[fn] = new
            patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, kind(new) if kind else new)
    # rebind names imported from one module into another
    modules = [package] + [getattr(package, m) for m in LAYERS]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                patches.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------- from spans to per-layer numbers ----------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def has_ancestor(spans: list, i: int, name: str) -> bool:
    p = spans[i][3]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][3]
    return p >= 0


def aggregate(spans: list) -> dict:
    """Per span name: calls, total_s (outermost spans only, so recursion is
    not counted twice) and self_s."""
    selfs = self_times(spans)
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += selfs[i]
        if not has_ancestor(spans, i, name):
            st["total_s"] += end - start
    return stats


# per-layer metrics: (metric name, span name, statistic)
SPAN_METRICS = [
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.emit.self_s", "cli.emit", "self_s"),
    ("dsl.parse_input.self_s", "dsl.parse_input", "self_s"),
    ("pathalg.IdealData.calls", "pathalg.IdealData.init", "calls"),
    ("pathalg.IdealData.total_s", "pathalg.IdealData.init", "total_s"),
    ("pathalg.Automorphism.apply_to_ideal.calls", "pathalg.Automorphism.apply_to_ideal", "calls"),
    ("pathalg.Automorphism.apply_to_ideal.total_s", "pathalg.Automorphism.apply_to_ideal", "total_s"),
]
for _fn in ("rref", "nullspace", "Matrix.mul", "inverse", "smith_normal_form", "minimal_polynomial"):
    SPAN_METRICS += [(f"linalg.{_fn}.calls", f"linalg.{_fn}", "calls"), (f"linalg.{_fn}.self_s", f"linalg.{_fn}", "self_s")]
for _metric, _span in (
    ("homotopy_pairs", "homotopy_pairs"),
    ("HomotopyOracle.init", "HomotopyOracle.init"),
    ("decide_closed_word", "HomotopyOracle.decide_closed_word"),
    ("relations_equal", "relations_equal"),
):
    for _stat in ("calls", "total_s", "self_s"):
        SPAN_METRICS.append((f"homotopy.{_metric}.{_stat}", f"homotopy.{_span}", _stat))
SPAN_METRICS += [
    ("hochschild.FDAlgebra.total_s", "hochschild.FDAlgebra.init", "total_s"),
    ("hochschild.CohomologySpace.total_s", "hochschild.CohomologySpace.init", "total_s"),
]
for _fn in ("CohomologySpace.bracket", "Derivation.matrix", "conjugate_class", "ClassSpan.contains_span"):
    for _stat in ("calls", "total_s", "self_s"):
        SPAN_METRICS.append((f"hochschild.{_fn}.{_stat}", f"hochschild.{_fn}", _stat))
for _fn in ("Presentation.embed_character", "is_diagonalizable_set", "is_maximal_diagonalizable",
            "realize_in_image", "centralizer"):
    for _stat in ("calls", "total_s"):
        SPAN_METRICS.append((f"presentations.{_fn}.{_stat}", f"presentations.{_fn}", _stat))
SPAN_METRICS += [
    ("relquiver.build_relation_quiver.total_s", "relquiver.build_relation_quiver", "total_s"),
    ("relquiver.build_relation_quiver.self_s", "relquiver.build_relation_quiver", "self_s"),
    ("relquiver.classify_transvection.calls", "relquiver.classify_transvection", "calls"),
    ("relquiver.classify_transvection.total_s", "relquiver.classify_transvection", "total_s"),
    ("relquiver.enumerate_spans.total_s", "relquiver.enumerate_spans", "total_s"),
    ("relquiver.verify_main_theorem.total_s", "relquiver.verify_main_theorem", "total_s"),
]

COUNTER_METRICS = [
    "cli.report_bytes",
    "linalg.rref.max_cells",
    "homotopy.decisions.yes",
    "homotopy.decisions.no",
    "homotopy.decisions.unknown",
    "relquiver.candidates",
    "relquiver.gamma.vertices",
    "relquiver.gamma.unknown_candidates",
    "relquiver.enumerate_spans.spans",
]


def layer_metrics(spans: list, counters: Counter) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    stats = aggregate(spans)
    out = {}
    for metric, span, stat in SPAN_METRICS:
        value = stats[span][stat] if span in stats else 0
        out[metric] = (value, "count" if stat == "calls" else "s")
    for metric in COUNTER_METRICS:
        unit = "bytes" if metric == "cli.report_bytes" else "cells" if metric.endswith("cells") else "count"
        out[metric] = (counters[metric], unit)
    out["presentations.maxdiag.candidates"] = (
        sum(
            1
            for i, span in enumerate(spans)
            if span[0] == "presentations.is_diagonalizable_class"
            and has_ancestor(spans, i, "presentations.is_maximal_diagonalizable")
        ),
        "count",
    )
    decided = counters["homotopy.decisions.yes"] + counters["homotopy.decisions.no"]
    attempts = decided + counters["homotopy.decisions.unknown"]
    out["homotopy.decided_ratio"] = (decided / attempts if attempts else 0.0, "ratio")
    classified = stats["relquiver.classify_transvection"]["calls"] if "relquiver.classify_transvection" in stats else 0
    arrows = counters["relquiver.gamma.arrows"]
    out["relquiver.useful_ratio"] = (arrows / classified if classified else 0.0, "ratio")
    return out


def write(path, spans: list) -> None:
    """Save spans as gzipped JSON: a name table plus one row per span."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[n], round(s, 7), round(e, 7), p, c] for n, s, e, p, c in spans]
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "call"], "names": names, "spans": rows}, fh)
