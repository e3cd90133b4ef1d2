"""The quiver of homotopy relations and the main verification harness.

Vertices are homotopy relations of presentations of one fixed algebra,
represented by ideals reachable from a seed ideal through transvections
(dilatations never change the relation, so they are not swept).  There is an
arrow between two relations when some transvection turns one ideal into the
other while the bypass pair is non-homotopic before and homotopic after;
the homotopy oracle certifies both sides (its congruence closure or word
search "yes", the abelianization "no"), and undecided candidates are
quarantined rather than silently dropped.  A transvection that fixes the
ideal relates no two relations and is not classified.

The quiver is acyclic, so a bypass arrow occurs at most once in a path and
the transvection by tau maps each reduced-basis element b to b + tau*d(b),
where the splice d(b) replaces the arrow by the bypass path.  It fixes the
ideal exactly when every d(b) lies in the ideal, which does not depend on
tau: the sweep tests this once per (ideal, bypass) and otherwise spans the
image from the rows b + tau*d(b), building no automorphism.

Γ keeps the tree and the homotopy node limit it was built under and owns one
memoized homotopy oracle per homotopy relation (``RelationQuiver.oracle``):
ideals with the same homotopy pairs share it, and with it its decisions.  The
sweep and the verification harness both ask Γ.

On top of the graph sit source detection (with the two sufficient uniqueness
hypotheses reported) and the full verification report tying maximal
diagonalizable subalgebras of the cohomology to character images of source
presentations, including a conjugating automorphism that carries each
maximal subalgebra onto a source image.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .fields import PrimeField
from .hochschild import (
    ClassSpan,
    CohomologySpace,
    FDAlgebra,
    conjugate_class,
)
from .homotopy import (
    Decision,
    HomotopyOracle,
    NO,
    SEARCH_MAX_NODES,
    UNKNOWN,
    YES,
    homotopy_pairs,
)
from .linalg import _Echelon
from .pathalg import (
    Automorphism,
    IdealData,
    identity_automorphism,
    transvection_of,
)
from .presentations import (
    Presentation,
    _extensions,
    _lines_within_limit,
    centralizer,
    is_diagonalizable_set,
    is_maximal_diagonalizable,
    realize_in_image,
)
from .quiver import Bypass, Path, SpanningTree, enumerate_bypasses, has_double_bypass

COINCIDE = "coincide"
DIRECT_SUCCESSOR = "direct-successor"
DIRECT_PREDECESSOR = "direct-predecessor"
EQUAL_IDEALS = "equal-ideals"


def _splice(elem: dict, bypass: Bypass) -> dict:
    """d(elem): the terms of ``elem`` through the bypass arrow, with the
    arrow replaced by the bypass path.  A path visits each vertex once, so
    the arrow occurs at most once in it and distinct paths splice to
    distinct paths; the transvection by tau maps elem to elem + tau*d(elem).
    """
    arrow, route = bypass.arrow, bypass.path.arrows
    out = {}
    for p, c in elem.items():
        if arrow in p.arrows:
            i = p.arrows.index(arrow)
            out[Path(p.source, p.target, p.arrows[:i] + route + p.arrows[i + 1:])] = c
    return out


def _moving_splices(ideal: IdealData, bypass: Bypass) -> list[dict] | None:
    """The splices of the reduced basis, or None when they all lie in the
    ideal: then every transvection along the bypass fixes it."""
    splices = [_splice(b, bypass) for b in ideal.basis]
    return None if all(ideal.contains(d) for d in splices) else splices


def _transvected(ideal: IdealData, splices: list[dict], tau) -> IdealData:
    """The image of the ideal under the transvection by tau (a field
    element), spanned by the rows b + tau*d(b) of its reduced basis."""
    f = ideal.field
    echelon = _Echelon(f, ideal._echelon.lead)
    for b, d in zip(ideal.basis, splices):
        row = dict(b)
        f.add_multiple(row, tau, d)
        echelon.insert(row)
    return IdealData._of(ideal.quiver, f, echelon)


def critical_taus(ideal: IdealData, bypass: Bypass) -> tuple:
    """Scalars at which the substituted ideal can change support.

    Over a prime field every nonzero scalar is listed (the sweep is
    exhaustive).  Over the rationals the list is the heuristic one: +-1
    together with every single-coefficient cancellation; in an acyclic
    quiver each arrow occurs at most once per path, so those cancellation
    conditions are all linear.
    """
    f = ideal.field
    if isinstance(f, PrimeField):
        return tuple(x for x in f.elements() if x != 0)
    candidates = {Fraction(1), Fraction(-1)}
    for elem in ideal.basis:
        # the coefficient of each spliced path in elem + tau*d(elem) is c0 + c1*tau
        for p, c1 in _splice(elem, bypass).items():
            root = f.neg(f.div(elem.get(p, f.zero), c1))
            if not f.is_zero(root):
                candidates.add(root)
    return tuple(sorted(candidates))


class TransvectionCase(NamedTuple):
    label: str
    source_decision: Decision
    target_decision: Decision


def classify_transvection(
    source: HomotopyOracle,
    target: HomotopyOracle,
    bypass: Bypass,
    source_ideal: IdealData,
    target_ideal: IdealData,
) -> TransvectionCase:
    """Classify the bypass pair under the oracles of an ideal (``source``)
    and of its image under a transvection along ``bypass`` (``target``).

    The ideals are passed as well: an oracle may be shared by every ideal
    with its homotopy pairs, so its own ``ideal`` need not be either one.
    """
    a = source.decide_arrow_path(bypass.arrow, bypass.path)
    b = target.decide_arrow_path(bypass.arrow, bypass.path)
    if a.verdict == YES and b.verdict == YES:
        label = COINCIDE
    elif a.verdict == NO and b.verdict == YES:
        label = DIRECT_SUCCESSOR
    elif a.verdict == YES and b.verdict == NO:
        label = DIRECT_PREDECESSOR
    elif a.verdict == NO and b.verdict == NO:
        if target_ideal != source_ideal:
            raise RuntimeError("soundness violation: both sides non-homotopic but the ideals differ")
        label = EQUAL_IDEALS
    else:
        label = UNKNOWN
    return TransvectionCase(label, a, b)


class RelationVertex(NamedTuple):
    ideal: IdealData
    back_auto: Automorphism  # maps the seed ideal here


class RelationArrow(NamedTuple):
    source: int
    target: int
    bypass: Bypass
    tau: object  # effective scalar: the witness maps source_ideal to target_ideal
    source_ideal: IdealData
    target_ideal: IdealData
    source_back: Automorphism  # maps the seed ideal onto source_ideal
    before: Decision  # non-homotopy at the arrow's source relation
    after: Decision  # homotopy at the arrow's target relation


class RelationQuiver:
    """Γ as the sweep builds it: vertices and arrows are appended, and
    ``truncated``, ``unknown_candidates`` and ``ambiguous_vertices`` record
    why it may be incomplete."""

    def __init__(self, seed: IdealData, tree: SpanningTree, search_max_nodes: int):
        self.seed = seed
        self.tree = tree
        self.search_max_nodes = search_max_nodes
        self.vertices: list[RelationVertex] = []
        self.arrows: list[RelationArrow] = []
        self.unknown_candidates: list = []
        self.exhaustive_taus = isinstance(seed.field, PrimeField)
        self.truncated = False
        self.ambiguous_vertices: list[int] = []
        self._oracles: dict = {}
        self._relations: dict = {}

    def oracle(self, ideal: IdealData) -> HomotopyOracle:
        """The one homotopy oracle of the ideal's relation under Γ's tree
        and node limit.

        An oracle reads only the tree, the node limit and the homotopy pairs,
        and decides each pair deterministically, so the pairs are computed
        once per ideal and every ideal with the same pairs gets the same
        oracle, and shares its memoized decisions.
        """
        oracle = self._oracles.get(ideal)
        if oracle is None:
            pairs = homotopy_pairs(ideal)
            oracle = self._relations.get(pairs)
            if oracle is None:
                oracle = self._relations[pairs] = HomotopyOracle(ideal, self.tree, self.search_max_nodes, pairs)
            self._oracles[ideal] = oracle
        return oracle


# the Γ sweep stops, truncated, past this many candidates or vertices
_GRAPH_MAX_CANDIDATES = 20_000
_GRAPH_MAX_VERTICES = 64


def build_relation_quiver(
    seed: IdealData, tree: SpanningTree | None = None, search_max_nodes: int = SEARCH_MAX_NODES
) -> RelationQuiver:
    """Breadth-first closure of the seed under classified transvections."""
    ok, bad = seed.is_admissible()
    if not ok:
        raise ValueError(f"seed ideal is not admissible: {bad}")
    quiver = seed.quiver
    f = seed.field
    bypasses = enumerate_bypasses(quiver)
    rq = RelationQuiver(seed, tree or quiver.spanning_tree(quiver.vertices[0]), search_max_nodes)

    # Every ideal already located, with its vertex.  The oracles are
    # deterministic and vertices are only appended, so scanning the same
    # ideal again would reach the same vertex.
    located: dict[IdealData, int] = {}

    def add_vertex(ideal: IdealData, back_auto: Automorphism) -> int:
        rq.vertices.append(RelationVertex(ideal, back_auto))
        located[ideal] = len(rq.vertices) - 1
        return len(rq.vertices) - 1

    def locate(ideal: IdealData) -> tuple[int | None, bool]:
        """Existing vertex carrying the same relation, plus an ambiguity flag."""
        if ideal in located:
            return located[ideal], False
        ambiguous = False
        for i, v in enumerate(rq.vertices):
            d = rq.oracle(v.ideal).same_relation(rq.oracle(ideal))
            if d.verdict == YES:
                located[ideal] = i
                return i, False
            if d.verdict == UNKNOWN:
                ambiguous = True
        return None, ambiguous

    add_vertex(seed, identity_automorphism(quiver, f))
    seen_arrows = set()
    candidates = 0
    # vertices are visited in creation order, new ones as they are appended
    for vi, vertex in enumerate(rq.vertices):
        for bp in bypasses:
            splices = _moving_splices(vertex.ideal, bp)
            for tau in critical_taus(vertex.ideal, bp):
                candidates += 1
                if candidates > _GRAPH_MAX_CANDIDATES or len(rq.vertices) > _GRAPH_MAX_VERTICES:
                    rq.truncated = True
                    return rq
                # a transvection fixing the ideal relates no two relations
                if splices is None:
                    continue
                image = _transvected(vertex.ideal, splices, tau)
                case = classify_transvection(rq.oracle(vertex.ideal), rq.oracle(image), bp, vertex.ideal, image)
                widx, ambiguous = locate(image)
                back = None  # seed onto image: composed at most once per candidate
                if widx is None:
                    back = transvection_of(quiver, f, bp, tau).compose(vertex.back_auto)
                    widx = add_vertex(image, back)
                    if ambiguous:
                        rq.ambiguous_vertices.append(widx)
                if case.label == UNKNOWN:
                    rq.unknown_candidates.append((vi, widx, bp, tau, case))
                    continue
                if case.label == COINCIDE:
                    continue
                # check the edge before building its arrow: most candidates give no new edge
                edge = (vi, widx) if case.label == DIRECT_SUCCESSOR else (widx, vi)
                if edge[0] == edge[1] or edge in seen_arrows:
                    continue
                seen_arrows.add(edge)
                if case.label == DIRECT_SUCCESSOR:
                    arrow = RelationArrow(
                        vi, widx, bp, tau,
                        vertex.ideal, image, vertex.back_auto,
                        case.source_decision, case.target_decision,
                    )
                else:
                    # direct predecessor: the inverse transvection witnesses
                    # the succession from the image ideal back onto ours
                    arrow = RelationArrow(
                        widx, vi, bp, f.neg(f.coerce(tau)),
                        image, vertex.ideal, back or transvection_of(quiver, f, bp, tau).compose(vertex.back_auto),
                        case.target_decision, case.source_decision,
                    )
                rq.arrows.append(arrow)
    return rq


def sources_report(rq: RelationQuiver) -> dict:
    """In-degree-zero vertices plus the two sufficient uniqueness hypotheses."""
    indeg = [0] * len(rq.vertices)
    for a in rq.arrows:
        indeg[a.target] += 1
    sources = [i for i, d in enumerate(indeg) if d == 0]
    quiver = rq.seed.quiver
    dbp, dbp_witness = has_double_bypass(quiver)
    multiple_arrows = any(len(names) > 1 for names in quiver.parallel_classes().values())
    monomial_vertices = [i for i, v in enumerate(rq.vertices) if v.ideal.is_monomial()]
    char = rq.seed.field.characteristic
    return {
        "sources": sources,
        "unique_source": len(sources) == 1,
        "no_double_bypass": not dbp,
        "double_bypass_witness":
            [dbp_witness[0], str(dbp_witness[1]), dbp_witness[2], str(dbp_witness[3])] if dbp else None,
        "characteristic": char,
        "hypothesis_no_double_bypass_char0": (not dbp) and char == 0,
        "monomial_vertices": monomial_vertices,
        "multiple_arrows": multiple_arrows,
        "hypothesis_monomial_no_multiple_arrows": bool(monomial_vertices) and not multiple_arrows,
        "complete": _incompleteness(rq) is None,
    }


# ---------- the main verification harness ----------

def presentation_for_vertex(space: CohomologySpace, rq: RelationQuiver, index: int) -> Presentation:
    """A presentation whose kernel is the vertex's representative ideal."""
    back = rq.vertices[index].back_auto
    pres = Presentation(space, back.invert(), rq.tree)
    pres.chi_inverse = back
    assert pres.kernel == rq.vertices[index].ideal
    return pres


def enumerate_spans(space: CohomologySpace) -> dict[ClassSpan, bool]:
    """Every diagonalizable span of the cohomology over a prime field (each
    echelon basis class diagonalizable, every pair commuting), by dimension,
    then pivots, then entries, mapped to whether it is maximal.

    Dropping the last echelon row leaves a diagonalizable span, so each one
    grows from the zero span by the maximality test's step: the children of
    a span are ``span + line`` for the lines ``_extensions`` yields, and a
    span with none is maximal (exact up to ``_MAXDIAG_MAX_CANDIDATES`` lines).
    """
    if not isinstance(space.field, PrimeField):
        raise ValueError("exhaustive span enumeration needs a finite field")
    spans: dict[ClassSpan, bool] = {}
    level = [space.span([])]
    while level:
        children: dict[ClassSpan, None] = {}
        for s in level:
            basis = s.basis_classes()
            grown = [space.span(basis + [line]) for _cls, line in _extensions(s, centralizer(space, s))]
            spans[s] = not grown
            children.update(dict.fromkeys(grown))
        level = list(children)

    def order(item):
        rows = [c.coords for c in item[0].basis_classes()]
        return len(rows), [min(r) for r in rows], [r.get(j, 0) for r in rows for j in range(len(space.der_basis))]

    return dict(sorted(spans.items(), key=order))


def _incompleteness(rq: RelationQuiver) -> str | None:
    """Why the sweep may have missed part of Γ, or None when it is complete
    (``sources_report``'s ``complete``)."""
    causes = ["Γ truncated"] if rq.truncated else []
    if rq.unknown_candidates:
        causes.append("unknown candidates")
    causes += [f"ambiguous vertex {k}" for k in rq.ambiguous_vertices]
    return "; ".join(causes) or None


def verify_main_theorem(
    seed: IdealData, tree: SpanningTree | None = None, search_max_nodes: int = SEARCH_MAX_NODES
) -> dict:
    """Cross-check the maximal-diagonalizable description on one instance.

    Builds the relation quiver, checks that character images of source
    presentations are maximal diagonalizable, covers non-source images
    through realized presentations with source-related kernels, and (over a
    prime field, when the cohomology has dimension at most 4 and few enough
    lines, ``_lines_within_limit``) compares against the brute-force list of
    all diagonalizable spans (``enumerate_spans``), carrying each maximal
    subalgebra onto the character image of the source presentation with its
    kernel, along rho = chi_src . chi^-1 (unknown when no source has it).

    Conjugation is a group action, so maximal subalgebras conjugate onto one
    source image are conjugate to each other.

    While Γ is incomplete, every check that reads its source set is unknown
    with the causes as its detail, and a truncation and each ambiguous
    vertex count as unknowns besides the unknown candidates.
    """
    checks: list[dict] = []

    def record(name: str, status: str, detail=None):
        checks.append({"name": name, "status": status, "detail": detail})

    algebra = FDAlgebra(seed)
    space = CohomologySpace(algebra)
    rq = build_relation_quiver(seed, tree, search_max_nodes)
    tree = rq.tree
    src_report = sources_report(rq)

    source_set = set(src_report["sources"])
    gaps = _incompleteness(rq)

    def record_on_sources(name: str, status: str, detail=None):
        """Record a check that reads the source set: unknown, naming the
        causes, while Γ is incomplete, since its sources may not be Γ's."""
        if gaps:
            record(name, "unknown", gaps)
        else:
            record(name, status, detail)

    def record_source_relation(name: str, kernel: IdealData):
        """Pass when the kernel carries the relation of some source, fail
        when it carries none, unknown otherwise."""
        oracle = rq.oracle(kernel)
        verdicts = [oracle.same_relation(rq.oracle(rq.vertices[s].ideal)).verdict for s in sorted(source_set)]
        status = "pass" if YES in verdicts else "fail" if all(v == NO for v in verdicts) else "unknown"
        record_on_sources(name, status)

    source_presentations: dict[int, Presentation] = {}
    for i in sorted(source_set):
        pres = presentation_for_vertex(space, rq, i)
        source_presentations[i] = pres
        image = pres.character_image()
        diag = is_diagonalizable_set(image.basis_classes(), pres)
        record_on_sources(f"source {i}: character image diagonalizable", "pass" if diag else "fail")
        verdict, witness = is_maximal_diagonalizable(image, pres)
        status = {"yes": "pass", "no": "fail", "unknown": "unknown"}[verdict]
        record_on_sources(f"source {i}: character image maximal", status)

    for i, vertex in enumerate(rq.vertices):
        if i in source_set:
            continue
        pres = presentation_for_vertex(space, rq, i)
        image = pres.character_image()
        family = image.basis_classes() or [space.zero_class()]
        covering = realize_in_image(family, tree)
        contained = covering.character_image().contains_span(image)
        record(f"vertex {i}: image contained in a realized image", "pass" if contained else "fail")
        record_source_relation(f"vertex {i}: realized kernel has a source relation", covering.kernel)

    brute = {"enabled": False}
    if space.dim <= 4 and _lines_within_limit(space.field, space.dim):
        brute["enabled"] = True
        spans = enumerate_spans(space)
        maximal = [s for s, top in spans.items() if top]
        brute["diagonalizable_count"] = len(spans)
        brute["maximal_count"] = len(maximal)
        realized: list[tuple[ClassSpan, Presentation]] = []
        family_ok = True
        for s in maximal:
            fam = s.basis_classes() or [space.zero_class()]
            pres = realize_in_image(fam, tree)
            img = pres.character_image()
            if img != s:
                family_ok = False
            realized.append((s, pres))
            record_source_relation("maximal subalgebra realizes over a source relation", pres.kernel)
        record(
            "maximal family equals realized character-image family",
            "pass" if family_ok else "fail",
        )
        # source images must re-appear among the maximal subalgebras
        for i, pres in source_presentations.items():
            found = spans.get(pres.character_image(), False)
            record_on_sources(f"source {i}: image occurs among maximal subalgebras", "pass" if found else "fail")
        # conjugacy: carry each maximal subalgebra onto the source image of its kernel
        frames = {pres.kernel: pres for pres in source_presentations.values()}
        name = "maximal subalgebra conjugate onto a source image"
        conjugated = 0
        for s, pres in realized:
            src = frames.get(pres.kernel)
            if src is None:
                record_on_sources(name, "unknown", "no source presentation has its kernel")
                continue
            conjugated += 1
            rho = src.chi.compose(pres.chi_inverse)
            s = space.span(conjugate_class(space, rho, s.basis_classes()))
            record_on_sources(name, "pass" if s == src.character_image() else "fail")
        brute["conjugated_onto_source"] = conjugated

    statuses = {status: sum(1 for c in checks if c["status"] == status) for status in ("pass", "fail", "unknown")}
    statuses["unknown"] += len(rq.unknown_candidates) + rq.truncated + len(rq.ambiguous_vertices)
    return {
        "gamma": {
            "vertex_count": len(rq.vertices),
            "arrow_count": len(rq.arrows),
            "arrows": [[a.source, a.target] for a in rq.arrows],
            "unknown_candidates": len(rq.unknown_candidates),
            "truncated": rq.truncated,
            "exhaustive_taus": rq.exhaustive_taus,
        },
        "sources": src_report,
        "cohomology_dim": space.dim,
        "brute_force": brute,
        "checks": checks,
        "statuses": statuses,
        "ok": statuses["fail"] == 0 and statuses["unknown"] == 0,
    }
