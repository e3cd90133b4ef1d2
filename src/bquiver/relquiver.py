"""The quiver of homotopy relations and the main verification harness.

Vertices are homotopy relations of presentations of one fixed algebra,
represented by ideals reachable from a seed ideal through transvections
(dilatations never change the relation, so they are not swept).  There is an
arrow between two relations when some transvection turns one ideal into the
other while the bypass pair is non-homotopic before and homotopic after;
both sides are certified by the three-valued homotopy oracle and undecided
candidates are quarantined rather than silently dropped.  A transvection
that fixes the ideal relates no two relations and is not classified.

Γ keeps the tree and the budgets it was built under and owns one memoized
homotopy oracle per ideal (``RelationQuiver.oracle``), which the sweep, the
factorization search and the verification harness share.

On top of the graph sit source detection (with the two sufficient uniqueness
hypotheses reported), factorization of an ideal through certified
transvection steps from a source (each step's rewriting trace is replayed by
``FactorizationWitness.verify``), and the full verification report tying
maximal diagonalizable subalgebras of the cohomology to character images of
source presentations, including the conjugating automorphisms between pairs
of maximal subalgebras.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .budgets import Budgets, DEFAULT_BUDGETS
from .fields import Field, PrimeField
from .hochschild import (
    ClassSpan,
    CohomologyClass,
    CohomologySpace,
    FDAlgebra,
    conjugate_class,
)
from .homotopy import (
    Decision,
    GroupPresentation,
    HomotopyOracle,
    NO,
    RewriteTrace,
    UNKNOWN,
    YES,
    homotopy_pairs,
)
from .linalg import smith_normal_form
from .pathalg import (
    Automorphism,
    IdealData,
    dilatation,
    identity_automorphism,
    transvection_of,
)
from .presentations import (
    Presentation,
    is_commuting_set,
    is_diagonalizable_class,
    is_diagonalizable_set,
    is_maximal_diagonalizable,
    realize_in_image,
)
from .quiver import Bypass, SpanningTree, enumerate_bypasses, has_double_bypass

COINCIDE = "coincide"
DIRECT_SUCCESSOR = "direct-successor"
DIRECT_PREDECESSOR = "direct-predecessor"
EQUAL_IDEALS = "equal-ideals"


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
    q = ideal.quiver
    candidates = {Fraction(1), Fraction(-1)}
    arrow = bypass.arrow
    for elem in ideal.basis:
        # coefficient of each resulting path is c0 + c1 * tau
        linear: dict = {}
        for p, c in elem.items():
            cell = linear.setdefault(p, [f.zero, f.zero])
            cell[0] = f.add(cell[0], c)
            if arrow in p.arrows:
                i = p.arrows.index(arrow)
                spliced = q.path(p.arrows[:i] + bypass.path.arrows + p.arrows[i + 1:])
                cell2 = linear.setdefault(spliced, [f.zero, f.zero])
                cell2[1] = f.add(cell2[1], c)
        for c0, c1 in linear.values():
            if not f.is_zero(c1):
                root = f.neg(f.div(c0, c1))
                if not f.is_zero(root):
                    candidates.add(root)
    return tuple(sorted(candidates))


@dataclass(frozen=True)
class TransvectionCase:
    label: str
    source_decision: Decision
    target_decision: Decision


def classify_transvection(source: HomotopyOracle, target: HomotopyOracle, bypass: Bypass) -> TransvectionCase:
    """Classify the bypass pair under the oracles of an ideal (``source``)
    and of its image under a transvection along ``bypass`` (``target``)."""
    a = source.decide_arrow_path(bypass.arrow, bypass.path)
    b = target.decide_arrow_path(bypass.arrow, bypass.path)
    if a.verdict == YES and b.verdict == YES:
        label = COINCIDE
    elif a.verdict == NO and b.verdict == YES:
        label = DIRECT_SUCCESSOR
    elif a.verdict == YES and b.verdict == NO:
        label = DIRECT_PREDECESSOR
    elif a.verdict == NO and b.verdict == NO:
        if target.ideal != source.ideal:
            raise RuntimeError("soundness violation: both sides non-homotopic but the ideals differ")
        label = EQUAL_IDEALS
    else:
        label = UNKNOWN
    return TransvectionCase(label, a, b)


@dataclass
class RelationVertex:
    ideal: IdealData
    back_auto: Automorphism  # maps the seed ideal here


@dataclass(frozen=True)
class RelationArrow:
    source: int
    target: int
    bypass: Bypass
    tau: object  # effective scalar: the witness maps source_ideal to target_ideal
    source_ideal: IdealData
    target_ideal: IdealData
    source_back: Automorphism  # maps the seed ideal onto source_ideal
    before: Decision  # non-homotopy at the arrow's source relation
    after: Decision  # homotopy at the arrow's target relation


@dataclass
class RelationQuiver:
    seed: IdealData
    tree: SpanningTree
    budgets: Budgets
    vertices: list
    arrows: list
    unknown_candidates: list
    exhaustive_taus: bool
    truncated: bool
    ambiguous_vertices: list = dataclass_field(default_factory=list)
    _oracles: dict = dataclass_field(default_factory=dict, repr=False, compare=False)

    def oracle(self, ideal: IdealData) -> HomotopyOracle:
        """The one homotopy oracle of the ideal under Γ's tree and budgets."""
        oracle = self._oracles.get(ideal)
        if oracle is None:
            oracle = self._oracles[ideal] = HomotopyOracle(ideal, self.tree, self.budgets)
        return oracle


def build_relation_quiver(
    seed: IdealData, tree: SpanningTree | None = None, budgets: Budgets = DEFAULT_BUDGETS
) -> RelationQuiver:
    """Breadth-first closure of the seed under classified transvections."""
    ok, bad = seed.is_admissible()
    if not ok:
        raise ValueError(f"seed ideal is not admissible: {bad}")
    quiver = seed.quiver
    f = seed.field
    bypasses = enumerate_bypasses(quiver)
    rq = RelationQuiver(
        seed=seed,
        tree=tree or quiver.spanning_tree(quiver.vertices[0]),
        budgets=budgets,
        vertices=[],
        arrows=[],
        unknown_candidates=[],
        exhaustive_taus=isinstance(f, PrimeField),
        truncated=False,
    )

    # Every ideal already located, with its vertex.  The oracles are
    # deterministic and vertices are only appended, so scanning the same
    # ideal again would reach the same vertex.
    located: dict[IdealData, int] = {}
    # One transvection per (bypass, tau), shared by every vertex.
    transvection = functools.cache(functools.partial(transvection_of, quiver, f))

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
    queue = [0]
    seen_arrows = set()
    candidates = 0
    while queue:
        vi = queue.pop(0)
        vertex = rq.vertices[vi]
        for bp in bypasses:
            for tau in critical_taus(vertex.ideal, bp):
                candidates += 1
                if candidates > budgets.graph_max_candidates or len(rq.vertices) > budgets.graph_max_vertices:
                    rq.truncated = True
                    return rq
                phi = transvection(bp, tau)
                image = phi.apply_to_ideal(vertex.ideal)
                # a transvection fixing the ideal relates no two relations
                if image == vertex.ideal:
                    continue
                case = classify_transvection(rq.oracle(vertex.ideal), rq.oracle(image), bp)
                widx, ambiguous = locate(image)
                if widx is None:
                    widx = add_vertex(image, phi.compose(vertex.back_auto))
                    if ambiguous:
                        rq.ambiguous_vertices.append(widx)
                    queue.append(widx)
                if case.label == UNKNOWN:
                    rq.unknown_candidates.append((vi, widx, bp, tau, case))
                    continue
                if case.label == COINCIDE:
                    continue
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
                        image, vertex.ideal, phi.compose(vertex.back_auto),
                        case.target_decision, case.source_decision,
                    )
                edge = (arrow.source, arrow.target)
                if edge[0] != edge[1] and edge not in seen_arrows:
                    seen_arrows.add(edge)
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
        "complete": not rq.truncated and not rq.unknown_candidates and not rq.ambiguous_vertices,
    }


# ---------- factorization through certified transvections ----------

def _integer_nth_root(value: int, n: int) -> int | None:
    if value < 0:
        if n % 2 == 0:
            return None
        r = _integer_nth_root(-value, n)
        return None if r is None else -r
    if value in (0, 1):
        return value
    lo, hi = 0, max(2, value)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == value else None


def _field_nth_root(f: Field, value, n: int):
    if n == 1:
        return value
    if isinstance(f, PrimeField):
        for x in f.elements():
            if pow(x, n, f.p) == value:
                return x
        return None
    frac = Fraction(value)
    num = _integer_nth_root(frac.numerator, n)
    den = _integer_nth_root(frac.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def match_dilatation(source: IdealData, target: IdealData):
    """Arrow weights with D(source) == target, or None.

    The coefficient ratios give a multiplicative system in the weights; its
    exponent matrix is solved through the integer Smith normal form, taking
    roots in the field where the invariant factors demand them.
    """
    f = source.field
    if len(source.basis) != len(target.basis):
        return None
    if source.pivot_paths != target.pivot_paths:
        return None
    arrows = source.quiver.arrow_names
    arrow_idx = {n: i for i, n in enumerate(arrows)}
    exponent_rows = []
    ratios = []
    for pivot, es, et in zip(source.pivot_paths, source.basis, target.basis):
        if es.keys() != et.keys():
            return None
        pivot_exp = [0] * len(arrows)
        for nm in pivot.arrows:
            pivot_exp[arrow_idx[nm]] += 1
        for p in source.quiver.sort_paths(es):
            if p == pivot:
                continue
            row = [0] * len(arrows)
            for nm in p.arrows:
                row[arrow_idx[nm]] += 1
            row = [r - pe for r, pe in zip(row, pivot_exp)]
            exponent_rows.append(row)
            ratios.append(f.div(et[p], es[p]))
    if not exponent_rows:
        return {n: f.one for n in arrows}
    d, u, v = smith_normal_form(exponent_rows)
    m = len(exponent_rows)
    n = len(arrows)

    def power(base, exp: int):
        if exp >= 0:
            out = f.one
            for _ in range(exp):
                out = f.mul(out, base)
            return out
        return f.inv(power(base, -exp))

    # transformed right-hand sides
    sigma = []
    for i in range(m):
        acc = f.one
        for e in range(m):
            if u[i][e]:
                acc = f.mul(acc, power(ratios[e], u[i][e]))
        sigma.append(acc)
    y = [f.one] * n
    for i in range(m):
        if i < len(d):
            root = _field_nth_root(f, sigma[i], d[i])
            if root is None:
                return None
            y[i] = root
        elif sigma[i] != f.one:
            return None
    weights = {}
    for a_i, name in enumerate(arrows):
        acc = f.one
        for j in range(n):
            if v[a_i][j]:
                acc = f.mul(acc, power(y[j], v[a_i][j]))
        if f.is_zero(acc):
            return None
        weights[name] = acc
    D = dilatation(source.quiver, f, weights)
    if D.apply_to_ideal(source) != target:
        return None
    return weights


@dataclass
class FactorizationWitness:
    """A certified transvection chain (plus dilatation) between two ideals."""

    start: IdealData
    steps: tuple  # ((bypass, tau, certificate Decision), ...)
    dilatation_weights: dict
    end: IdealData
    tree: SpanningTree  # the certificates' words are over its presentations

    def verify(self) -> bool:
        """Replay the chain: each step's certificate must be a "yes" trace of
        the bypass pair's word under the image ideal's presentation."""
        current = self.start
        quiver = self.start.quiver
        f = self.start.field
        for bp, tau, cert in self.steps:
            current = transvection_of(quiver, f, bp, tau).apply_to_ideal(current)
            presentation = GroupPresentation(quiver, self.tree, homotopy_pairs(current))
            word = presentation.word_of_pair(quiver.arrow_path(bp.arrow), bp.path)
            trace = cert.certificate if cert is not None and cert.verdict == YES else None
            if not isinstance(trace, RewriteTrace) or trace.start != word or not trace.replay(presentation):
                return False
        D = dilatation(quiver, f, self.dilatation_weights)
        return D.apply_to_ideal(current) == self.end


def factor_to_source(rq: RelationQuiver, source_index: int, target_index: int) -> FactorizationWitness | None:
    """Search a certified transvection chain from a source representative.

    Every step must carry a homotopy certificate at its image ideal; the
    chain may end with a dilatation.  Returns None when Γ's
    ``factor_max_nodes`` budget runs out before the target ideal is reached.
    """
    start = rq.vertices[source_index].ideal
    target = rq.vertices[target_index].ideal
    quiver = start.quiver
    f = start.field
    bypasses = enumerate_bypasses(quiver)

    def finish(ideal: IdealData, steps) -> FactorizationWitness | None:
        if ideal == target:
            weights = {n: f.one for n in quiver.arrow_names}
        else:
            weights = match_dilatation(ideal, target)
            if weights is None:
                return None
        return FactorizationWitness(start, tuple(steps), weights, target, rq.tree)

    done = finish(start, ())
    if done is not None:
        return done
    visited = {start}
    queue = [(start, ())]
    nodes = 0
    while queue and nodes < rq.budgets.factor_max_nodes:
        current, steps = queue.pop(0)
        nodes += 1
        for bp in bypasses:
            for tau in critical_taus(current, bp):
                nxt = transvection_of(quiver, f, bp, tau).apply_to_ideal(current)
                if nxt in visited:
                    continue
                visited.add(nxt)
                cert = rq.oracle(nxt).decide_arrow_path(bp.arrow, bp.path)
                if cert.verdict != YES:
                    continue
                new_steps = steps + ((bp, tau, cert),)
                done = finish(nxt, new_steps)
                if done is not None:
                    return done
                queue.append((nxt, new_steps))
    return None


# ---------- the main verification harness ----------

def presentation_for_vertex(space: CohomologySpace, rq: RelationQuiver, index: int) -> Presentation:
    """A presentation whose kernel is the vertex's representative ideal."""
    chi = rq.vertices[index].back_auto.invert()
    pres = Presentation(space, chi, rq.tree)
    assert pres.kernel == rq.vertices[index].ideal
    return pres


def enumerate_spans(space: CohomologySpace, max_count: int = 100_000) -> list[ClassSpan]:
    """Every subspace of the cohomology over a prime field (echelon forms)."""
    f = space.field
    if not isinstance(f, PrimeField):
        raise ValueError("exhaustive span enumeration needs a finite field")
    # the basis classes are unit coordinates on these columns
    columns = [min(b.coords) for b in space.basis_classes()]
    n = len(columns)
    spans = [space.span([])]
    values = list(f.elements())
    count = 0
    for r in range(1, n + 1):
        for pivots in itertools.combinations(range(n), r):
            free_positions = [
                (i, j)
                for i in range(r)
                for j in range(pivots[i] + 1, n)
                if j not in pivots
            ]
            for fill in itertools.product(values, repeat=len(free_positions)):
                count += 1
                if count > max_count:
                    raise RuntimeError("span enumeration budget exceeded")
                rows = [{columns[pivots[i]]: f.one} for i in range(r)]
                for (i, j), val in zip(free_positions, fill):
                    if not f.is_zero(val):
                        rows[i][columns[j]] = val
                spans.append(space.span(CohomologyClass(space, row) for row in rows))
    return spans


def verify_main_theorem(
    seed: IdealData, tree: SpanningTree | None = None, budgets: Budgets = DEFAULT_BUDGETS
) -> dict:
    """Cross-check the maximal-diagonalizable description on one instance.

    Builds the relation quiver, checks that character images of source
    presentations are maximal diagonalizable, covers non-source images
    through realized presentations with source-related kernels, and (over a
    prime field) compares against brute-force enumeration of all
    diagonalizable subspaces, exhibiting a conjugating automorphism between
    each pair of maximal subalgebras.
    """
    checks: list[dict] = []

    def record(name: str, status: str, detail=None):
        checks.append({"name": name, "status": status, "detail": detail})

    algebra = FDAlgebra(seed)
    space = CohomologySpace(algebra)
    rq = build_relation_quiver(seed, tree, budgets)
    tree = rq.tree
    src_report = sources_report(rq)

    source_set = set(src_report["sources"])

    def record_source_relation(name: str, kernel: IdealData):
        """Pass when the kernel carries the relation of some source, fail
        when it carries none, unknown otherwise."""
        oracle = rq.oracle(kernel)
        verdicts = [oracle.same_relation(rq.oracle(rq.vertices[s].ideal)).verdict for s in sorted(source_set)]
        if YES in verdicts:
            record(name, "pass")
        elif all(v == NO for v in verdicts):
            record(name, "fail")
        else:
            record(name, "unknown")

    source_presentations: dict[int, Presentation] = {}
    for i in sorted(source_set):
        pres = presentation_for_vertex(space, rq, i)
        source_presentations[i] = pres
        image = pres.character_image()
        adapted = pres.adapted_basis_blocks()
        diag = is_diagonalizable_set(image.basis_classes(), adapted)
        record(f"source {i}: character image diagonalizable", "pass" if diag else "fail")
        verdict, witness = is_maximal_diagonalizable(image, budgets, adapted)
        status = {"yes": "pass", "no": "fail", "unknown": "unknown"}[verdict]
        record(f"source {i}: character image maximal", status)

    for i, vertex in enumerate(rq.vertices):
        if i in source_set:
            continue
        pres = presentation_for_vertex(space, rq, i)
        image = pres.character_image()
        family = image.basis_classes() or [space.zero_class()]
        covering, _w = realize_in_image(family, tree)
        contained = covering.character_image().contains_span(image)
        record(f"vertex {i}: image contained in a realized image", "pass" if contained else "fail")
        record_source_relation(f"vertex {i}: realized kernel has a source relation", covering.kernel)

    brute = {"enabled": False}
    if isinstance(seed.field, PrimeField) and space.dim <= 4:
        brute["enabled"] = True
        spans = enumerate_spans(space)
        # one class lies in many spans: decide each class once
        diagonal = functools.cache(is_diagonalizable_class)
        diagonalizable = [
            s for s in spans if all(map(diagonal, s.basis_classes())) and is_commuting_set(s.basis_classes())
        ]
        maximal = [
            s
            for s in diagonalizable
            if not any(o.dim > s.dim and o.contains_span(s) for o in diagonalizable)
        ]
        brute["diagonalizable_count"] = len(diagonalizable)
        brute["maximal_count"] = len(maximal)
        realized: list[tuple[ClassSpan, Presentation]] = []
        family_ok = True
        for s in maximal:
            fam = s.basis_classes() or [space.zero_class()]
            pres, _w = realize_in_image(fam, tree)
            img = pres.character_image()
            if not (img.contains_span(s) and s.contains_span(img)):
                family_ok = False
            realized.append((s, pres))
            record_source_relation("maximal subalgebra realizes over a source relation", pres.kernel)
        record(
            "maximal family equals realized character-image family",
            "pass" if family_ok else "fail",
        )
        # source images must re-appear among the maximal subalgebras
        for i, pres in source_presentations.items():
            img = pres.character_image()
            found = any(img.contains_span(s) and s.contains_span(img) for s in maximal)
            record(f"source {i}: image occurs among maximal subalgebras", "pass" if found else "fail")
        # pairwise conjugacy of maximal subalgebras
        pair_count = 0
        for (s1, p1), (s2, p2) in itertools.combinations(realized, 2):
            if p1.kernel != p2.kernel:
                record("conjugacy pair: common kernel", "unknown", "kernels are different ideals")
                continue
            rho = p2.chi.compose(p1.chi.invert())
            mapped = space.span(conjugate_class(space, rho, s1.basis_classes()))
            ok = mapped.contains_span(s2) and s2.contains_span(mapped)
            pair_count += 1
            record("conjugacy pair: automorphism carries one image onto the other", "pass" if ok else "fail")
        brute["conjugacy_pairs_checked"] = pair_count

    statuses = {status: sum(1 for c in checks if c["status"] == status) for status in ("pass", "fail", "unknown")}
    statuses["unknown"] += len(rq.unknown_candidates)
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
