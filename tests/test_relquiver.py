import copy
import itertools
import random
from fractions import Fraction

import pytest

from bquiver import (
    CohomologyClass,
    CohomologySpace,
    FDAlgebra,
    GF,
    HomotopyOracle,
    IdealData,
    NO,
    Presentation,
    QQ,
    Quiver,
    YES,
    build_relation_quiver,
    classify_transvection,
    critical_taus,
    enumerate_bypasses,
    homotopy_pairs,
    is_diagonalizable_set,
    is_maximal_diagonalizable,
    presentation_for_vertex,
    realize_in_image,
    sources_report,
    transvection_of,
    verify_main_theorem,
)
from bquiver.homotopy import SEARCH_MAX_NODES
from bquiver.relquiver import (
    COINCIDE,
    DIRECT_PREDECESSOR,
    DIRECT_SUCCESSOR,
    EQUAL_IDEALS,
    _incompleteness,
    enumerate_spans,
)

from conftest import (
    chain_with_monomials,
    commutative_square,
    elem,
    kronecker,
    parallel_pair,
    random_admissible_ideal,
    random_dilatation,
    random_field,
    random_quiver,
    relabeled,
    two_triangles_full,
    two_triangles_pair,
)


def bypass_named(quiver, arrow):
    return [bp for bp in enumerate_bypasses(quiver) if bp.arrow == arrow][0]


def test_critical_taus_exhaustive_over_prime_fields():
    q, mono, _, _ = parallel_pair(GF(2))
    assert critical_taus(mono, bypass_named(q, "a")) == (1,)
    q3, mono3, _, _ = parallel_pair(GF(3))
    assert critical_taus(mono3, bypass_named(q3, "a")) == (1, 2)


def test_critical_taus_rational_cancellations():
    q, mono, diff, _ = parallel_pair(QQ)
    # substituting a -> a + tau*b into c*a only creates a new coefficient
    assert critical_taus(mono, bypass_named(q, "a")) == (Fraction(-1), Fraction(1))
    # against c*a - c*b the coefficient of c*b cancels at tau = 1
    assert critical_taus(diff, bypass_named(q, "a")) == (Fraction(-1), Fraction(1))
    # scaling the second route moves the cancellation point
    scaled = type(diff)(q, QQ, [elem(q, QQ, (1, "c*a"), (-2, "c*b"))])
    assert Fraction(2) in critical_taus(scaled, bypass_named(q, "a"))
    # a bypass whose arrow never occurs keeps just the default scalars
    assert critical_taus(mono, bypass_named(q, "b")) == (Fraction(-1), Fraction(1))


def test_classify_transvection_cases():
    q, mono, diff, tree = parallel_pair(QQ)
    bp_a, bp_b = bypass_named(q, "a"), bypass_named(q, "b")
    image = transvection_of(q, QQ, bp_a, -1).apply_to_ideal(mono)
    case = classify_transvection(HomotopyOracle(mono, tree), HomotopyOracle(image, tree), bp_a, mono, image)
    assert case.label == DIRECT_SUCCESSOR
    assert image == diff
    assert case.source_decision.verdict == NO
    assert case.target_decision.verdict == YES
    # the untouched bypass leaves the ideal alone
    image2 = transvection_of(q, QQ, bp_b, 1).apply_to_ideal(mono)
    assert image2 == mono
    case2 = classify_transvection(HomotopyOracle(mono, tree), HomotopyOracle(image2, tree), bp_b, mono, image2)
    assert case2.label == EQUAL_IDEALS
    # from the finer relation back: the inverse scalar exposes a predecessor
    image3 = transvection_of(q, QQ, bp_a, 1).apply_to_ideal(diff)
    case3 = classify_transvection(HomotopyOracle(diff, tree), HomotopyOracle(image3, tree), bp_a, diff, image3)
    assert case3.label == DIRECT_PREDECESSOR
    assert image3 == mono
    with pytest.raises(ValueError):
        transvection_of(q, QQ, bp_a, 0)


def test_classify_transvection_coincide_case():
    q, _, diff, tree = parallel_pair(GF(3))
    bp_a = bypass_named(q, "a")
    # tau = 2 maps <c*a - c*b> to <c*a + c*b>, another trivial-group relation
    image = transvection_of(q, GF(3), bp_a, 2).apply_to_ideal(diff)
    case = classify_transvection(HomotopyOracle(diff, tree), HomotopyOracle(image, tree), bp_a, diff, image)
    assert case.label == COINCIDE
    assert HomotopyOracle(diff).same_relation(HomotopyOracle(image)).verdict == YES


def test_build_relation_quiver_parallel_pair():
    for field in (QQ, GF(2), GF(3)):
        q, mono, diff, tree = parallel_pair(field)
        rq = build_relation_quiver(mono, tree)
        assert len(rq.vertices) == 2
        assert len(rq.arrows) == 1
        assert rq.unknown_candidates == []
        assert not rq.truncated
        arrow = rq.arrows[0]
        assert (arrow.source, arrow.target) == (0, 1)
        assert HomotopyOracle(rq.vertices[1].ideal).same_relation(HomotopyOracle(diff)).verdict == YES
        report = sources_report(rq)
        assert report["sources"] == [0]
        assert report["unique_source"]
        # neither sufficient hypothesis applies, yet the sweep is complete
        assert not report["hypothesis_no_double_bypass_char0"]
        assert not report["hypothesis_monomial_no_multiple_arrows"]
        assert report["complete"]


def test_relation_quiver_without_bypasses_is_a_point():
    q, ideal, tree = chain_with_monomials(4, QQ, cuts=(0,))
    rq = build_relation_quiver(ideal, tree)
    assert len(rq.vertices) == 1
    assert rq.arrows == []
    assert sources_report(rq)["sources"] == [0]


def test_relation_quiver_kronecker_single_vertex():
    q, ideal, tree = kronecker(QQ)
    rq = build_relation_quiver(ideal, tree)
    assert len(rq.vertices) == 1
    assert rq.arrows == []


def test_relation_quiver_two_triangles_full():
    q, ideal, tree = two_triangles_full(GF(2))
    rq = build_relation_quiver(ideal, tree)
    # the single transvection on either shortcut collapses the fundamental
    # group, producing one finer relation below the seed
    assert len(rq.vertices) == 2
    assert [(a.source, a.target) for a in rq.arrows] == [(0, 1)]
    report = sources_report(rq)
    assert report["unique_source"] and report["sources"] == [0]


def test_relation_quiver_two_triangles_pair_has_two_sources():
    q, ideal, twisted, tree = two_triangles_pair(GF(2))
    rq = build_relation_quiver(ideal, tree)
    assert len(rq.vertices) == 3
    report = sources_report(rq)
    twisted_index = [v.ideal for v in rq.vertices].index(twisted)
    assert twisted_index is not None
    assert sorted(report["sources"]) == sorted([0, twisted_index])
    assert not report["unique_source"]
    # both sources flow into the shared trivial-relation vertex
    sink = ({0, 1, 2} - {0, twisted_index}).pop()
    assert sorted((a.source, a.target) for a in rq.arrows) == sorted(
        [(0, sink), (twisted_index, sink)]
    )


def test_arrow_witnesses_replay():
    from conftest import random_admissible_ideal, random_quiver

    instances = [
        (parallel_pair(QQ)[1], None),
        (parallel_pair(GF(3))[1], None),
        (two_triangles_full(GF(2))[1], None),
        (two_triangles_pair(GF(2))[1], None),
    ]
    # Γ under a preferred tree that is not the default one
    q, pair_ideal, _, preferred = two_triangles_pair(GF(2))
    assert preferred.arrow_names != q.spanning_tree(q.vertices[0]).arrow_names
    instances.append((pair_ideal, preferred))
    rng = random.Random(2024)
    for field in (GF(2), GF(3), QQ):
        for _ in range(12):
            q = random_quiver(rng)
            instances.append((random_admissible_ideal(rng, q, field), None))
    for seed, tree in instances:
        rq = build_relation_quiver(seed, tree)
        # distinct vertices carry distinct relations, also under fresh
        # default-tree oracles, unless the sweep flagged them as ambiguous
        definite = [i for i in range(len(rq.vertices)) if i not in rq.ambiguous_vertices]
        for i, j in itertools.combinations(definite, 2):
            first, second = HomotopyOracle(rq.vertices[i].ideal), HomotopyOracle(rq.vertices[j].ideal)
            assert first.same_relation(second).verdict != YES
        for arrow in rq.arrows:
            phi = transvection_of(seed.quiver, seed.field, arrow.bypass, arrow.tau)
            assert phi.apply_to_ideal(arrow.source_ideal) == arrow.target_ideal
            assert arrow.source_back.apply_to_ideal(seed) == arrow.source_ideal
            # certified on both sides
            assert arrow.before.verdict == NO
            assert arrow.after.verdict == YES
            assert arrow.after.certificate.replay(homotopy_pairs(arrow.target_ideal))
            src_oracle = HomotopyOracle(arrow.source_ideal, rq.tree)
            tgt_oracle = HomotopyOracle(arrow.target_ideal, rq.tree)
            assert src_oracle.decide_arrow_path(arrow.bypass.arrow, arrow.bypass.path).verdict == NO
            assert tgt_oracle.decide_arrow_path(arrow.bypass.arrow, arrow.bypass.path).verdict == YES
            # the representatives carry the same relations as the endpoints
            for ideal, vertex in ((arrow.source_ideal, arrow.source), (arrow.target_ideal, arrow.target)):
                fresh = HomotopyOracle(rq.vertices[vertex].ideal)
                assert HomotopyOracle(ideal).same_relation(fresh).verdict == YES


def test_gamma_builds_one_oracle_per_classified_transvection(monkeypatch):
    from bquiver import homotopy, relquiver

    built = []
    classified = []

    class CountingOracle(HomotopyOracle):
        def __init__(self, ideal, *args, **kwargs):
            super().__init__(ideal, *args, **kwargs)
            built.append((ideal, self.pairs))

    classify = relquiver.classify_transvection

    def counting_classify(*args, **kwargs):
        classified.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(relquiver, "HomotopyOracle", CountingOracle)
    monkeypatch.setattr(homotopy, "HomotopyOracle", CountingOracle)
    monkeypatch.setattr(relquiver, "classify_transvection", counting_classify)
    # over GF(3), <c*a + c*b> and <c*a + 2*c*b> carry the same pairs
    for (q, ideal, twisted, tree), vertex_count in ((two_triangles_pair(GF(2)), 3), (parallel_pair(GF(3)), 2)):
        built.clear()
        classified.clear()
        rq = build_relation_quiver(ideal, tree)
        assert len(rq.vertices) == vertex_count and classified
        # the seed's oracle plus at most one image oracle per classified
        # candidate; vertices and relation comparisons reuse those
        assert len(built) <= len(classified) + 1
        # and Γ never builds a second oracle for an ideal it already holds,
        # nor for a homotopy relation it already holds: one oracle per pair set
        ideals = [i for i, _ in built]
        assert len(set(ideals)) == len(ideals)
        pairs = [p for _, p in built]
        assert len(set(pairs)) == len(pairs)
        held = {ideal} | {i for args in classified for i in args[3:]}
        assert all(rq.oracle(i).pairs == homotopy.homotopy_pairs(i) for i in held)
    # the last Γ held more ideals than relations
    assert len(held) > len(built)


def test_a_shared_oracle_keeps_the_equal_ideals_guard():
    # monomial ideals have no homotopy pairs, so Γ gives <c*a> and <c*b>
    # one oracle, whose own ideal is the first of them it saw
    q, mono, _, tree = parallel_pair(QQ)
    other = type(mono)(q, QQ, [elem(q, QQ, (1, "c*b"))])
    rq = build_relation_quiver(mono, tree)
    oracle = rq.oracle(mono)
    assert rq.oracle(other) is oracle and oracle.ideal == mono != other
    bp_b = bypass_named(q, "b")
    assert oracle.decide_arrow_path(bp_b.arrow, bp_b.path).verdict == NO
    assert classify_transvection(oracle, oracle, bp_b, mono, mono).label == EQUAL_IDEALS
    # both sides non-homotopic while the ideals the caller holds differ
    with pytest.raises(RuntimeError, match="soundness"):
        classify_transvection(oracle, oracle, bp_b, mono, other)
    with pytest.raises(RuntimeError, match="soundness"):
        classify_transvection(oracle, oracle, bp_b, other, mono)


def test_splices_decide_the_fixed_ideals_and_span_the_images():
    # the sweep's fix test and image rows against the transvection itself,
    # for every bypass and every critical tau of random bound quivers
    from bquiver.relquiver import _moving_splices, _splice, _transvected
    from conftest import random_admissible_ideal, random_quiver

    rng = random.Random(12)
    for field in (GF(2), GF(3), GF(5), QQ):
        seen = {True: 0, False: 0}
        for _ in range(20):
            q = random_quiver(rng, 6, 40)
            ideal = random_admissible_ideal(rng, q, field)
            for bp in enumerate_bypasses(q):
                fixed = _moving_splices(ideal, bp) is None
                splices = [_splice(b, bp) for b in ideal.basis]
                for tau in critical_taus(ideal, bp):
                    image = transvection_of(q, field, bp, tau).apply_to_ideal(ideal)
                    assert fixed == (image == ideal)
                    assert _transvected(ideal, splices, tau) == image
                    seen[fixed] += 1
        assert seen[True] and seen[False], field


def test_fixed_candidates_still_count_towards_truncation(monkeypatch):
    from bquiver import relquiver
    from bquiver.relquiver import _moving_splices

    q, ideal, _, tree = parallel_pair(GF(3))
    rq = build_relation_quiver(ideal, tree)
    assert not rq.truncated and len(rq.vertices) > 1
    bypasses = enumerate_bypasses(q)
    n = sum(len(critical_taus(v.ideal, bp)) for v in rq.vertices for bp in bypasses)
    # some candidates are skipped by the fix test, yet they are counted
    assert any(_moving_splices(v.ideal, bp) is None for v in rq.vertices for bp in bypasses)
    monkeypatch.setattr(relquiver, "_GRAPH_MAX_CANDIDATES", n)
    exact = build_relation_quiver(ideal, tree)
    assert not exact.truncated
    assert [v.ideal for v in exact.vertices] == [v.ideal for v in rq.vertices]
    monkeypatch.setattr(relquiver, "_GRAPH_MAX_CANDIDATES", n - 1)
    assert build_relation_quiver(ideal, tree).truncated


def test_an_incomplete_gamma_names_each_cause():
    _, ideal, _, tree = parallel_pair(GF(3))
    rq = build_relation_quiver(ideal, tree)
    assert _incompleteness(rq) is None and sources_report(rq)["complete"]
    gappy = copy.copy(rq)
    gappy.truncated, gappy.unknown_candidates, gappy.ambiguous_vertices = True, [None], [1, 2]
    causes = "Γ truncated; unknown candidates; ambiguous vertex 1; ambiguous vertex 2"
    assert _incompleteness(gappy) == causes
    assert not sources_report(gappy)["complete"]


def test_definite_arrows_form_a_dag():
    for seed in [parallel_pair(QQ)[1], two_triangles_pair(GF(2))[1]]:
        rq = build_relation_quiver(seed)
        adjacency = {i: [] for i in range(len(rq.vertices))}
        for a in rq.arrows:
            assert a.source != a.target
            adjacency[a.source].append(a.target)
        state = {}

        def visit(v):
            state[v] = 1
            for w in adjacency[v]:
                assert state.get(w) != 1
                if w not in state:
                    visit(w)
            state[v] = 2

        for v in adjacency:
            if v not in state:
                visit(v)


def test_factorization_witness_for_the_char_two_twist():
    # the two-step twist maps the three-relation ideal onto itself, but it is
    # no certified factorization: only the first stage carries a homotopy
    # certificate, and after returning to the seed the shortcut pair is
    # provably non-homotopic again
    q, ideal, tree = two_triangles_full(GF(2))
    bp_a = bypass_named(q, "a")
    bp_d = bypass_named(q, "d")
    mid = transvection_of(q, GF(2), bp_a, 1).apply_to_ideal(ideal)
    end = transvection_of(q, GF(2), bp_d, 1).apply_to_ideal(mid)
    assert end == ideal
    first = HomotopyOracle(mid, tree).decide_arrow_path("a", bp_a.path)
    second = HomotopyOracle(end, tree).decide_arrow_path("d", bp_d.path)
    assert first.verdict == YES and second.verdict == NO


def test_inclusion_along_arrows_and_the_pullback_triangle():
    # along every definite arrow the finer image sits inside the coarser one
    # and restricting a character through the projection commutes with the
    # embeddings
    instances = [
        parallel_pair(QQ)[1],
        parallel_pair(GF(3))[1],
        two_triangles_full(GF(2))[1],
        two_triangles_pair(GF(2))[1],
    ]
    for seed in instances:
        space = CohomologySpace(FDAlgebra(seed))
        rq = build_relation_quiver(seed)
        for arrow in rq.arrows:
            nu = Presentation(space, arrow.source_back.invert(), rq.tree)
            assert nu.kernel == arrow.source_ideal
            phi = transvection_of(seed.quiver, seed.field, arrow.bypass, arrow.tau)
            mu = Presentation(space, nu.chi.compose(phi.invert()), nu.tree)
            assert mu.kernel == arrow.target_ideal
            assert nu.character_image().contains_span(mu.character_image())
            for weights in mu.hom:
                assert nu.group.check_weights(nu.field, weights)
                assert mu.embed_character(weights) == nu.embed_character(weights)


def test_presentation_for_vertex_kernels():
    q, ideal, tree = two_triangles_pair(GF(2))[0:2] + (two_triangles_pair(GF(2))[3],)
    space = CohomologySpace(FDAlgebra(ideal))
    rq = build_relation_quiver(ideal, tree)
    for i in range(len(rq.vertices)):
        pres = presentation_for_vertex(space, rq, i)
        assert pres.kernel == rq.vertices[i].ideal


def _every_span_filtered(space):
    """The reference brute force: every subspace of the cohomology in echelon
    form, by dimension, then pivots, then entries; the diagonalizable ones
    (each echelon basis class diagonalizable, every pair commuting); and the
    maximal ones, tested against the maximal spans of higher dimension from
    the top down.  Returns ``{span: maximal}`` in that order."""
    f = space.field
    columns = [min(b.coords) for b in space.basis_classes()]
    n = len(columns)
    spans = [space.span([])]
    for r in range(1, n + 1):
        for pivots in itertools.combinations(range(n), r):
            free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, n) if j not in pivots]
            for fill in itertools.product(f.elements(), repeat=len(free)):
                rows = [{columns[pv]: f.one} for pv in pivots]
                for (i, j), x in zip(free, fill):
                    if x:
                        rows[i][columns[j]] = x
                spans.append(space.span(CohomologyClass(space, row) for row in rows))
    diagonalizable = [s for s in spans if is_diagonalizable_set(s.basis_classes())]
    above = []
    for d in sorted({s.dim for s in diagonalizable}, reverse=True):
        above += [s for s in diagonalizable if s.dim == d and not any(o.contains_span(s) for o in above)]
    return {s: s in above for s in diagonalizable}


def test_enumerate_spans_matches_every_subspace_filtered():
    # seeded instances with dim HH^1 1..3 over GF(2), GF(3) and GF(5) and 4
    # over GF(2), plus the Kronecker cohomology, whose lines do not all commute
    from conftest import random_admissible_ideal, random_quiver

    rng = random.Random(2)
    wanted = {(2, "1-3"): 4, (3, "1-3"): 4, (5, "1-3"): 4, (2, "4"): 2}
    seeds = [kronecker(GF(p))[1] for p in (2, 3, 5)]
    while any(wanted.values()):
        q = random_quiver(rng, 5, 30)
        p = rng.choice([2, 3, 5])
        ideal = random_admissible_ideal(rng, q, GF(p))
        dim = CohomologySpace(FDAlgebra(ideal)).dim
        key = (p, "1-3" if 1 <= dim <= 3 else str(dim))
        if wanted.get(key):
            wanted[key] -= 1
            seeds.append(ideal)

    def rows_of(span):
        return [c.coords for c in span.basis_classes()]

    maximal_dims = set()
    for ideal in seeds:
        # separate spaces, so neither side reads the other's memos
        grown = enumerate_spans(CohomologySpace(FDAlgebra(ideal)))
        reference = _every_span_filtered(CohomologySpace(FDAlgebra(ideal)))
        assert [(rows_of(s), m) for s, m in grown.items()] == [(rows_of(s), m) for s, m in reference.items()]
        maximal_dims |= {s.dim for s, m in grown.items() if m}
    assert maximal_dims == {1, 2}
    with pytest.raises(ValueError):
        enumerate_spans(CohomologySpace(FDAlgebra(kronecker(QQ)[1])))


def test_enumerate_spans_agrees_with_the_maximality_test():
    # both grow a span by the same step, so a span is flagged maximal exactly
    # when is_maximal_diagonalizable says "yes" on it
    from conftest import random_admissible_ideal, random_quiver

    rng = random.Random(2027)
    instances = checked = 0
    for _ in range(120):
        field = rng.choice([GF(2), GF(3), GF(5)])
        ideal = random_admissible_ideal(rng, random_quiver(rng), field)
        space = CohomologySpace(FDAlgebra(ideal))
        if not 1 <= space.dim <= 4:
            continue
        instances += 1
        for span, maximal in enumerate_spans(space).items():
            assert (is_maximal_diagonalizable(span)[0] == YES) == maximal
            checked += 1
    assert instances > 40 and checked > 800


def test_verify_main_theorem_parallel_pair_gf3():
    q, mono, _, tree = parallel_pair(GF(3))
    report = verify_main_theorem(mono, tree)
    assert report["ok"]
    assert report["statuses"]["fail"] == 0
    assert report["statuses"]["unknown"] == 0
    assert report["gamma"]["vertex_count"] == 2
    assert report["gamma"]["arrow_count"] == 1
    assert report["sources"]["unique_source"]
    assert report["brute_force"]["enabled"]
    assert report["brute_force"]["maximal_count"] == 3
    assert report["brute_force"]["conjugated_onto_source"] == 3


def test_verify_main_theorem_kronecker():
    q, ideal, tree = kronecker(GF(3))
    report = verify_main_theorem(ideal, tree)
    assert report["ok"]
    assert report["gamma"]["vertex_count"] == 1
    assert report["sources"]["unique_source"]


def test_verify_main_theorem_bound_square():
    q, ideal, tree = commutative_square(GF(2))
    report = verify_main_theorem(ideal, tree)
    assert report["ok"]


def test_verify_main_theorem_two_triangles_variants():
    # the three-relation ideal: two maximal subalgebras over GF(2), all
    # checks definite
    q, full, tree = two_triangles_full(GF(2))
    report = verify_main_theorem(full, tree)
    assert report["ok"]
    assert report["brute_force"]["maximal_count"] == 2
    assert report["gamma"]["vertex_count"] == 2
    # the two-relation ideal has two sources with different homotopy
    # relations; each of its two maximal subalgebras realizes over the
    # kernel of its own source and is carried onto that source's image
    q, pair_ideal, twisted, tree = two_triangles_pair(GF(2))
    report = verify_main_theorem(pair_ideal, tree)
    assert report["statuses"] == {"pass": 13, "fail": 0, "unknown": 0}
    assert not report["sources"]["unique_source"]
    assert report["brute_force"]["maximal_count"] == 2
    assert report["brute_force"]["conjugated_onto_source"] == 2
    rq = build_relation_quiver(pair_ideal, tree)
    space = CohomologySpace(FDAlgebra(pair_ideal))
    kernels = [realize_in_image(s.basis_classes(), tree).kernel for s, top in enumerate_spans(space).items() if top]
    assert len(kernels) == 2
    assert set(kernels) == {rq.vertices[i].ideal for i in report["sources"]["sources"]}
    conjugacy = [c["status"] for c in report["checks"] if c["name"] == "maximal subalgebra conjugate onto a source image"]
    assert conjugacy == ["pass", "pass"]


def test_relation_quiver_robust_on_random_instances():
    from conftest import random_admissible_ideal, random_quiver, random_field

    rng = random.Random(333)
    for _ in range(12):
        q = random_quiver(rng, max_vertices=4, max_paths=25)
        field = random_field(rng)
        ideal = random_admissible_ideal(rng, q, field)
        rq = build_relation_quiver(ideal)
        report = sources_report(rq)
        assert report["sources"], "a finite acyclic graph always has a source"
        for arrow in rq.arrows:
            assert arrow.before.verdict == NO
            assert arrow.after.verdict == YES
            assert arrow.after.certificate.replay(homotopy_pairs(arrow.target_ideal))
        # every vertex is reachable from some source along definite arrows
        # or was quarantined as ambiguous
        reachable = set(report["sources"])
        changed = True
        while changed:
            changed = False
            for a in rq.arrows:
                if a.source in reachable and a.target not in reachable:
                    reachable.add(a.target)
                    changed = True
        assert reachable == set(range(len(rq.vertices))) or rq.unknown_candidates or rq.ambiguous_vertices


def test_seed3_75_gamma_is_complete_with_one_arrow():
    # Random(3), iteration 75: the transvection e -> e - d gives the ideal
    # <e*f*a - d*f*a>, whose one relator f*e^-1*f^-1 makes e trivial only
    # through its cyclic reduction e^-1
    from conftest import random_admissible_ideal, random_quiver

    rng = random.Random(3)
    for _ in range(76):
        q = random_quiver(rng, 6, 40)
        ideal = random_admissible_ideal(rng, q, QQ)
    assert [(a.name, a.source, a.target) for a in q.arrows] == [
        ("a", "1", "2"), ("b", "1", "3"), ("c", "1", "4"), ("d", "4", "5"), ("e", "4", "5"), ("f", "2", "4"),
    ]
    assert [str(p) for p in ideal.pivot_paths] == ["e*f*a"] and ideal.is_monomial()
    rq = build_relation_quiver(ideal)
    report = sources_report(rq)
    assert (len(rq.vertices), len(rq.arrows), len(rq.unknown_candidates)) == (2, 1, 0)
    assert report["complete"] and report["unique_source"]
    arrow = rq.arrows[0]
    assert (arrow.bypass.arrow, str(arrow.bypass.path)) == ("e", "d")
    assert arrow.before.verdict == NO and arrow.after.verdict == YES


def test_seeded_sweep_decides_every_candidate():
    # Sweep-17: 300 random bound quivers over random fields, each Γ built
    # with a 5000-node search budget, leave no candidate undecided and no
    # sweep truncated
    from conftest import random_admissible_ideal, random_field, random_quiver

    rng = random.Random(17)
    for k in range(300):
        q = random_quiver(rng, 6, 40)
        field = random_field(rng)
        ideal = random_admissible_ideal(rng, q, field)
        rq = build_relation_quiver(ideal, None, search_max_nodes=5000)
        assert not rq.unknown_candidates and not rq.truncated, f"iteration {k} over {field}"


def algebra_summary(ideal):
    """dim HH^1 and the shape of Gamma at the default budget, from the
    default tree: what relabeling and reseeding must leave unchanged."""
    rq = build_relation_quiver(ideal)
    report = sources_report(rq)
    return CohomologySpace(FDAlgebra(ideal)).dim, len(rq.vertices), len(rq.arrows), len(report["sources"]), report["complete"]


def test_relabeling_and_reseeding_keep_dim_and_gamma_shape():
    # Sweep-23: two relabelings of each instance
    rng = random.Random(23)
    differ = []
    for k in range(200):
        q = random_quiver(rng, 6, 40)
        field = random_field(rng)
        ideal = random_admissible_ideal(rng, q, field)
        if field is QQ:
            field = GF(rng.choice([2, 3, 5]))
            ideal = random_admissible_ideal(rng, q, field)
        summary = algebra_summary(ideal)
        differ += [("Sweep-23", k) for _ in range(2) if algebra_summary(relabeled(rng, ideal)) != summary]
    # Sweep-31: a dilatation image, and reseedings from up to two other vertices of Gamma
    rng = random.Random(31)
    for k in range(150):
        q = random_quiver(rng, 6, 40)
        ideal = random_admissible_ideal(rng, q, QQ)
        summary = algebra_summary(ideal)
        rq = build_relation_quiver(ideal)
        others = [random_dilatation(rng, q, QQ).apply_to_ideal(ideal)] + [v.ideal for v in rq.vertices[1:3]]
        differ += [("Sweep-31", k) for other in others if algebra_summary(other) != summary]
    assert not differ, f"summaries differ on {differ}"



def test_sweep_23_58_has_no_ambiguous_vertex():
    # Sweep-23 #58: 1 => 2 => 3 over GF(3); the word search left vertex 10
    # ambiguous at node limit 5000, and an eleventh vertex beside it
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2"), ("d", "2", "3"), ("e", "2", "3")])
    ideal = IdealData(q, GF(3), [elem(q, GF(3), (1, "b*a")), elem(q, GF(3), (1, "e*c"))])
    for limit in (SEARCH_MAX_NODES, 5000):
        rq = build_relation_quiver(ideal, None, limit)
        assert (len(rq.vertices), rq.ambiguous_vertices, rq.unknown_candidates, rq.truncated) == (10, [], [], False)
        assert sources_report(rq)["complete"]
