import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bquiver import (
    CohomologySpace,
    FDAlgebra,
    GF,
    HomotopyOracle,
    NO,
    Presentation,
    QQ,
    YES,
    build_relation_quiver,
    classify_transvection,
    critical_taus,
    enumerate_bypasses,
    factor_to_source,
    match_dilatation,
    presentation_for_vertex,
    relations_equal,
    sources_report,
    transvection_of,
    verify_main_theorem,
)
from bquiver.relquiver import (
    COINCIDE,
    DIRECT_PREDECESSOR,
    DIRECT_SUCCESSOR,
    EQUAL_IDEALS,
    FactorizationWitness,
    enumerate_spans,
)
from bquiver.homotopy import Decision, RewriteTrace

from conftest import (
    chain_with_monomials,
    commutative_square,
    elem,
    kronecker,
    parallel_pair,
    random_dilatation,
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
    case = classify_transvection(HomotopyOracle(mono, tree), HomotopyOracle(image, tree), bp_a)
    assert case.label == DIRECT_SUCCESSOR
    assert image == diff
    assert case.source_decision.verdict == NO
    assert case.target_decision.verdict == YES
    # the untouched bypass leaves the ideal alone
    image2 = transvection_of(q, QQ, bp_b, 1).apply_to_ideal(mono)
    assert image2 == mono
    case2 = classify_transvection(HomotopyOracle(mono, tree), HomotopyOracle(image2, tree), bp_b)
    assert case2.label == EQUAL_IDEALS
    # from the finer relation back: the inverse scalar exposes a predecessor
    image3 = transvection_of(q, QQ, bp_a, 1).apply_to_ideal(diff)
    case3 = classify_transvection(HomotopyOracle(diff, tree), HomotopyOracle(image3, tree), bp_a)
    assert case3.label == DIRECT_PREDECESSOR
    assert image3 == mono
    with pytest.raises(ValueError):
        transvection_of(q, QQ, bp_a, 0)


def test_classify_transvection_coincide_case():
    q, _, diff, tree = parallel_pair(GF(3))
    bp_a = bypass_named(q, "a")
    # tau = 2 maps <c*a - c*b> to <c*a + c*b>, another trivial-group relation
    image = transvection_of(q, GF(3), bp_a, 2).apply_to_ideal(diff)
    case = classify_transvection(HomotopyOracle(diff, tree), HomotopyOracle(image, tree), bp_a)
    assert case.label == COINCIDE
    assert relations_equal(diff, image).verdict == YES


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
        assert relations_equal(rq.vertices[1].ideal, diff).verdict == YES
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
    twisted_index = rq.vertex_of_ideal(twisted)
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
            verdict = relations_equal(rq.vertices[i].ideal, rq.vertices[j].ideal).verdict
            assert verdict != YES
        for arrow in rq.arrows:
            phi = transvection_of(seed.quiver, seed.field, arrow.bypass, arrow.tau)
            assert phi.apply_to_ideal(arrow.source_ideal) == arrow.target_ideal
            assert arrow.source_back.apply_to_ideal(seed) == arrow.source_ideal
            # certified on both sides
            assert arrow.before.verdict == NO
            assert arrow.after.verdict == YES
            src_oracle = HomotopyOracle(arrow.source_ideal, rq.tree)
            tgt_oracle = HomotopyOracle(arrow.target_ideal, rq.tree)
            assert src_oracle.decide_arrow_path(arrow.bypass.arrow, arrow.bypass.path).verdict == NO
            assert tgt_oracle.decide_arrow_path(arrow.bypass.arrow, arrow.bypass.path).verdict == YES
            # the representatives carry the same relations as the endpoints
            assert relations_equal(arrow.source_ideal, rq.vertices[arrow.source].ideal).verdict == YES
            assert relations_equal(arrow.target_ideal, rq.vertices[arrow.target].ideal).verdict == YES


def test_gamma_builds_one_oracle_per_classified_transvection(monkeypatch):
    from bquiver import homotopy, relquiver

    built = []
    classified = []

    class CountingOracle(HomotopyOracle):
        def __init__(self, ideal, *args, **kwargs):
            built.append(ideal)
            super().__init__(ideal, *args, **kwargs)

    classify = relquiver.classify_transvection

    def counting_classify(*args, **kwargs):
        classified.append(args[:3])
        return classify(*args, **kwargs)

    monkeypatch.setattr(relquiver, "HomotopyOracle", CountingOracle)
    monkeypatch.setattr(homotopy, "HomotopyOracle", CountingOracle)
    monkeypatch.setattr(relquiver, "classify_transvection", counting_classify)
    q, ideal, twisted, tree = two_triangles_pair(GF(2))
    rq = build_relation_quiver(ideal, tree)
    assert len(rq.vertices) == 3 and classified
    # the seed's oracle plus at most one image oracle per classified
    # candidate; vertices and relation comparisons reuse those
    assert len(built) <= len(classified) + 1
    # and Γ never builds a second oracle for an ideal it already holds
    assert len(set(built)) == len(built)


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


def test_factor_to_source_trivial_and_single_step():
    q, mono, diff, tree = parallel_pair(QQ)
    rq = build_relation_quiver(mono, tree)
    trivial = factor_to_source(rq, 0, 0)
    assert trivial is not None
    assert trivial.steps == ()
    assert all(w == QQ.one for w in trivial.dilatation_weights.values())
    assert trivial.verify()
    witness = factor_to_source(rq, 0, 1)
    assert witness is not None
    assert len(witness.steps) == 1
    assert witness.verify()


def test_factorization_witness_for_the_char_two_twist():
    # the two-step twist maps the three-relation ideal onto itself, but only
    # the first stage carries a homotopy certificate: after returning to the
    # seed, the shortcut pair is provably non-homotopic again, so the chain
    # fails certification and the trivial witness is the certified one
    q, ideal, tree = two_triangles_full(GF(2))
    bp_a = bypass_named(q, "a")
    bp_d = bypass_named(q, "d")
    mid = transvection_of(q, GF(2), bp_a, 1).apply_to_ideal(ideal)
    end = transvection_of(q, GF(2), bp_d, 1).apply_to_ideal(mid)
    assert end == ideal
    first = HomotopyOracle(mid, tree).decide_arrow_path("a", bp_a.path)
    second = HomotopyOracle(end, tree).decide_arrow_path("d", bp_d.path)
    assert first.verdict == YES and second.verdict == NO
    witness = FactorizationWitness(
        start=ideal,
        steps=((bp_a, 1, first), (bp_d, 1, second)),
        dilatation_weights={n: 1 for n in q.arrow_names},
        end=ideal,
        tree=tree,
    )
    assert not witness.verify()
    # the certified first stage alone replays
    assert replace(witness, steps=witness.steps[:1], end=mid).verify()
    rq = build_relation_quiver(ideal, tree)
    trivial = factor_to_source(rq, 0, 0)
    assert trivial is not None and trivial.steps == () and trivial.verify()


def test_factor_to_source_budget_exhaustion_is_unknown():
    from bquiver.budgets import Budgets

    q, mono, diff, tree = parallel_pair(QQ)
    rq = build_relation_quiver(mono, tree, Budgets(factor_max_nodes=0))
    assert factor_to_source(rq, 0, 1) is None


def test_factorization_witness_replays_its_certificates():
    q, mono, diff, tree = parallel_pair(QQ)
    rq = build_relation_quiver(mono, tree)
    witness = factor_to_source(rq, 0, 1)
    (bp, tau, cert), = witness.steps
    assert cert.verdict == YES and witness.verify()
    # a missing certificate, a "no" and a trace of another word all fail
    no = HomotopyOracle(mono, tree).decide_arrow_path(bp.arrow, bp.path)
    assert no.verdict == NO
    for bad in (None, no, Decision(YES, RewriteTrace((), ()))):
        assert not replace(witness, steps=((bp, tau, bad),)).verify()
    # a forged one: the genuine trace, which inserts a relator of the ideal
    # it was found under, claimed for the step back onto the monomial
    # ideal, whose presentation has no relator
    back = FactorizationWitness(diff, ((bp, QQ.neg(tau), cert),), witness.dilatation_weights, mono, tree)
    assert transvection_of(q, QQ, bp, QQ.neg(tau)).apply_to_ideal(diff) == mono
    assert not HomotopyOracle(mono, tree).presentation.relators
    assert not back.verify()


def test_match_dilatation_roundtrip():
    rng = random.Random(41)
    for field in (QQ, GF(5)):
        q, mono, diff, _ = parallel_pair(field)
        for ideal in (mono, diff):
            for _ in range(5):
                D = random_dilatation(rng, q, field)
                target = D.apply_to_ideal(ideal)
                weights = match_dilatation(ideal, target)
                assert weights is not None
                from bquiver import dilatation

                assert dilatation(q, field, weights).apply_to_ideal(ideal) == target
    q, mono, diff, _ = parallel_pair(QQ)
    assert match_dilatation(mono, diff) is None


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
            mu = nu.twist(phi.invert())
            assert mu.kernel == arrow.target_ideal
            assert nu.character_image().contains_span(mu.character_image())
            for weights in mu.hom.basis:
                assert nu.hom.check_weights(weights)
                assert mu.embed_character(weights) == nu.embed_character(weights)


def test_presentation_for_vertex_kernels():
    q, ideal, tree = two_triangles_pair(GF(2))[0:2] + (two_triangles_pair(GF(2))[3],)
    space = CohomologySpace(FDAlgebra(ideal))
    rq = build_relation_quiver(ideal, tree)
    for i in range(len(rq.vertices)):
        pres = presentation_for_vertex(space, rq, i)
        assert pres.kernel == rq.vertices[i].ideal


def test_enumerate_spans_counts():
    q, ideal, _ = kronecker(GF(2))
    space = CohomologySpace(FDAlgebra(ideal))
    spans = enumerate_spans(space)
    # subspace counts of a 3-dimensional space over GF(2): 1 + 7 + 7 + 1
    assert len(spans) == 16
    assert len({s for s in spans}) == 16


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
    assert report["brute_force"]["conjugacy_pairs_checked"] == 3


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
    # relations; the conjugacy construction has no common kernel to work
    # over, so that one comparison stays honestly unknown
    q, pair_ideal, twisted, tree = two_triangles_pair(GF(2))
    report = verify_main_theorem(pair_ideal, tree)
    assert report["statuses"]["fail"] == 0
    assert report["statuses"]["unknown"] == 1
    assert not report["sources"]["unique_source"]
    unknowns = [c for c in report["checks"] if c["status"] == "unknown"]
    assert unknowns and unknowns[0]["name"].startswith("conjugacy pair")


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
    from bquiver.budgets import Budgets
    from conftest import random_admissible_ideal, random_field, random_quiver

    budgets = Budgets(search_max_nodes=5000)
    rng = random.Random(17)
    for k in range(300):
        q = random_quiver(rng, 6, 40)
        field = random_field(rng)
        ideal = random_admissible_ideal(rng, q, field)
        rq = build_relation_quiver(ideal, None, budgets)
        assert not rq.unknown_candidates and not rq.truncated, f"iteration {k} over {field}"
