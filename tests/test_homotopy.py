import random

import pytest

from bquiver import (
    GF,
    QQ,
    GroupPresentation,
    HomotopyOracle,
    IdealData,
    NO,
    UNKNOWN,
    YES,
    abelian_invariants,
    homotopy_pairs,
    Quiver,
)
from bquiver import homotopy
from bquiver.homotopy import AbelianCertificate, ClosureProof, RewriteTrace
from bquiver.linalg import _clean, nullspace

from conftest import (
    commutative_square,
    elem,
    kronecker,
    parallel_pair,
    random_admissible_ideal,
    random_dilatation,
    random_field,
    random_quiver,
    two_triangles_full,
    two_triangles_pair,
)


def test_homotopy_pairs_of_golden_ideals():
    q, mono, diff, _ = parallel_pair(QQ)
    assert homotopy_pairs(mono) == ()
    assert [(str(u), str(v)) for u, v in homotopy_pairs(diff)] == [("c*a", "c*b")]
    q5, pair_ideal, twisted, _ = two_triangles_pair(GF(2))
    assert [(str(u), str(v)) for u, v in homotopy_pairs(twisted)] == [
        ("f*e*a", "d*c*b"),
        ("d*a", "f*e*c*b"),
    ]


def test_presentations_of_parallel_pair():
    q, mono, diff, tree = parallel_pair(QQ)
    free = GroupPresentation(q, tree, homotopy_pairs(mono))
    assert free.generators == ("b",)
    assert free.relators == ()
    killed = GroupPresentation(q, tree, homotopy_pairs(diff))
    assert killed.generators == ("b",)
    assert [killed.show_word(r) for r in killed.relators] == ["b^-1"]


def test_presentation_requires_parallel_pairs():
    q, mono, _, tree = parallel_pair(QQ)
    with pytest.raises(ValueError):
        GroupPresentation(q, tree, [(q.arrow_path("a"), q.arrow_path("c"))])


def test_abelian_invariants_golden():
    q, mono, diff, tree = parallel_pair(QQ)
    inv_free = abelian_invariants(GroupPresentation(q, tree, homotopy_pairs(mono)))
    assert (inv_free.free_rank, inv_free.torsion) == (1, ())
    inv_trivial = abelian_invariants(GroupPresentation(q, tree, homotopy_pairs(diff)))
    assert inv_trivial.is_trivial

    q5, pair_ideal, twisted, tree5 = two_triangles_pair(GF(2))
    inv_pair = abelian_invariants(GroupPresentation(q5, tree5, homotopy_pairs(pair_ideal)))
    assert (inv_pair.free_rank, inv_pair.torsion) == (1, ())
    # generators a and d with relations a = d and a + d = 0
    inv_twisted = abelian_invariants(GroupPresentation(q5, tree5, homotopy_pairs(twisted)))
    assert (inv_twisted.free_rank, inv_twisted.torsion) == (0, (2,))
    assert str(inv_twisted) == "Z/2"


def test_abelian_invariants_free_case():
    q, ideal, tree = kronecker(QQ)
    inv = abelian_invariants(GroupPresentation(q, tree, homotopy_pairs(ideal)))
    assert (inv.free_rank, inv.torsion) == (1, ())


def test_hom_space_dimensions():
    for field in (QQ, GF(2)):
        q, mono, diff, tree = parallel_pair(field)
        assert len(GroupPresentation(q, tree, homotopy_pairs(mono)).characters(field)) == 1
        assert len(GroupPresentation(q, tree, homotopy_pairs(diff)).characters(field)) == 0
    q5, pair_ideal, twisted, tree5 = two_triangles_pair(GF(2))
    assert len(GroupPresentation(q5, tree5, homotopy_pairs(twisted)).characters(GF(2))) == 1
    _, _, twisted_q, tree5q = two_triangles_pair(QQ)
    assert len(GroupPresentation(q5, tree5q, homotopy_pairs(twisted_q)).characters(QQ)) == 0


def test_hom_space_basis_weights():
    q, ideal, tree = two_triangles_full(GF(2))
    pres = GroupPresentation(q, tree, homotopy_pairs(ideal))
    basis = pres.characters(GF(2))
    assert len(basis) == 1
    assert basis == [{"a": 1, "d": 1}]
    assert pres.check_weights(GF(2), {"a": 1, "d": 1})
    assert not pres.check_weights(GF(2), {"a": 1})
    assert not pres.check_weights(GF(2), {"a": 1, "d": 1, "b": 1})


def test_hom_dimension_matches_abelian_invariants():
    # characters over k count the free rank plus the p-divisible torsion
    instances = [
        parallel_pair(QQ)[1],
        parallel_pair(QQ)[2],
        two_triangles_pair(QQ)[2],
        two_triangles_pair(GF(2))[2],
        two_triangles_full(GF(2))[1],
    ]
    for ideal in instances:
        q = ideal.quiver
        field = ideal.field
        tree = q.spanning_tree(q.vertices[0])
        pairs = homotopy_pairs(ideal)
        inv = abelian_invariants(GroupPresentation(q, tree, pairs))
        expected = inv.free_rank
        if field.characteristic:
            expected += sum(1 for d in inv.torsion if d % field.characteristic == 0)
        assert len(GroupPresentation(q, tree, pairs).characters(field)) == expected


def test_decide_homotopic_golden_cases():
    q, mono, diff, tree = parallel_pair(QQ)
    a, b = q.arrow_path("a"), q.arrow_path("b")
    oracle = HomotopyOracle(diff)
    yes = oracle.decide_paths(a, b)
    assert yes.verdict == YES
    assert yes.certificate.replay(oracle.pairs)
    # c*a ~ c*b is the pair itself; a ~ b cuts the common arrow c
    assert [via for _, _, via in yes.certificate.merges] == [None, (("a", "c"), ("b", "c"))]
    no = HomotopyOracle(mono).decide_paths(a, b)
    assert no.verdict == NO
    oracle = HomotopyOracle(mono, tree)
    word = oracle.presentation.word_of_pair(a, b)
    assert no.certificate.verify(oracle.presentation, word)
    e1 = q.trivial_path("1")
    trivial = HomotopyOracle(mono).decide_paths(e1, e1)
    assert trivial == (YES, ClosureProof(e1, e1, ()))
    assert trivial.certificate.replay(())
    # the relator f*e^-1*f^-1 kills e; the closure joins d and e by cutting
    # a, then f, off the start of the pair d*f*a ~ e*f*a, and then adds c
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [("a", "1", "2"), ("b", "1", "3"), ("c", "1", "4"), ("d", "4", "5"), ("e", "4", "5"), ("f", "2", "4")],
    )
    ideal = IdealData(q, QQ, [elem(q, QQ, (1, "e*f*a"), (-1, "d*f*a"))])
    oracle = HomotopyOracle(ideal)
    assert [oracle.presentation.show_word(r) for r in oracle.presentation.relators] == ["f*e^-1*f^-1"]
    d = oracle.decide_arrow_path("e", q.arrow_path("d"))
    assert d.verdict == YES and d.certificate.replay(oracle.pairs)
    assert [(x, y) for x, y, _ in d.certificate.merges] == [
        (("a", "f", "d"), ("a", "f", "e")), (("f", "d"), ("f", "e")), (("d",), ("e",)), (("c", "d"), ("c", "e"))
    ]


def test_decide_homotopic_rejects_non_parallel():
    q, mono, _, _ = parallel_pair(QQ)
    with pytest.raises(ValueError):
        HomotopyOracle(mono).decide_paths(q.arrow_path("a"), q.arrow_path("c"))


def test_decide_tree_detour_is_homotopic():
    # along a path and back along it is a word with a cancelling pair
    # (generator b and its inverse), freely equal to the unit
    q, mono, _, _ = parallel_pair(QQ)
    oracle = HomotopyOracle(mono)
    u = q.path(["b", "c"])
    assert oracle.presentation.generators == ("b",)
    assert oracle.presentation.word_of_path(u) == (1,)
    assert oracle.presentation.word_of_pair(u, u) == ()
    assert oracle.decide_paths(u, u).verdict == YES


def test_decide_budget_exhaustion_goes_unknown():
    # the quiver has 5 nontrivial paths: a, b, c, c*a and c*b, and the word
    # of a and b is one relator insertion from the unit
    q, mono, diff, tree = parallel_pair(QQ)
    a, b = q.arrow_path("a"), q.arrow_path("b")
    for limit in (0, 1):
        d = HomotopyOracle(diff, search_max_nodes=limit).decide_paths(a, b)
        assert d == (
            UNKNOWN,
            f"no closure: 5 nontrivial paths, over the node limit {limit}; the abelianization does not"
            f" separate them, and the word search finds no proof in {limit} words",
        )
        # the abelian "no" and a path's homotopy to itself need no closure
        assert HomotopyOracle(mono, search_max_nodes=limit).decide_paths(a, b).verdict == NO
        assert HomotopyOracle(diff, search_max_nodes=limit).decide_paths(a, a).verdict == YES
    # under the closure's limit the search proves it, and at 5 the closure
    oracle = HomotopyOracle(diff, search_max_nodes=4)
    d = oracle.decide_paths(a, b)
    assert d == (YES, RewriteTrace(a, b, d.certificate.steps)) and d.certificate.replay(oracle.presentation)
    assert type(HomotopyOracle(diff, search_max_nodes=5).decide_paths(a, b).certificate) is ClosureProof


def test_an_unknown_past_the_closure_names_its_cause():
    # 1 => 2 => 3 => 4 with one binomial relation: z1*y0*x0 ~ z0*y0*x1 says
    # nothing about the same routes through y1, which the abelianization
    # cannot tell apart
    q = Quiver(
        ["1", "2", "3", "4"],
        [(f"{n}{i}", str(s), str(s + 1)) for s, n in ((1, "x"), (2, "y"), (3, "z")) for i in (0, 1)],
    )
    ideal = IdealData(q, QQ, [elem(q, QQ, (1, "z1*y0*x0"), (-1, "z0*y0*x1"))])
    oracle = HomotopyOracle(ideal, search_max_nodes=1000)
    u, v = q.path(["x0", "y1", "z1"]), q.path(["x1", "y1", "z0"])
    assert oracle.decide_paths(u, v) == (
        UNKNOWN,
        "the closure does not join the paths, the abelianization does not separate them, and the word"
        " search finds no proof in 1000 words",
    )
    assert oracle.decide_paths(*oracle.pairs[0]).verdict == YES


def test_decide_never_contradicts_itself():
    rng = random.Random(31)
    for _ in range(10):
        q = random_quiver(rng)
        field = rng.choice([QQ, GF(2)])
        ideal = random_admissible_ideal(rng, q, field)
        oracle = HomotopyOracle(ideal)
        paths = [p for p in q.all_paths() if not p.is_trivial]
        for _ in range(5):
            u = rng.choice(paths)
            partners = [p for p in paths if p.source == u.source and p.target == u.target]
            v = rng.choice(partners)
            d1 = oracle.decide_paths(u, v)
            d2 = oracle.decide_paths(v, u)
            assert {d1.verdict, d2.verdict} != {YES, NO}
            if u == v:
                assert d1.verdict == YES


def test_relations_equal_golden():
    q, mono, diff, _ = parallel_pair(QQ)
    assert HomotopyOracle(mono).same_relation(HomotopyOracle(mono)).verdict == YES
    assert HomotopyOracle(mono).same_relation(HomotopyOracle(diff)).verdict == NO
    # dilatations never change the relation
    rng = random.Random(2)
    for _ in range(5):
        D = random_dilatation(rng, q, QQ)
        assert HomotopyOracle(mono).same_relation(HomotopyOracle(D.apply_to_ideal(mono))).verdict == YES
        assert HomotopyOracle(diff).same_relation(HomotopyOracle(D.apply_to_ideal(diff))).verdict == YES


def test_replay_rejects_a_forged_closure_proof():
    # a merge log names each path by its arrows; under <c*a - c*b> the
    # closure joins a and b by cutting c off its pair
    q, mono, diff, tree = parallel_pair(QQ)
    a, b = q.arrow_path("a"), q.arrow_path("b")
    found = HomotopyOracle(diff, tree).decide_paths(a, b)
    assert found.verdict == YES and found.certificate.replay(homotopy_pairs(diff))
    pair = (("a", "c"), ("b", "c"))
    assert found.certificate.merges == (pair + (None,), (("a",), ("b",), pair))
    # a via that is not joined yet
    assert not ClosureProof(a, b, found.certificate.merges[1:]).replay(homotopy_pairs(diff))
    # a genuine proof replays under its own pairs only: the monomial ideal
    # lacks the pair it starts from
    assert not found.certificate.replay(homotopy_pairs(mono))
    # 1 => 2 => 3 under <y0*x0 - y1*x1>: the pair shares no arrow at
    # either end, so the closure joins nothing else
    q = Quiver(["1", "2", "3"], [("x0", "1", "2"), ("x1", "1", "2"), ("y0", "2", "3"), ("y1", "2", "3")])
    ideal = IdealData(q, QQ, [elem(q, QQ, (1, "y0*x0"), (-1, "y1*x1"))])
    oracle = HomotopyOracle(ideal)
    genuine = oracle.decide_paths(*oracle.pairs[0])
    pair = (("x0", "y0"), ("x1", "y1"))
    assert genuine.verdict == YES and genuine.certificate.merges == (pair + (None,),)
    x0, x1, y0, y1 = (q.arrow_path(name) for name in ("x0", "x1", "y0", "y1"))
    y0x1, y1x0 = q.path(["x1", "y0"]), q.path(["x0", "y1"])
    forged = [
        # a "pair" that is not among the ideal's pairs
        ClosureProof(y0x1, y1x0, ((y0x1.arrows, y1x0.arrows, None),)),
        # different arrows: y0 cut from the end of one side, y1 from the other
        ClosureProof(x0, x1, genuine.certificate.merges + ((("x0",), ("x1",), pair),)),
        # and x0 cut from the start of one side, x1 from the other
        ClosureProof(y0, y1, genuine.certificate.merges + ((("y0",), ("y1",), pair),)),
        # different ends: x0 cut at the start of one side, y1 at the end of the other
        ClosureProof(y0, x1, genuine.certificate.merges + ((("y0",), ("x1",), pair),)),
        # a log that never joins u and v
        ClosureProof(x0, x1, genuine.certificate.merges),
        # trivial paths at two vertices: both have no arrows, but they are not parallel
        ClosureProof(q.trivial_path("1"), q.trivial_path("2"), ()),
    ]
    for proof in forged:
        assert not proof.replay(oracle.pairs), proof
    assert oracle.decide_paths(x0, x1).verdict == NO


def test_replay_rejects_a_forged_insertion():
    # the pair f*e*a ~ d*c*b has the relator a*d^-1; inserting the inverse
    # of the word of a and b*c reduces it to the unit, but that is no relator
    q, ideal, _, tree = two_triangles_pair(GF(2))
    oracle = HomotopyOracle(ideal, tree)
    pres = oracle.presentation
    (u, v), = oracle.pairs
    relator = pres.word_of_pair(u, v)
    assert pres.relators == (relator,) == ((1, -2),)
    a, bc = q.arrow_path("a"), q.path(["b", "c"])
    assert pres.word_of_pair(a, bc) == (1,)
    assert not RewriteTrace(a, bc, ((0, (-1,)),)).replay(pres)
    # the pair's word cancelled by the inverse relator replays; so does the
    # reversed pair, with a cyclic conjugate of the relator inserted inside
    inverse = tuple(-x for x in reversed(relator))
    assert RewriteTrace(u, v, ((len(relator), inverse),)).replay(pres)
    assert RewriteTrace(v, u, ((1, relator[1:] + relator[:1]),)).replay(pres)
    # positions outside the word, a trace of another pair and trivial
    # paths at two vertices are rejected
    assert not RewriteTrace(u, v, ((len(relator) + 1, inverse),)).replay(pres)
    assert not RewriteTrace(a, bc, ((len(relator), inverse),)).replay(pres)
    assert not RewriteTrace(q.trivial_path("1"), q.trivial_path("2"), ()).replay(pres)
    # a "yes" of the search replays under its presentation only: past the
    # closure's limit the search proves a ~ b under <c*a - c*b> by inserting
    # the relator, which the monomial ideal's presentation lacks
    q, mono, diff, tree = parallel_pair(QQ)
    a, b = q.arrow_path("a"), q.arrow_path("b")
    oracle = HomotopyOracle(diff, tree, search_max_nodes=2)
    found = oracle.decide_paths(a, b)
    assert type(found.certificate) is RewriteTrace and found.certificate.replay(oracle.presentation)
    bare = HomotopyOracle(mono, tree).presentation
    assert not bare.relators and not found.certificate.replay(bare)


def test_relations_equal_random_dilatations():
    rng = random.Random(17)
    for _ in range(10):
        q = random_quiver(rng)
        field = rng.choice([QQ, GF(3)])
        ideal = random_admissible_ideal(rng, q, field)
        D = random_dilatation(rng, q, field)
        image = D.apply_to_ideal(ideal)
        assert HomotopyOracle(ideal).same_relation(HomotopyOracle(image)).verdict == YES
        first, second = HomotopyOracle(ideal), HomotopyOracle(image)
        assert first.same_relation(second).verdict == YES
        # memoized decisions repeat, and a memoized "yes" still replays
        for u, v in first.pairs:
            d = second.decide_paths(u, v)
            again = second.decide_paths(u, v)
            assert again is d and d.verdict == YES
            assert again.certificate.replay(second.pairs)
    # equal ideals over two separately built quivers are not comparable
    with pytest.raises(ValueError):
        HomotopyOracle(parallel_pair(QQ)[1]).same_relation(HomotopyOracle(parallel_pair(QQ)[1]))


def test_base_point_change_keeps_abelian_invariants():
    rng = random.Random(23)
    for _ in range(10):
        q = random_quiver(rng)
        ideal = random_admissible_ideal(rng, q, QQ)
        pairs = homotopy_pairs(ideal)
        invariants = []
        for base in q.vertices:
            tree = q.spanning_tree(base)
            invariants.append(abelian_invariants(GroupPresentation(q, tree, pairs)))
        assert len(set(invariants)) == 1


def test_hom_basis_satisfies_every_generating_pair():
    instances = [
        parallel_pair(QQ)[1],
        parallel_pair(GF(2))[2],
        two_triangles_full(GF(2))[1],
        two_triangles_pair(GF(2))[2],
    ]
    for ideal in instances:
        q, field = ideal.quiver, ideal.field
        tree = q.spanning_tree(q.vertices[0])
        pairs = homotopy_pairs(ideal)
        pres = GroupPresentation(q, tree, pairs)
        for weights in pres.characters(field):
            assert pres.check_weights(field, weights)
            for u, v in pairs:
                su = field.sum(field.coerce(weights.get(n, field.zero)) for n in u.arrows)
                sv = field.sum(field.coerce(weights.get(n, field.zero)) for n in v.arrows)
                assert su == sv


def test_characters_are_constant_on_certified_homotopy_classes():
    # when the oracle certifies u ~ v, every character weighs them equally
    rng = random.Random(61)
    done = 0
    while done < 8:
        q = random_quiver(rng, max_vertices=5)
        field = rng.choice([QQ, GF(2), GF(3)])
        ideal = random_admissible_ideal(rng, q, field)
        tree = q.spanning_tree(q.vertices[0])
        basis = GroupPresentation(q, tree, homotopy_pairs(ideal)).characters(field)
        if not basis:
            continue
        oracle = HomotopyOracle(ideal, tree)
        paths = [p for p in q.all_paths() if not p.is_trivial]
        for _ in range(6):
            u = rng.choice(paths)
            partners = [p for p in paths if p.source == u.source and p.target == u.target]
            v = rng.choice(partners)
            if oracle.decide_paths(u, v).verdict == YES:
                for weights in basis:
                    su = field.sum(field.coerce(weights.get(n, field.zero)) for n in u.arrows)
                    sv = field.sum(field.coerce(weights.get(n, field.zero)) for n in v.arrows)
                    assert su == sv
        done += 1


def test_relator_preimages_are_closed_walks():
    q, ideal, tree = two_triangles_full(GF(2))
    pres = GroupPresentation(q, tree, homotopy_pairs(ideal))
    for u, v in homotopy_pairs(ideal):
        word = pres.word_of_pair(u, v)
        assert word in pres.relators or word == ()


def test_symmetrized_relators_insert_cyclic_reductions():
    # the relator f*e^-1*f^-1 is not cyclically reduced; its symmetrized
    # set holds e^-1 and e, so past the closure's limit (13 nontrivial
    # paths) the search decides e trivial at once
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [("a", "1", "2"), ("b", "1", "3"), ("c", "1", "4"), ("d", "4", "5"), ("e", "4", "5"), ("f", "2", "4")],
    )
    ideal = IdealData(q, QQ, [elem(q, QQ, (1, "e*f*a"), (-1, "d*f*a"))])
    oracle = HomotopyOracle(ideal, search_max_nodes=12)
    pres = oracle.presentation
    assert pres.generators == ("e", "f")
    assert [pres.show_word(r) for r in pres.relators] == ["f*e^-1*f^-1"]
    assert [pres.show_word(w) for w in pres.symmetrized] == ["e^-1", "e"]
    e, d = q.arrow_path("e"), q.arrow_path("d")
    assert oracle.decide_paths(e, d) == (YES, RewriteTrace(e, d, ((0, (-1,)),)))
    assert oracle.decide_paths(e, d).certificate.replay(pres)
    # every rotation of a cyclically reduced relator and of its inverse
    # is listed once, in relator order
    for golden in (two_triangles_pair(GF(2))[1], commutative_square(QQ)[1]):
        p = HomotopyOracle(golden).presentation
        assert p.relators
        expected = []
        for r in p.relators:
            for w in (r, tuple(-x for x in reversed(r))):
                for i in range(len(w)):
                    if w[i:] + w[:i] not in expected:
                        expected.append(w[i:] + w[:i])
        assert list(p.symmetrized) == expected


def test_the_word_search_proves_what_the_closure_misses():
    # x, y leave S and u, v leave S2 for M1, M2; a, b reach T and c, d reach
    # T2, under <a*x - b*y, c*x - d*y, a*u - b*v>.  In the groupoid
    # u = v*y^-1*x, so c*u ~ d*v, but no pair can be extended (S and S2 have
    # no incoming arrows, T and T2 no outgoing ones) and no two joined paths
    # share an end arrow, so the closure never joins c*u and d*v
    q = Quiver(
        ["S", "S2", "M1", "M2", "T", "T2"],
        [("x", "S", "M1"), ("y", "S", "M2"), ("u", "S2", "M1"), ("v", "S2", "M2"),
         ("a", "M1", "T"), ("b", "M2", "T"), ("c", "M1", "T2"), ("d", "M2", "T2")],
    )
    ideal = IdealData(
        q, QQ, [elem(q, QQ, (1, "a*x"), (-1, "b*y")), elem(q, QQ, (1, "c*x"), (-1, "d*y")),
                elem(q, QQ, (1, "a*u"), (-1, "b*v"))],
    )
    oracle = HomotopyOracle(ideal)
    assert abelian_invariants(oracle.presentation).is_trivial
    cu, dv = q.path(["u", "c"]), q.path(["v", "d"])
    parent = oracle._closure[0]
    assert homotopy._root(parent, cu.arrows) != homotopy._root(parent, dv.arrows)
    d = oracle.decide_paths(cu, dv)
    assert d.verdict == YES and type(d.certificate) is RewriteTrace
    assert d.certificate.replay(oracle.presentation)


def _pair_count_characters(q, tree, pairs, field):
    """The characters as arrow weights by their first definition: the
    canonical nullspace over all arrows of one unit row per tree arrow and
    one arrow-count row (arrows of u minus arrows of v) per homotopy pair."""
    index = {n: i for i, n in enumerate(q.arrow_names)}
    rows = [{index[n]: field.one} for n in tree.arrow_names]
    for u, v in pairs:
        count = {}
        for sign, path in ((1, u), (-1, v)):
            for n in path.arrows:
                count[index[n]] = count.get(index[n], 0) + sign
        rows.append(_clean(field, count))
    return [{q.arrow_names[i]: x for i, x in sorted(vec.items())} for vec in nullspace(field, len(q.arrow_names), rows)]


def _pair_sums_agree(field, tree, pairs, weights):
    """The first weight check: zero on the tree, equal sums along each pair."""
    def w(n):
        return field.coerce(weights.get(n, field.zero))

    return all(field.is_zero(w(n)) for n in tree.arrow_names) and all(
        field.sum(w(n) for n in u.arrows) == field.sum(w(n) for n in v.arrows) for u, v in pairs
    )


def test_characters_are_the_pair_count_nullspace_on_random_instances():
    rng = random.Random(71)
    verdicts = {True: 0, False: 0}
    fields = set()
    for _ in range(60):
        q = random_quiver(rng)
        field = random_field(rng)
        fields.add(field)
        ideal = random_admissible_ideal(rng, q, field)
        tree = q.spanning_tree(rng.choice(q.vertices))
        pairs = homotopy_pairs(ideal)
        pres = GroupPresentation(q, tree, pairs)
        basis = pres.characters(field)
        assert basis == _pair_count_characters(q, tree, pairs, field)
        for _ in range(4):
            # a combination of the basis, then perhaps one arrow moved,
            # the tree arrows included
            weights = {}
            for character in basis:
                c = rng.randint(-3, 3)
                for n, x in character.items():
                    weights[n] = field.add(weights.get(n, field.zero), field.mul(field.coerce(c), x))
            if rng.random() < 0.5:
                n = rng.choice(q.arrow_names)
                weights[n] = field.add(weights.get(n, field.zero), field.coerce(rng.randint(1, 4)))
            verdict = pres.check_weights(field, weights)
            assert verdict == _pair_sums_agree(field, tree, pairs, weights)
            verdicts[verdict] += 1
    assert QQ in fields and len(fields) > 2
    assert verdicts[True] > 20 and verdicts[False] > 20


def test_smith_form_is_computed_once_per_presentation(monkeypatch):
    calls = []
    smith = homotopy.smith_normal_form
    monkeypatch.setattr(homotopy, "smith_normal_form", lambda rows: calls.append(rows) or smith(rows))
    q, ideal, _, tree = two_triangles_pair(GF(2))
    # the characters read the relator rows only: no Smith form
    pres = GroupPresentation(q, tree, homotopy_pairs(ideal))
    assert pres.characters(GF(2)) == [{"a": 1, "d": 1}]
    assert pres.check_weights(GF(2), {"a": 1, "d": 1})
    assert not calls
    # the invariants, the oracle's decisions and their certificates share one;
    # the generators are a and d, and the words are a, d, a*d and a*d^-1
    oracle = HomotopyOracle(ideal, tree)
    pres = oracle.presentation
    assert (abelian_invariants(pres).free_rank, abelian_invariants(pres).torsion) == (1, ())
    pairs = [
        (q.arrow_path("a"), q.path(["b", "c"])),
        (q.arrow_path("d"), q.path(["e", "f"])),
        (q.path(["a", "d"]), q.path(["b", "c", "e", "f"])),
        (q.path(["a", "e", "f"]), q.path(["b", "c", "d"])),
    ]
    decisions = [oracle.decide_paths(u, v) for u, v in pairs]
    assert [d.verdict for d in decisions] == [NO, NO, NO, YES]
    assert [pres.word_of_pair(u, v) for u, v in pairs] == [(1,), (2,), (1, 2), (1, -2)]
    for (u, v), d in zip(pairs, decisions):
        if d.verdict == NO:
            assert d.certificate.verify(pres, pres.word_of_pair(u, v))
        else:
            assert d.certificate.replay(oracle.pairs)
    assert len(calls) == 1


def test_abelian_certificate_replay_rejects_a_forged_modulus():
    # a*d^-1 is the relator of the pair ideal, so it is trivial; a
    # certificate claiming its first Smith coordinate is not a multiple of
    # some modulus other than the invariant factor there must not replay
    q, ideal, _, tree = two_triangles_pair(GF(2))
    oracle = HomotopyOracle(ideal, tree)
    pres = oracle.presentation
    (u, v), = oracle.pairs
    word = pres.word_of_pair(u, v)
    assert word == (1, -2) and oracle.decide_paths(u, v).verdict == YES
    x = pres.exponent_vector(word)
    y = pres.smith_coordinates(x)
    assert pres.smith[0] == (1,) and y == (1, 0)
    for position in (-2, -1, 0, 1, 2):
        for modulus in (0, 1, 2, 3):
            assert not AbelianCertificate(x, y, position, modulus).verify(pres, word)
    # a genuine "no" replays, and the same claim with another modulus does not:
    # a against c*b is the word a
    no = oracle.decide_paths(q.arrow_path("a"), q.path(["b", "c"]))
    assert no.verdict == NO and no.certificate.verify(pres, (1,))
    cert = no.certificate
    for modulus in (2, 3):
        if modulus != cert.modulus:
            forged = AbelianCertificate(cert.exponents, cert.transformed, cert.position, modulus)
            assert not forged.verify(pres, (1,))


def test_every_certificate_replays():
    # every parallel pair of nontrivial paths under the golden ideals and the
    # seeded draws of test_arrow_witnesses_replay: each "yes" replays under
    # the oracle's pairs, each "no" verifies under its presentation
    ideals = [
        *parallel_pair(QQ)[1:3],
        *parallel_pair(GF(3))[1:3],
        two_triangles_full(GF(2))[1],
        *two_triangles_pair(GF(2))[1:3],
        commutative_square(QQ)[1],
        kronecker(QQ)[1],
    ]
    rng = random.Random(2024)
    for field in (GF(2), GF(3), QQ):
        for _ in range(12):
            q = random_quiver(rng)
            ideals.append(random_admissible_ideal(rng, q, field))
    verdicts = {YES: 0, NO: 0, UNKNOWN: 0}
    for ideal in ideals:
        oracle = HomotopyOracle(ideal)
        paths = [p for p in ideal.quiver.all_paths() if not p.is_trivial]
        for u in paths:
            for v in paths:
                if (u.source, u.target) != (v.source, v.target):
                    continue
                d = oracle.decide_paths(u, v)
                verdicts[d.verdict] += 1
                if d.verdict == YES:
                    assert d.certificate.replay(oracle.pairs)
                elif d.verdict == NO:
                    assert d.certificate.verify(oracle.presentation, oracle.presentation.word_of_pair(u, v))
    assert verdicts[YES] > 100 and verdicts[NO] > 100
