import random

import pytest

from bquiver import (
    GF,
    QQ,
    HomotopyOracle,
    NO,
    UNKNOWN,
    YES,
    abelian_invariants,
    decide_homotopic,
    hom_space,
    homotopy_pairs,
    pi1_presentation,
    relations_equal,
)
from bquiver.budgets import Budgets

from conftest import (
    kronecker,
    parallel_pair,
    random_admissible_ideal,
    random_dilatation,
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
    free = pi1_presentation(q, tree, homotopy_pairs(mono))
    assert free.generators == ("b",)
    assert free.relators == ()
    killed = pi1_presentation(q, tree, homotopy_pairs(diff))
    assert killed.generators == ("b",)
    assert [killed.show_word(r) for r in killed.relators] == ["b^-1"]


def test_presentation_requires_parallel_pairs():
    q, mono, _, tree = parallel_pair(QQ)
    with pytest.raises(ValueError):
        pi1_presentation(q, tree, [(q.arrow_path("a"), q.arrow_path("c"))])


def test_abelian_invariants_golden():
    q, mono, diff, tree = parallel_pair(QQ)
    inv_free = abelian_invariants(pi1_presentation(q, tree, homotopy_pairs(mono)))
    assert (inv_free.free_rank, inv_free.torsion) == (1, ())
    inv_trivial = abelian_invariants(pi1_presentation(q, tree, homotopy_pairs(diff)))
    assert inv_trivial.is_trivial

    q5, pair_ideal, twisted, tree5 = two_triangles_pair(GF(2))
    inv_pair = abelian_invariants(pi1_presentation(q5, tree5, homotopy_pairs(pair_ideal)))
    assert (inv_pair.free_rank, inv_pair.torsion) == (1, ())
    # generators a and d with relations a = d and a + d = 0
    inv_twisted = abelian_invariants(pi1_presentation(q5, tree5, homotopy_pairs(twisted)))
    assert (inv_twisted.free_rank, inv_twisted.torsion) == (0, (2,))
    assert str(inv_twisted) == "Z/2"


def test_abelian_invariants_free_case():
    q, ideal, tree = kronecker(QQ)
    inv = abelian_invariants(pi1_presentation(q, tree, homotopy_pairs(ideal)))
    assert (inv.free_rank, inv.torsion) == (1, ())


def test_hom_space_dimensions():
    for field in (QQ, GF(2)):
        q, mono, diff, tree = parallel_pair(field)
        assert hom_space(q, tree, homotopy_pairs(mono), field).dim == 1
        assert hom_space(q, tree, homotopy_pairs(diff), field).dim == 0
    q5, pair_ideal, twisted, tree5 = two_triangles_pair(GF(2))
    assert hom_space(q5, tree5, homotopy_pairs(twisted), GF(2)).dim == 1
    _, _, twisted_q, tree5q = two_triangles_pair(QQ)
    assert hom_space(q5, tree5q, homotopy_pairs(twisted_q), QQ).dim == 0


def test_hom_space_basis_weights():
    q, ideal, tree = two_triangles_full(GF(2))
    hs = hom_space(q, tree, homotopy_pairs(ideal), GF(2))
    assert hs.dim == 1
    assert hs.basis == [{"a": 1, "d": 1}]
    assert hs.check_weights({"a": 1, "d": 1})
    assert not hs.check_weights({"a": 1})
    assert not hs.check_weights({"a": 1, "d": 1, "b": 1})


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
        inv = abelian_invariants(pi1_presentation(q, tree, pairs))
        expected = inv.free_rank
        if field.characteristic:
            expected += sum(1 for d in inv.torsion if d % field.characteristic == 0)
        assert hom_space(q, tree, pairs, field).dim == expected


def test_decide_homotopic_golden_cases():
    q, mono, diff, tree = parallel_pair(QQ)
    a, b = q.path_walk(q.arrow_path("a")), q.path_walk(q.arrow_path("b"))
    yes = decide_homotopic(a, b, diff)
    assert yes.verdict == YES
    assert yes.certificate.replay()
    no = decide_homotopic(a, b, mono)
    assert no.verdict == NO
    oracle = HomotopyOracle(mono, tree)
    word = oracle.presentation.word_of_walk(q.concat_walks(b.inverse(), a))
    assert no.certificate.verify(oracle.presentation, word)
    trivial = decide_homotopic(q.walk((), at="1"), q.walk((), at="1"), mono)
    assert trivial.verdict == YES


def test_decide_homotopic_rejects_non_parallel():
    q, mono, _, _ = parallel_pair(QQ)
    with pytest.raises(ValueError):
        decide_homotopic(q.path_walk(q.arrow_path("a")), q.path_walk(q.arrow_path("c")), mono)


def test_decide_tree_detour_is_homotopic():
    # two walks differing by an inserted backtrack are freely equal
    q, mono, _, _ = parallel_pair(QQ)
    walk1 = q.path_walk(q.path(["a", "c"]))
    walk2 = q.walk([("a", 1), ("a", -1), ("a", 1), ("c", 1)])
    assert decide_homotopic(walk1, walk2, mono).verdict == YES


def test_decide_budget_exhaustion_goes_unknown():
    q, mono, diff, tree = parallel_pair(QQ)
    tiny = Budgets(word_max_len=64, search_max_nodes=1)
    a, b = q.path_walk(q.arrow_path("a")), q.path_walk(q.arrow_path("b"))
    d = decide_homotopic(a, b, diff, budgets=tiny)
    assert d.verdict == UNKNOWN


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
    assert relations_equal(mono, mono).verdict == YES
    assert relations_equal(mono, diff).verdict == NO
    # dilatations never change the relation
    rng = random.Random(2)
    for _ in range(5):
        D = random_dilatation(rng, q, QQ)
        assert relations_equal(mono, D.apply_to_ideal(mono)).verdict == YES
        assert relations_equal(diff, D.apply_to_ideal(diff)).verdict == YES


def test_relations_equal_random_dilatations():
    rng = random.Random(17)
    for _ in range(10):
        q = random_quiver(rng)
        field = rng.choice([QQ, GF(3)])
        ideal = random_admissible_ideal(rng, q, field)
        D = random_dilatation(rng, q, field)
        image = D.apply_to_ideal(ideal)
        assert relations_equal(ideal, image).verdict == YES
        first, second = HomotopyOracle(ideal), HomotopyOracle(image)
        assert first.same_relation(second).verdict == YES
        # memoized decisions repeat, and a memoized "yes" still replays
        for u, v in first.pairs:
            word = second.presentation.word_of_walk(
                q.concat_walks(q.path_walk(v).inverse(), q.path_walk(u)).reduced()
            )
            d = second.decide_closed_word(word)
            again = second.decide_closed_word(word)
            assert again.verdict == d.verdict == YES
            assert again.certificate.replay()
    # equal ideals over two separately built quivers are not comparable
    with pytest.raises(ValueError):
        relations_equal(parallel_pair(QQ)[1], parallel_pair(QQ)[1])


def test_base_point_change_keeps_abelian_invariants():
    rng = random.Random(23)
    for _ in range(10):
        q = random_quiver(rng)
        ideal = random_admissible_ideal(rng, q, QQ)
        pairs = homotopy_pairs(ideal)
        invariants = []
        for base in q.vertices:
            tree = q.spanning_tree(base)
            invariants.append(abelian_invariants(pi1_presentation(q, tree, pairs)))
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
        hs = hom_space(q, tree, pairs, field)
        for weights in hs.basis:
            assert hs.check_weights(weights)
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
        hs = hom_space(q, tree, homotopy_pairs(ideal), field)
        if hs.dim == 0:
            continue
        oracle = HomotopyOracle(ideal, tree)
        paths = [p for p in q.all_paths() if not p.is_trivial]
        for _ in range(6):
            u = rng.choice(paths)
            partners = [p for p in paths if p.source == u.source and p.target == u.target]
            v = rng.choice(partners)
            if oracle.decide_paths(u, v).verdict == YES:
                for weights in hs.basis:
                    su = field.sum(field.coerce(weights.get(n, field.zero)) for n in u.arrows)
                    sv = field.sum(field.coerce(weights.get(n, field.zero)) for n in v.arrows)
                    assert su == sv
        done += 1


def test_relator_preimages_are_closed_walks():
    q, ideal, tree = two_triangles_full(GF(2))
    pres = pi1_presentation(q, tree, homotopy_pairs(ideal))
    for u, v in homotopy_pairs(ideal):
        closed = q.concat_walks(q.path_walk(v).inverse(), q.path_walk(u))
        assert closed.source == closed.target
        assert pres.word_of_walk(closed) in pres.relators or pres.word_of_walk(closed) == ()
