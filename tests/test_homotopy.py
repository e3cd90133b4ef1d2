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
from bquiver.homotopy import AbelianCertificate, RewriteTrace
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
    yes = HomotopyOracle(diff).decide_paths(a, b)
    assert yes.verdict == YES
    assert yes.certificate.replay(HomotopyOracle(diff).presentation)
    no = HomotopyOracle(mono).decide_paths(a, b)
    assert no.verdict == NO
    oracle = HomotopyOracle(mono, tree)
    word = oracle.presentation.word_of_pair(a, b)
    assert no.certificate.verify(oracle.presentation, word)
    trivial = HomotopyOracle(mono).decide_paths(q.trivial_path("1"), q.trivial_path("1"))
    assert trivial.verdict == YES
    assert HomotopyOracle(mono).decide_closed_word(()).verdict == YES


def test_decide_closed_word_reduces_the_word_first():
    # <b | -> has no relator to insert, so b*b^-1 is decided by its free
    # reduction; the "yes" trace starts from the reduced word and replays
    q, mono, _, tree = parallel_pair(GF(2))
    oracle = HomotopyOracle(mono, tree)
    assert oracle.presentation.generators == ("b",) and not oracle.presentation.relators
    for word in ((1, -1), (-1, 1, 1, -1)):
        d = oracle.decide_closed_word(word)
        assert d.verdict == YES and d.certificate.start == ()
        assert d.certificate.replay(oracle.presentation)
    # an inner cancelling pair, under a presentation with a relator: a*d^-1
    # is its relator, and a*(d*d^-1)*d^-1 is decided as a*d^-1 is
    q, ideal, _, tree = two_triangles_pair(GF(2))
    oracle = HomotopyOracle(ideal, tree)
    assert oracle.presentation.relators
    d = oracle.decide_closed_word((1, 2, -2, -2))
    assert d.verdict == YES and d.certificate.start == (1, -2)
    assert d.certificate.replay(oracle.presentation)
    assert oracle.decide_closed_word((1, -2)) is d
    assert oracle.decide_closed_word((1, 2, -2)).verdict == NO


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
    q, mono, diff, tree = parallel_pair(QQ)
    a, b = q.arrow_path("a"), q.arrow_path("b")
    d = HomotopyOracle(diff, search_max_nodes=1).decide_paths(a, b)
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
    assert HomotopyOracle(mono).same_relation(HomotopyOracle(mono)).verdict == YES
    assert HomotopyOracle(mono).same_relation(HomotopyOracle(diff)).verdict == NO
    # dilatations never change the relation
    rng = random.Random(2)
    for _ in range(5):
        D = random_dilatation(rng, q, QQ)
        assert HomotopyOracle(mono).same_relation(HomotopyOracle(D.apply_to_ideal(mono))).verdict == YES
        assert HomotopyOracle(diff).same_relation(HomotopyOracle(D.apply_to_ideal(diff))).verdict == YES


def test_replay_rejects_a_forged_insertion():
    # the two-relation ideal has relators; inserting the inverse of the
    # start word reduces it to the unit, but that word is no relator
    q, ideal, _, tree = two_triangles_pair(GF(2))
    oracle = HomotopyOracle(ideal, tree)
    pres = oracle.presentation
    assert pres.relators
    relator = pres.relators[0]
    start = (1,)
    forged = RewriteTrace(start, ((0, (-1,)),))
    assert all((-1,) not in (r, tuple(-x for x in reversed(r))) for r in pres.relators)
    assert not forged.replay(pres)
    # the same start cancelled by a genuine relator step replays; so do a
    # cyclic conjugate of a relator and an inverse relator
    genuine = RewriteTrace(relator, ((len(relator), tuple(-x for x in reversed(relator))),))
    assert genuine.replay(pres)
    rotated = relator[1:] + relator[:1]
    assert RewriteTrace(tuple(-x for x in reversed(rotated)), ((0, rotated),)).replay(pres)
    # positions outside the word are rejected too
    assert not RewriteTrace(relator, ((len(relator) + 1, tuple(-x for x in reversed(relator))),)).replay(pres)
    # a certified "yes" from the search replays under its presentation
    for u, v in oracle.pairs:
        d = oracle.decide_paths(u, v)
        if d.verdict == YES:
            assert d.certificate.replay(pres)
    # but only under that one: the "yes" for c*a ~ c*b found under
    # <c*a - c*b> inserts its relator, which the monomial ideal's
    # presentation of the same word lacks
    q, mono, diff, tree = parallel_pair(QQ)
    (u, v), = homotopy_pairs(diff)
    found = HomotopyOracle(diff, tree).decide_paths(u, v)
    assert found.verdict == YES
    bare = HomotopyOracle(mono, tree).presentation
    assert not bare.relators
    assert found.certificate.start == bare.word_of_pair(u, v)
    assert not found.certificate.replay(bare)


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
            word = second.presentation.word_of_pair(u, v)
            d = second.decide_closed_word(word)
            again = second.decide_closed_word(word)
            assert again.verdict == d.verdict == YES
            assert again.certificate.replay(second.presentation)
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
    # set holds e^-1 and e, so e is decided trivial at once
    q = Quiver(
        ["1", "2", "3", "4", "5"],
        [("a", "1", "2"), ("b", "1", "3"), ("c", "1", "4"), ("d", "4", "5"), ("e", "4", "5"), ("f", "2", "4")],
    )
    ideal = IdealData(q, QQ, [elem(q, QQ, (1, "e*f*a"), (-1, "d*f*a"))])
    oracle = HomotopyOracle(ideal)
    pres = oracle.presentation
    assert pres.generators == ("e", "f")
    assert [pres.show_word(r) for r in pres.relators] == ["f*e^-1*f^-1"]
    assert [pres.show_word(w) for w in pres.symmetrized] == ["e^-1", "e"]
    d = oracle.decide_arrow_path("e", q.arrow_path("d"))
    assert d.verdict == YES
    assert d.certificate.steps == ((0, (-1,)),)
    assert d.certificate.replay(pres)
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
    calls, reductions = [], []
    smith, cyclic_reduce = homotopy.smith_normal_form, homotopy._cyclic_reduce
    monkeypatch.setattr(homotopy, "smith_normal_form", lambda rows: calls.append(rows) or smith(rows))
    monkeypatch.setattr(homotopy, "_cyclic_reduce", lambda w: reductions.append(w) or cyclic_reduce(w))
    q, ideal, _, tree = two_triangles_pair(GF(2))
    # the characters read the relator rows only: no Smith form, no
    # symmetrized relators
    pres = GroupPresentation(q, tree, homotopy_pairs(ideal))
    assert pres.characters(GF(2)) == [{"a": 1, "d": 1}]
    assert pres.check_weights(GF(2), {"a": 1, "d": 1})
    assert not calls and not reductions
    # the invariants, the oracle's decisions and their replays share one
    oracle = HomotopyOracle(ideal, tree)
    pres = oracle.presentation
    assert (abelian_invariants(pres).free_rank, abelian_invariants(pres).torsion) == (1, ())
    words = [(1,), (2,), (1, 1), (1, 2), (1, -2)]
    decisions = [oracle.decide_closed_word(w) for w in words]
    assert [d.verdict for d in decisions] == [NO, NO, NO, NO, YES]
    for word, d in zip(words, decisions):
        if d.verdict == NO:
            assert d.certificate.verify(pres, word)
    assert len(calls) == 1


def test_abelian_certificate_replay_rejects_a_forged_modulus():
    # a*d^-1 is the relator of the pair ideal, so it is trivial; a
    # certificate claiming its first Smith coordinate is not a multiple of
    # some modulus other than the invariant factor there must not replay
    q, ideal, _, tree = two_triangles_pair(GF(2))
    oracle = HomotopyOracle(ideal, tree)
    pres = oracle.presentation
    word = (1, -2)
    assert oracle.decide_closed_word(word).verdict == YES
    x = pres.exponent_vector(word)
    y = pres.smith_coordinates(x)
    assert pres.smith[0] == (1,) and y == (1, 0)
    for position in (-2, -1, 0, 1, 2):
        for modulus in (0, 1, 2, 3):
            assert not AbelianCertificate(x, y, position, modulus).verify(pres, word)
    # a genuine "no" replays, and the same claim with another modulus does not
    no = oracle.decide_closed_word((1,))
    assert no.verdict == NO and no.certificate.verify(pres, (1,))
    cert = no.certificate
    for modulus in (2, 3):
        if modulus != cert.modulus:
            forged = AbelianCertificate(cert.exponents, cert.transformed, cert.position, modulus)
            assert not forged.verify(pres, (1,))
