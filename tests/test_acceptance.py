"""Acceptance suite: one test per criterion, every assertion exact.

Each test prints exactly one PASS or FAIL line (visible with ``pytest -s``
or in failure reports).
"""

import functools
import random

from bquiver import (
    CohomologySpace,
    Derivation,
    FDAlgebra,
    GF,
    GroupPresentation,
    HomotopyOracle,
    Presentation,
    QQ,
    YES,
    abelian_invariants,
    build_relation_quiver,
    conjugate_class,
    homotopy_pairs,
    inner_derivation,
    is_diagonalizable_set,
    realize_in_image,
    sources_report,
    transvection_of,
    verify_main_theorem,
)
from bquiver.linalg import smith_normal_form

from conftest import (
    chain_with_monomials,
    check_smith_form,
    combine,
    commutative_square,
    derivation_of_coords,
    is_constricted,
    kronecker,
    parallel_pair,
    random_admissible_ideal,
    random_dilatation,
    random_field,
    random_fixing_automorphism,
    random_quiver,
    two_triangles_full,
    two_triangles_pair,
    two_triangles_twist,
)


def criterion(number, description):
    """Print the one pass/fail line the suite promises per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        return run

    return wrap


def natural_presentation(ideal, tree=None):
    q = ideal.quiver
    tree = tree or q.spanning_tree(q.vertices[0])
    return Presentation.natural(CohomologySpace(FDAlgebra(ideal)), tree)


def golden_corpus():
    """Every golden instance as (ideal, tree) pairs."""
    out = []
    for field in (QQ, GF(2), GF(3)):
        q, mono, diff, tree = parallel_pair(field)
        out.append((mono, tree))
        out.append((diff, tree))
    out.append((kronecker(QQ)[1], kronecker(QQ)[2]))
    out.append((kronecker(GF(3))[1], kronecker(GF(3))[2]))
    q5, full, tree5 = two_triangles_full(GF(2))
    out.append((full, tree5))
    q5, pair_ideal, twisted, tree5 = two_triangles_pair(GF(2))
    out.append((pair_ideal, tree5))
    out.append((twisted, tree5))
    out.append((commutative_square(QQ)[1], commutative_square(QQ)[2]))
    out.append(tuple(chain_with_monomials(4, QQ, cuts=(0,))[1:]))
    return out


@criterion(1, "parallel-pair fundamental groups and character spaces")
def test_criterion_01_parallel_pair_fundamental_groups():
    for field in (QQ, GF(2)):
        q, mono, diff, tree = parallel_pair(field)
        inv_mono = abelian_invariants(GroupPresentation(q, tree, homotopy_pairs(mono)))
        assert (inv_mono.free_rank, inv_mono.torsion) == (1, ())
        inv_diff = abelian_invariants(GroupPresentation(q, tree, homotopy_pairs(diff)))
        assert inv_diff.is_trivial
        assert len(GroupPresentation(q, tree, homotopy_pairs(mono)).characters(field)) == 1
        assert len(GroupPresentation(q, tree, homotopy_pairs(diff)).characters(field)) == 0


@criterion(2, "relation graph is a single certified arrow with unique source")
def test_criterion_02_parallel_pair_relation_graph():
    q, mono, diff, tree = parallel_pair(QQ)
    rq = build_relation_quiver(mono, tree)
    assert len(rq.vertices) == 2
    assert [(a.source, a.target) for a in rq.arrows] == [(0, 1)]
    assert rq.unknown_candidates == [] and not rq.truncated
    assert HomotopyOracle(rq.vertices[1].ideal).same_relation(HomotopyOracle(diff)).verdict == YES
    report = sources_report(rq)
    assert report["sources"] == [0] and report["unique_source"]


@criterion(3, "doubled-arrow algebra has cohomology 3 and image 1 over QQ and GF(3)")
def test_criterion_03_kronecker_dimensions():
    for field in (QQ, GF(3)):
        q, ideal, tree = kronecker(field)
        pres = natural_presentation(ideal, tree)
        assert pres.space.dim == 3
        assert pres.character_image().dim == 1


@criterion(4, "the ideal-fixing twist moves the embedded character by a non-inner derivation")
def test_criterion_04_char_two_twisted_presentations_differ():
    q, ideal, tree = two_triangles_full(GF(2))
    psi = two_triangles_twist(q, GF(2))
    assert psi.apply_to_ideal(ideal) == ideal
    space = CohomologySpace(FDAlgebra(ideal))
    nu = Presentation.natural(space, tree)
    mu = Presentation(space, nu.chi.compose(psi), nu.tree)
    weights = {"a": 1, "d": 1}
    c1 = nu.embed_character(weights)
    c2 = mu.embed_character(weights)
    assert c1 != c2
    alg = space.algebra
    diff_images = {}
    for name in q.arrow_names:
        first, second = c1.representative().arrow_image(name), c2.representative().arrow_image(name)
        diff_images[name] = {
            i: GF(2).sub(second.get(i, 0), first.get(i, 0)) for i in first.keys() | second.keys()
        }
    assert not space.class_of(Derivation(alg, diff_images)).is_zero()


@criterion(5, "pair ideal and twisted kernel separate both groups and images")
def test_criterion_05_pair_ideal_versus_twisted_kernel():
    q, pair_ideal, twisted, tree = two_triangles_pair(GF(2))
    inv_pair = abelian_invariants(GroupPresentation(q, tree, homotopy_pairs(pair_ideal)))
    assert (inv_pair.free_rank, inv_pair.torsion) == (1, ())
    inv_twisted = abelian_invariants(GroupPresentation(q, tree, homotopy_pairs(twisted)))
    assert (inv_twisted.free_rank, inv_twisted.torsion) == (0, (2,))
    space = CohomologySpace(FDAlgebra(pair_ideal))
    nu = Presentation.natural(space, tree)
    psi = two_triangles_twist(q, GF(2))
    mu = Presentation(space, nu.chi.compose(psi), nu.tree)
    assert mu.kernel == twisted
    assert nu.character_image().dim == 1
    assert mu.character_image().dim == 1
    assert not nu.character_image().contains_span(mu.character_image())
    # over the rationals the twisted kernel has no nonzero characters
    qq, pair_qq, twisted_qq, tree_qq = two_triangles_pair(QQ)
    assert len(GroupPresentation(qq, tree_qq, homotopy_pairs(twisted_qq)).characters(QQ)) == 0


@criterion(6, "dilatation invariance across one hundred random instances")
def test_criterion_06_dilatations_never_move_the_embedding():
    rng = random.Random(2026)
    checked = 0
    instances = 0
    while instances < 100:
        q = random_quiver(rng)
        field = random_field(rng)
        ideal = random_admissible_ideal(rng, q, field)
        instances += 1
        tree = q.spanning_tree(q.vertices[0])
        space = CohomologySpace(FDAlgebra(ideal))
        nu = Presentation.natural(space, tree)
        D = random_dilatation(rng, q, field)
        mu = Presentation(space, nu.chi.compose(D), nu.tree)
        assert homotopy_pairs(mu.kernel) == homotopy_pairs(nu.kernel)
        for weights in nu.hom:
            assert mu.embed_character(weights) == nu.embed_character(weights)
            checked += 1
    assert instances == 100


@criterion(7, "image inclusion and restriction triangle along every definite arrow")
def test_criterion_07_images_shrink_along_arrows():
    seeds = [
        parallel_pair(QQ)[1],
        parallel_pair(GF(2))[1],
        parallel_pair(GF(3))[1],
        two_triangles_full(GF(2))[1],
        two_triangles_pair(GF(2))[1],
        kronecker(QQ)[1],
        commutative_square(QQ)[1],
    ]
    arrows_checked = 0
    for seed in seeds:
        space = CohomologySpace(FDAlgebra(seed))
        rq = build_relation_quiver(seed)
        assert not rq.truncated and rq.unknown_candidates == []
        for arrow in rq.arrows:
            nu = Presentation(space, arrow.source_back.invert(), rq.tree)
            assert nu.kernel == arrow.source_ideal
            phi = transvection_of(seed.quiver, seed.field, arrow.bypass, arrow.tau)
            mu = Presentation(space, nu.chi.compose(phi.invert()), nu.tree)
            assert mu.kernel == arrow.target_ideal
            assert nu.character_image().contains_span(mu.character_image())
            # the restriction triangle: a finer character is already coarse
            for weights in mu.hom:
                assert nu.group.check_weights(nu.field, weights)
                assert mu.embed_character(weights) == nu.embed_character(weights)
            arrows_checked += 1
    assert arrows_checked >= 4


@criterion(8, "automorphism pushforward matches the twisted image on fifty instances")
def test_criterion_08_ideal_fixing_automorphisms_conjugate_the_image():
    rng = random.Random(4096)
    done = 0
    while done < 50:
        q = random_quiver(rng, max_vertices=5)
        field = random_field(rng)
        ideal = random_admissible_ideal(rng, q, field)
        psi = random_fixing_automorphism(rng, ideal)
        tree = q.spanning_tree(q.vertices[0])
        space = CohomologySpace(FDAlgebra(ideal))
        nu = Presentation.natural(space, tree)
        mu = Presentation(space, nu.chi.compose(psi), nu.tree)
        assert mu.kernel == ideal
        pushed = space.span(conjugate_class(space, psi, nu.character_image().basis_classes()))
        image_mu = mu.character_image()
        assert pushed.contains_span(image_mu) and image_mu.contains_span(pushed)
        done += 1


@criterion(9, "realized covering presentations for fifty commuting families")
def test_criterion_09_diagonalizable_families_realize():
    # every corpus presentation has a simultaneously diagonalizable image
    for ideal, tree in golden_corpus():
        pres = natural_presentation(ideal, tree)
        assert is_diagonalizable_set(pres.character_image().basis_classes())
    # random commuting families drawn from images, re-randomized by inner
    # shifts, are recovered inside a covering presentation
    rng = random.Random(515)
    done = 0
    while done < 50:
        q = random_quiver(rng, max_vertices=5)
        field = random_field(rng)
        ideal = random_admissible_ideal(rng, q, field)
        tree = q.spanning_tree(q.vertices[0])
        pres = natural_presentation(ideal, tree)
        basis = pres.character_image().basis_classes()
        if not basis:
            family = [pres.space.zero_class()]
        else:
            family = []
            for _ in range(min(2, len(basis))):
                cls = rng.choice(basis)
                other = rng.choice(basis)
                combo = cls + other.scale(rng.randint(0, 2))
                # rebuild the class from a representative shifted by an inner
                # derivation: the class must not move
                space = pres.space
                coeffs = {v: rng.randint(0, 2) for v in q.vertices}
                shifted_coords = combine(
                    field,
                    (1, combo.representative().coords),
                    (1, inner_derivation(space.algebra, coeffs).coords),
                )
                recls = space.class_of(derivation_of_coords(space.algebra, shifted_coords))
                assert recls == combo
                family.append(recls)
        covering = realize_in_image(family, tree)
        for cls in family:
            assert covering.character_image().contains(cls)
        done += 1


@criterion(10, "constricted corpus has surjective embeddings and abelian cohomology")
def test_criterion_10_constricted_algebras():
    cases = [
        commutative_square(QQ, bound=True),
        commutative_square(GF(2), bound=True),
        chain_with_monomials(4, QQ, cuts=(0,)),
        chain_with_monomials(5, QQ, cuts=(0, 2)),
        chain_with_monomials(5, GF(3), cuts=(1,)),
    ]
    for q, ideal, tree in cases:
        pres = natural_presentation(ideal, tree)
        assert is_constricted(pres.space.algebra)
        assert pres.character_image().dim == pres.space.dim
        basis = pres.space.basis_classes()
        for x in basis:
            for y in basis:
                assert pres.space.bracket(x, y).is_zero()


@criterion(11, "main-theorem harness is definite and passing over GF(3)")
def test_criterion_11_main_theorem_harness_gf3():
    q, mono, _, tree = parallel_pair(GF(3))
    report = verify_main_theorem(mono, tree)
    assert report["statuses"]["unknown"] == 0
    assert report["statuses"]["fail"] == 0
    assert report["ok"]
    assert report["brute_force"]["enabled"]
    # the brute-force family and the realized character images coincide
    assert report["brute_force"]["maximal_count"] == 3
    assert any(
        c["name"] == "maximal family equals realized character-image family" and c["status"] == "pass"
        for c in report["checks"]
    )
    # part two: a conjugating automorphism carries every maximal subalgebra
    # onto a source image
    assert report["brute_force"]["conjugated_onto_source"] == 3
    conjugacy = [c["status"] for c in report["checks"] if c["name"] == "maximal subalgebra conjugate onto a source image"]
    assert conjugacy == ["pass"] * 3


@criterion(12, "structural invariants hold across the corpus")
def test_criterion_12_structural_invariant_suite():
    rng = random.Random(7777)
    corpus = golden_corpus()
    # reduced-basis properties (i)-(iv)
    for ideal, _tree in corpus:
        q, field = ideal.quiver, ideal.field
        pivots = ideal.pivot_paths
        for j, e in enumerate(ideal.basis):
            assert e.get(pivots[j], field.zero) == field.one
            lead_key = q.path_key(max(e, key=q.path_key))
            assert all(q.path_key(p) <= lead_key for p in e)
            for jp, other in enumerate(ideal.basis):
                if jp != j:
                    assert field.is_zero(other.get(pivots[j], field.zero))
        keys = [q.path_key(p) for p in pivots]
        assert keys == sorted(keys)
        for _ in range(5):
            r = combine(field, *((rng.randint(1, 4), e) for e in ideal.basis))
            rebuilt = combine(field, *((r.get(pivots[j], field.zero), e) for j, e in enumerate(ideal.basis)))
            assert rebuilt == r
    # cohomology invariants per instance
    for ideal, tree in corpus:
        space = CohomologySpace(FDAlgebra(ideal))
        alg = space.algebra
        assert len(space.inner_basis) == len(alg.quiver.vertices) - 1
        for d in space.der_basis:
            for i in range(alg.dim):
                for j in range(alg.dim):
                    assert d.leibniz_defect(i, j) == {}
        basis = space.basis_classes()
        for _ in range(5):
            if not basis:
                break
            f, g, h = (rng.choice(basis) for _ in range(3))
            jac = (
                space.bracket(f, space.bracket(g, h))
                + space.bracket(g, space.bracket(h, f))
                + space.bracket(h, space.bracket(f, g))
            )
            assert jac.is_zero()
    # integer normal forms stay unimodular
    for _ in range(10):
        rows = [[rng.randint(-8, 8) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 4))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        d, v = smith_normal_form(rows)
        check_smith_form(rows, d, v)
        for x, y in zip(d, d[1:]):
            assert y % x == 0
