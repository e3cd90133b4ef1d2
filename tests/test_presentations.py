import random

import pytest

from bquiver import (
    CohomologySpace,
    Derivation,
    FDAlgebra,
    GF,
    NO,
    NotDiagonalizableError,
    Presentation,
    QQ,
    SpecialBasis,
    YES,
    adapted_presentation,
    centralizer,
    common_eigenbasis,
    diagonalizability_witness,
    enumerate_bypasses,
    is_diagonalizable_class,
    is_diagonalizable_set,
    is_maximal_diagonalizable,
    realize_in_image,
    transvection_of,
)
from bquiver.homotopy import weight_of_walk
from bquiver.pathalg import _render
from bquiver.presentations import _diagonal_on

from conftest import (
    chain_with_monomials,
    commutative_square,
    elem,
    kronecker,
    parallel_pair,
    random_admissible_ideal,
    random_dilatation,
    random_nonzero,
    random_quiver,
    two_triangles_full,
    two_triangles_twist,
)


def natural_of(ideal, tree=None):
    space = CohomologySpace(FDAlgebra(ideal))
    q = ideal.quiver
    tree = tree or q.spanning_tree(q.vertices[0])
    return Presentation.natural(space, tree)


def displayed_class(space, images):
    alg = space.algebra
    vecs = {n: alg.vector_of(elem(alg.quiver, alg.field, *t)) for n, t in images.items()}
    return space.class_of(Derivation(alg, vecs))


def test_embedding_reproduces_displayed_derivations():
    q, ideal, tree = two_triangles_full(GF(2))
    space = CohomologySpace(FDAlgebra(ideal))
    nu = Presentation.natural(space, tree)
    psi = two_triangles_twist(q, GF(2))
    mu = nu.twist(psi)
    assert mu.kernel == ideal
    weights = {"a": 1, "d": 1}
    c_nu = nu.embed_character(weights)
    c_mu = mu.embed_character(weights)
    assert c_nu == displayed_class(space, {"a": [(1, "a")], "d": [(1, "d")]})
    assert c_mu == displayed_class(
        space, {"a": [(1, "a"), (1, "c*b")], "d": [(1, "d"), (1, "f*e")]}
    )
    assert c_nu != c_mu
    # the two one-dimensional images are distinct subspaces
    assert nu.character_image().dim == 1
    assert mu.character_image().dim == 1
    assert not nu.character_image().contains_span(mu.character_image())


def test_embedding_is_linear_and_rejects_bad_weights():
    q, ideal, tree = two_triangles_full(GF(2))
    pres = natural_of(ideal, tree)
    zero = pres.embed_character({})
    assert zero.is_zero()
    with pytest.raises(ValueError):
        pres.embed_character({"a": 1})  # violates the pair equation
    with pytest.raises(ValueError):
        pres.embed_character({"b": 1})  # tree arrows must stay at zero


def test_image_dimensions_golden():
    pres = natural_of(kronecker(QQ)[1])
    assert pres.character_image().dim == 1
    assert pres.space.dim == 3
    pres3 = natural_of(kronecker(GF(3))[1])
    assert pres3.character_image().dim == 1
    q, ideal, tree = chain_with_monomials(4, QQ, cuts=(0,))
    pres_chain = natural_of(ideal, tree)
    assert pres_chain.character_image().dim == 0


def test_diagonalizability_of_classes():
    q, mono, _, tree = parallel_pair(QQ)
    space = CohomologySpace(FDAlgebra(mono))
    h = displayed_class(space, {"a": [(1, "a")]})
    n = displayed_class(space, {"b": [(1, "a")]})
    assert is_diagonalizable_class(h)
    assert not is_diagonalizable_class(n)  # nilpotent nonzero corridor block
    assert is_diagonalizable_class(space.zero_class())
    assert is_diagonalizable_set([space.zero_class()])
    assert not is_diagonalizable_set([h, n])  # nonzero bracket
    for pres in [natural_of(mono, tree), natural_of(kronecker(QQ)[1])]:
        assert is_diagonalizable_set(pres.character_image().basis_classes())


def test_common_eigenbasis_requires_diagonalizable_family():
    q, mono, _, tree = parallel_pair(QQ)
    space = CohomologySpace(FDAlgebra(mono))
    h = displayed_class(space, {"a": [(1, "a")]})
    n = displayed_class(space, {"b": [(1, "a")]})
    # the nilpotent class's block and minimal polynomial are the witness
    witness = diagonalizability_witness(n)
    assert witness is not None
    for family in ([n], [h, n]):
        with pytest.raises(NotDiagonalizableError) as err:
            common_eigenbasis(family)
        assert err.value.witness == witness


def test_common_eigenbasis_diagonalizes_image():
    q, ideal, tree = two_triangles_full(GF(2))
    pres = natural_of(ideal, tree)
    basis = common_eigenbasis(pres.character_image().basis_classes())
    # every corridor covered with the right multiplicity, by construction;
    # diagonality is re-checked inside common_eigenbasis itself
    alg = pres.space.algebra
    for key, idxs in alg.blocks.items():
        assert len(basis.block(*key)) == len(idxs)


def test_character_images_are_diagonal_on_their_adapted_bases():
    # the certificate holds for natural and twisted presentations, and the
    # hint never changes the answer
    rng = random.Random(37)
    certified = 0
    for field in (QQ, GF(2), GF(3)):
        for _ in range(10):
            q = random_quiver(rng, max_vertices=5)
            ideal = random_admissible_ideal(rng, q, field)
            nu = natural_of(ideal)
            twists = [random_dilatation(rng, q, field)]
            twists += [transvection_of(q, field, bp, random_nonzero(rng, field)) for bp in enumerate_bypasses(q)]
            twists.append(twists[-1].compose(twists[0]))
            for pres in [nu] + [nu.twist(phi) for phi in twists]:
                classes = pres.character_image().basis_classes()
                basis = pres.adapted_basis_blocks()
                assert _diagonal_on(classes, basis) is not None
                assert is_diagonalizable_set(classes, basis) is True
                assert is_diagonalizable_set(classes) is True
                certified += bool(classes)
    assert certified > 100


def kronecker_classes():
    """The natural presentation of the Kronecker algebra over QQ, with the
    swap a -> b, b -> a and the rotation a -> b, b -> -a."""
    pres = natural_of(kronecker(QQ)[1])
    swap = displayed_class(pres.space, {"a": [(1, "b")], "b": [(1, "a")]})
    rotation = displayed_class(pres.space, {"a": [(1, "b")], "b": [(-1, "a")]})
    return pres, swap, rotation


def test_a_basis_that_is_not_an_eigenbasis_falls_back_to_the_decision():
    pres, swap, rotation = kronecker_classes()
    natural = pres.adapted_basis_blocks()
    assert _diagonal_on([swap], natural) is None
    assert is_diagonalizable_set([swap], natural) is True  # eigenvalues 1 and -1
    assert _diagonal_on([rotation], natural) is None
    assert is_diagonalizable_set([rotation], natural) is False  # x^2 + 1 does not split
    assert is_diagonalizable_set([rotation]) is False
    # the swap's own eigenbasis certifies it
    eigen = common_eigenbasis([swap])
    assert _diagonal_on([swap], eigen) is not None
    assert is_diagonalizable_set([swap], eigen) is True


def test_common_eigenbasis_finds_a_nonzero_bracket_by_refinement(monkeypatch):
    pres, swap, _ = kronecker_classes()
    scale_a = displayed_class(pres.space, {"a": [(1, "a")]})
    assert is_diagonalizable_class(scale_a) and is_diagonalizable_class(swap)
    assert not is_diagonalizable_set([scale_a, swap])

    def no_bracket(*args):
        raise AssertionError("common_eigenbasis must not bracket")

    monkeypatch.setattr(CohomologySpace, "bracket", no_bracket)
    with pytest.raises(NotDiagonalizableError) as err:
        common_eigenbasis([scale_a, swap])
    assert err.value.witness == "nonzero bracket"


def test_special_basis_validation():
    q, mono, _, _ = parallel_pair(QQ)
    alg = FDAlgebra(mono)
    a_vec = alg.path_vector(q.arrow_path("a"))
    b_vec = alg.path_vector(q.arrow_path("b"))
    c_vec = alg.path_vector(q.arrow_path("c"))
    cb_vec = alg.path_vector(q.path(["b", "c"]))
    good = SpecialBasis(alg, {("1", "2"): (a_vec, b_vec), ("2", "3"): (c_vec,), ("1", "3"): (cb_vec,)})
    assert good.block("1", "2") == (a_vec, b_vec)
    with pytest.raises(ValueError):  # dependent block vectors
        SpecialBasis(alg, {("1", "2"): (a_vec, a_vec), ("2", "3"): (c_vec,), ("1", "3"): (cb_vec,)})
    with pytest.raises(ValueError):  # wrong dimension
        SpecialBasis(alg, {("1", "2"): (a_vec,), ("2", "3"): (c_vec,), ("1", "3"): (cb_vec,)})
    with pytest.raises(ValueError):  # escapes its corridor
        SpecialBasis(alg, {("1", "2"): (a_vec, c_vec), ("2", "3"): (c_vec,), ("1", "3"): (cb_vec,)})


def test_adapted_presentation_identity_case():
    q, ideal, tree = two_triangles_full(GF(2))
    pres = natural_of(ideal, tree)
    again = adapted_presentation(pres.space, pres.adapted_basis_blocks(), tree)
    # adapted to the natural basis: the same kernel (up to dilatation the
    # same presentation, and here literally the identity substitution)
    assert again.kernel == ideal
    assert again.chi.is_identity()


def test_adapted_presentation_kronecker_mixed_basis():
    q, ideal, tree = kronecker(QQ)
    space = CohomologySpace(FDAlgebra(ideal))
    alg = space.algebra
    a_vec = alg.path_vector(q.arrow_path("a"))
    b_vec = alg.path_vector(q.arrow_path("b"))
    a_plus_b = {i: QQ.add(a_vec.get(i, QQ.zero), b_vec.get(i, QQ.zero)) for i in a_vec.keys() | b_vec.keys()}
    mixed = SpecialBasis(alg, {("1", "2"): (a_vec, a_plus_b)})
    pres = adapted_presentation(space, mixed, tree)
    images = sorted(_render(q, QQ, pres.chi.images[n]) for n in ("a", "b"))
    assert images == ["a", "a + b"]
    assert pres.kernel.basis == ()  # the zero ideal stays admissible


def test_realize_in_image_golden_classes():
    q, ideal, tree = two_triangles_full(GF(2))
    space = CohomologySpace(FDAlgebra(ideal))
    d1 = displayed_class(space, {"a": [(1, "a")], "d": [(1, "d")]})
    pres, weights = realize_in_image([d1], tree)
    assert weights[0] == {"a": 1, "b": 0, "c": 0, "d": 1, "e": 0, "f": 0}
    assert pres.character_image().contains(d1)
    d2 = displayed_class(
        space, {"a": [(1, "a"), (1, "c*b")], "d": [(1, "d"), (1, "f*e")]}
    )
    pres2, weights2 = realize_in_image([d2], tree)
    assert pres2.character_image().contains(d2)
    # d2 arises from the twisted presentation: its kernel is again the ideal
    assert pres2.kernel == ideal
    assert not pres2.chi.is_identity()


def test_realize_in_image_rejects_nilpotent():
    q, mono, _, tree = parallel_pair(QQ)
    space = CohomologySpace(FDAlgebra(mono))
    n = displayed_class(space, {"b": [(1, "a")]})
    with pytest.raises(NotDiagonalizableError):
        realize_in_image([n], tree)


def test_tree_independence_of_the_embedding():
    q, ideal, _ = two_triangles_full(GF(2))
    space = CohomologySpace(FDAlgebra(ideal))
    tree1 = q.spanning_tree("1", preferred=["b", "c", "e", "f"])
    tree2 = q.spanning_tree("1", preferred=["a", "c", "e", "f"])
    nu1 = Presentation.natural(space, tree1)
    nu2 = Presentation.natural(space, tree2)
    f = space.field
    for w1 in nu1.hom.basis:
        # renormalize the character to the second tree through its walks
        w2 = {}
        for name in q.arrow_names:
            a = q.arrow(name)
            walk = q.concat_walks(
                tree2.walk_to[a.target].inverse(),
                q.concat_walks(q.path_walk(q.arrow_path(name)), tree2.walk_to[a.source]),
            )
            w2[name] = weight_of_walk(f, w1, walk)
        assert nu1.embed_character(w1) == nu2.embed_character(w2)
    img1, img2 = nu1.character_image(), nu2.character_image()
    assert img1.contains_span(img2) and img2.contains_span(img1)


def test_constricted_algebras_have_abelian_cohomology():
    # bound commutative square, monomial chains, and the free square are all
    # constricted; their character images exhaust the cohomology
    cases = [
        commutative_square(QQ, bound=True),
        commutative_square(QQ, bound=False),
        chain_with_monomials(4, QQ, cuts=(0, 1)),
        chain_with_monomials(5, GF(2), cuts=(1,)),
    ]
    for q, ideal, tree in cases:
        pres = natural_of(ideal, tree)
        assert pres.space.algebra.is_constricted()
        assert pres.character_image().dim == pres.space.dim
        basis = pres.space.basis_classes()
        for x in basis:
            for y in basis:
                assert pres.space.bracket(x, y).is_zero()


def test_kronecker_is_not_constricted():
    q, ideal, tree = kronecker(QQ)
    assert not FDAlgebra(ideal).is_constricted()


def test_centralizer_of_zero_span_is_everything():
    q, ideal, tree = kronecker(QQ)
    space = CohomologySpace(FDAlgebra(ideal))
    cent = centralizer(space, space.span([]))
    assert cent.dim == space.dim


def test_maximality_golden_cases():
    # the nontrivial class on the doubled arrow centralizes only itself
    for field in (QQ, GF(3)):
        q, mono, _, tree = parallel_pair(field)
        space = CohomologySpace(FDAlgebra(mono))
        h = displayed_class(space, {"a": [(1, "a")]})
        verdict, witness = is_maximal_diagonalizable(space.span([h]))
        assert verdict == YES and witness is None
    # the zero span inside the Kronecker cohomology extends
    q, ideal, tree = kronecker(GF(3))
    space = CohomologySpace(FDAlgebra(ideal))
    verdict, witness = is_maximal_diagonalizable(space.span([]))
    assert verdict == NO
    assert witness is not None and is_diagonalizable_class(witness)
    # the character image itself is maximal
    pres = natural_of(ideal)
    assert is_maximal_diagonalizable(pres.character_image())[0] == YES


def test_maximality_budget_cap_yields_unknown():
    from bquiver.budgets import Budgets

    q, ideal, tree = kronecker(GF(5))
    space = CohomologySpace(FDAlgebra(ideal))
    tiny = Budgets(maxdiag_max_candidates=1)
    verdict, witness = is_maximal_diagonalizable(space.span([]), tiny)
    assert verdict == "unknown" and witness is None
    # with the default budget the sweep is exhaustive and finds a witness
    assert is_maximal_diagonalizable(space.span([]))[0] == NO


def test_maximality_rejects_non_diagonalizable_input():
    q, mono, _, tree = parallel_pair(QQ)
    space = CohomologySpace(FDAlgebra(mono))
    n = displayed_class(space, {"b": [(1, "a")]})
    with pytest.raises(ValueError):
        is_maximal_diagonalizable(space.span([n]))


def test_brute_force_maximality_matches_gf3():
    # exhaustive check over GF(3): one-dimensional spans through a + y*b
    # scalings are maximal; the nilpotent direction is not diagonalizable
    q, mono, _, tree = parallel_pair(GF(3))
    space = CohomologySpace(FDAlgebra(mono))
    h = displayed_class(space, {"a": [(1, "a")]})
    y = displayed_class(space, {"b": [(1, "a")]})
    maximal_spans = []
    for c1 in range(3):
        for c2 in range(3):
            cls = h.scale(c1) + y.scale(c2)
            if cls.is_zero() or not is_diagonalizable_class(cls):
                continue
            span = space.span([cls])
            if span not in maximal_spans and is_maximal_diagonalizable(span)[0] == YES:
                maximal_spans.append(span)
    assert len(maximal_spans) == 3
