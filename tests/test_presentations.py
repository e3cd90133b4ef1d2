import collections
import functools
import itertools
import random

import pytest

from bquiver import (
    CohomologyClass,
    CohomologySpace,
    Derivation,
    FDAlgebra,
    GF,
    NO,
    NotDiagonalizableError,
    Presentation,
    QQ,
    YES,
    adapted_presentation,
    centralizer,
    common_eigenbasis,
    diagonalizability_witness,
    enumerate_bypasses,
    identity_automorphism,
    is_diagonalizable_class,
    is_diagonalizable_set,
    is_maximal_diagonalizable,
    parse_input,
    realize_in_image,
    transvection_of,
)
from bquiver import presentations
from bquiver.linalg import _combination, minimal_polynomial, roots_in_field
from bquiver.pathalg import _render
from bquiver.presentations import _diagonal_on
from bquiver.relquiver import build_relation_quiver, enumerate_spans, presentation_for_vertex

from conftest import (
    chain_with_monomials,
    commutative_square,
    elem,
    is_constricted,
    kronecker,
    parallel_pair,
    random_admissible_ideal,
    random_dilatation,
    random_field,
    random_nonzero,
    random_quiver,
    tree_steps,
    two_triangles_full,
    two_triangles_twist,
)
from test_golden_digests import DOCUMENTS


def natural_of(ideal, tree=None):
    space = CohomologySpace(FDAlgebra(ideal))
    q = ideal.quiver
    tree = tree or q.spanning_tree(q.vertices[0])
    return Presentation.natural(space, tree)


def adapted_basis(pres):
    """The adapted basis: the images of the kernel's nontrivial normal paths,
    sparse vectors by corridor of the radical, arrow-free corridors too."""
    blocks = {}
    for p in pres.kernel.normal_paths:
        if not p.is_trivial:
            blocks.setdefault((p.source, p.target), []).append(pres.image_of_path(p))
    return {key: tuple(vecs) for key, vecs in blocks.items()}


def vectors_of(blocks):
    """Every vector of ``{corridor: vectors}``, corridor by corridor."""
    return [v for vecs in blocks.values() for v in vecs]


def displayed_class(space, images):
    alg = space.algebra
    vecs = {n: alg.vector_of(elem(alg.quiver, alg.field, *t)) for n, t in images.items()}
    return space.class_of(Derivation(alg, vecs))


def test_embedding_reproduces_displayed_derivations():
    q, ideal, tree = two_triangles_full(GF(2))
    space = CohomologySpace(FDAlgebra(ideal))
    nu = Presentation.natural(space, tree)
    psi = two_triangles_twist(q, GF(2))
    mu = Presentation(space, nu.chi.compose(psi), nu.tree)
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


def diagonalizable_on_every_corridor(cls):
    """The reference decision on every corridor of the radical, arrow-free
    ones too: each minimal polynomial has as many distinct roots in the
    field as its degree."""
    alg = cls.space.algebra
    f = alg.field
    d = cls.representative()
    corridors = {}
    for i, p in enumerate(alg.basis):
        if not p.is_trivial:
            corridors.setdefault((p.source, p.target), []).append(i)
    for idxs in corridors.values():
        position = {i: k for k, i in enumerate(idxs)}
        mp = minimal_polynomial(f, [{position[i]: x for i, x in d.image_of_basis(j).items()} for j in idxs])
        if len(roots_in_field(f, mp)) != len(mp) - 1:
            return False
    return True


def test_the_arrow_corridors_decide_diagonalizability():
    # a class diagonalizable on every arrow corridor is diagonalizable on
    # the whole radical: the decision on the algebra's blocks agrees with the
    # reference over every corridor, on basis classes and random combinations,
    # in algebras with a corridor that carries no arrow
    rng = random.Random(7)
    outcomes = collections.Counter()
    while min(outcomes[True], outcomes[False]) <= 100:
        field = random_field(rng)
        q = random_quiver(rng)
        space = CohomologySpace(FDAlgebra(random_admissible_ideal(rng, q, field)))
        radical = {(p.source, p.target) for p in space.algebra.basis if not p.is_trivial}
        basis = space.basis_classes()
        if len(radical) == len(q.parallel_classes()) or not basis:
            continue
        combos = [
            functools.reduce(CohomologyClass.__add__, (b.scale(random_nonzero(rng, field)) for b in sample))
            for sample in (rng.sample(basis, rng.randint(1, len(basis))) for _ in range(3))
        ]
        for cls in basis + combos:
            verdict = is_diagonalizable_class(cls)
            assert verdict == diagonalizable_on_every_corridor(cls)
            outcomes[verdict] += 1


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


def count_minimal_polynomials(monkeypatch) -> list:
    """The block sizes of the minimal polynomials presentations computes from now on."""
    calls = []

    def counting(field, columns):
        calls.append(len(columns))
        return minimal_polynomial(field, columns)

    monkeypatch.setattr(presentations, "minimal_polynomial", counting)
    return calls


def test_each_class_spectrum_is_decided_once(monkeypatch):
    calls = count_minimal_polynomials(monkeypatch)
    q, mono, _, tree = parallel_pair(QQ)
    space = CohomologySpace(FDAlgebra(mono))
    # equal classes built separately share one memo entry
    h1 = displayed_class(space, {"a": [(1, "a")]})
    h2 = displayed_class(space, {"a": [(1, "a")]})
    assert h1 is not h2 and h1 == h2
    assert is_diagonalizable_class(h1) and is_diagonalizable_class(h2)
    # one minimal polynomial per arrow corridor: (1, 2) and (2, 3), not the
    # arrow-free (1, 3)
    assert len(calls) == len(q.parallel_classes()) == 2
    common_eigenbasis([h1])
    common_eigenbasis([h2, h1])
    assert len(calls) == len(q.parallel_classes())
    # a non-diagonalizable class keeps its witness, decided up to the failing block once
    n = displayed_class(space, {"b": [(1, "a")]})
    before = len(calls)
    witness = diagonalizability_witness(n)
    assert witness is not None
    decided = len(calls) - before
    assert 1 <= decided <= len(q.parallel_classes())
    with pytest.raises(NotDiagonalizableError) as err:
        common_eigenbasis([h1, n])
    assert err.value.witness == witness
    assert diagonalizability_witness(n) == witness and not is_diagonalizable_class(n)
    assert len(calls) == before + decided


def test_maximality_candidates_enter_the_spectrum_memo(monkeypatch):
    # the zero span of the Kronecker cohomology over GF(3) extends: the sweep
    # decides candidates through their monic lines until a diagonalizable one
    # turns up, and keeps each decision, so asking again decides nothing new
    calls = count_minimal_polynomials(monkeypatch)
    q, ideal, tree = kronecker(GF(3))
    space = CohomologySpace(FDAlgebra(ideal))
    verdict, witness = is_maximal_diagonalizable(space.span([]))
    assert verdict == NO
    line = witness.scale(space.field.inv(witness.coords[min(witness.coords)]))
    assert line in space._spectra
    decided = len(calls)
    assert decided > 0
    assert is_maximal_diagonalizable(space.span([])) == (NO, witness)
    assert len(calls) == decided


def test_common_eigenbasis_diagonalizes_image():
    q, ideal, tree = two_triangles_full(GF(2))
    pres = natural_of(ideal, tree)
    classes = pres.character_image().basis_classes()
    blocks = common_eigenbasis(classes)
    # every arrow corridor covered with the right multiplicity, and the
    # family diagonal on every vector
    alg = pres.space.algebra
    assert list(blocks) == list(q.parallel_classes())
    for key, idxs in alg.blocks.items():
        assert len(blocks[key]) == len(idxs)
    assert _diagonal_on(classes, vectors_of(blocks)) is True


def no_spectrum(cls):
    raise AssertionError("the certificate must decide no spectrum")


def test_character_images_are_diagonal_on_their_adapted_bases(monkeypatch):
    # the certificate holds for natural and twisted presentations, it needs
    # no spectrum, and the hint never changes the answer
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
            for pres in [nu] + [Presentation(nu.space, nu.chi.compose(phi), nu.tree) for phi in twists]:
                classes = pres.character_image().basis_classes()
                assert _diagonal_on(classes, pres.arrow_images()) is True
                assert _diagonal_on(classes, vectors_of(adapted_basis(pres))) is True
                with monkeypatch.context() as patch:
                    patch.setattr(presentations, "_spectra", no_spectrum)
                    assert is_diagonalizable_set(classes, pres) is True
                assert is_diagonalizable_set(classes) is True
                certified += bool(classes)
    assert certified > 100


def certificate_presentations(space, ideal, tree):
    """The natural presentation, each Gamma vertex's, and a realized one per
    diagonalizable basis class."""
    rq = build_relation_quiver(ideal, tree, search_max_nodes=2000)
    out = [Presentation.natural(space, tree)]
    out += [presentation_for_vertex(space, rq, i) for i in range(len(rq.vertices))]
    out += [realize_in_image([b], tree) for b in space.basis_classes() if is_diagonalizable_class(b)]
    return out


def certificate_instances():
    """The golden documents' ideals and seeded instances over QQ and GF(p)."""
    for text, names in DOCUMENTS.values():
        doc = parse_input(text)
        for name in names:
            yield doc.ideal(name), doc.spanning_tree()
    rng = random.Random(41)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(6):
            q = random_quiver(rng, max_vertices=5, max_paths=20)
            yield random_admissible_ideal(rng, q, field), q.spanning_tree(q.vertices[0])


def test_arrow_images_certify_exactly_what_the_adapted_basis_certifies():
    # diagonal on the arrow images exactly when diagonal on the adapted
    # basis: for the character image, each basis class of the cohomology,
    # and the image with each basis class, on every presentation drawn
    outcomes = collections.Counter()
    for ideal, tree in certificate_instances():
        space = CohomologySpace(FDAlgebra(ideal))
        for pres in certificate_presentations(space, ideal, tree):
            image = pres.character_image().basis_classes()
            families = [image] + [[b] for b in space.basis_classes()] + [image + [b] for b in space.basis_classes()]
            arrows, basis = pres.arrow_images(), vectors_of(adapted_basis(pres))
            for family in families:
                certified = _diagonal_on(family, arrows)
                assert certified == _diagonal_on(family, basis)
                outcomes[certified] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100


def kronecker_classes():
    """The natural presentation of the Kronecker algebra over QQ, with the
    swap a -> b, b -> a and the rotation a -> b, b -> -a."""
    pres = natural_of(kronecker(QQ)[1])
    swap = displayed_class(pres.space, {"a": [(1, "b")], "b": [(1, "a")]})
    rotation = displayed_class(pres.space, {"a": [(1, "b")], "b": [(-1, "a")]})
    return pres, swap, rotation


def test_a_basis_that_is_not_an_eigenbasis_falls_back_to_the_decision():
    pres, swap, rotation = kronecker_classes()
    assert _diagonal_on([swap], pres.arrow_images()) is False
    assert is_diagonalizable_set([swap], pres) is True  # eigenvalues 1 and -1
    assert _diagonal_on([rotation], pres.arrow_images()) is False
    assert is_diagonalizable_set([rotation], pres) is False  # x^2 + 1 does not split
    assert is_diagonalizable_set([rotation]) is False
    # the swap's own eigenbasis certifies it, and so does the presentation
    # realized on it
    assert _diagonal_on([swap], vectors_of(common_eigenbasis([swap]))) is True
    realized = realize_in_image([swap], pres.tree)
    assert _diagonal_on([swap], realized.arrow_images()) is True
    assert is_diagonalizable_set([swap], realized) is True


def test_the_natural_presentation_is_the_identity():
    # no inversion and no transported ideal, with the same characters and
    # image as the identity automorphism taken through the general path
    rng = random.Random(43)
    for field in (QQ, GF(2), GF(3), QQ, GF(5)):
        for _ in range(4):
            q = random_quiver(rng, max_vertices=5)
            ideal = random_admissible_ideal(rng, q, field)
            space = CohomologySpace(FDAlgebra(ideal))
            tree = q.spanning_tree(q.vertices[0])
            nu = Presentation.natural(space, tree)
            general = Presentation(space, identity_automorphism(q, field), tree)
            assert nu.kernel is space.algebra.ideal
            assert nu.chi_inverse.images == nu.chi.invert().images
            assert nu.hom == general.hom
            assert nu.character_image() == general.character_image()


@pytest.mark.parametrize(
    "field, diagonalizable",
    [
        (GF(5), True),  # x^2 + 1 = (x - 2)(x - 3)
        (GF(3), False),  # x^2 + 1 is irreducible
        (GF(2), False),  # x^2 + 1 = (x + 1)^2: a repeated root
        (QQ, False),  # no rational root
    ],
)
def test_the_kronecker_rotation_is_diagonalizable_over_the_ground_field_only(field, diagonalizable):
    # diagonalizable means over the ground field: no extension is taken
    pres = natural_of(kronecker(field)[1])
    rotation = displayed_class(pres.space, {"a": [(1, "b")], "b": [(-1, "a")]})
    assert is_diagonalizable_class(rotation) is diagonalizable
    assert is_diagonalizable_set([rotation]) is diagonalizable
    if diagonalizable:
        assert diagonalizability_witness(rotation) is None
        assert _diagonal_on([rotation], vectors_of(common_eigenbasis([rotation]))) is True
    else:
        witness = diagonalizability_witness(rotation)
        assert witness == (("1", "2"), (field.one, field.zero, field.one))
        with pytest.raises(NotDiagonalizableError) as err:
            common_eigenbasis([rotation])
        assert err.value.witness == witness


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


def test_adapted_presentation_rejects_blocks_that_are_no_corridor_basis():
    q, mono, _, tree = parallel_pair(QQ)
    space = CohomologySpace(FDAlgebra(mono))
    alg = space.algebra
    a_vec, b_vec, c_vec = (alg.vector_of({q.arrow_path(n): alg.field.one}) for n in "abc")
    assert adapted_presentation(space, {("1", "2"): (a_vec, b_vec), ("2", "3"): (c_vec,)}, tree).kernel == mono
    # a repeated vector leaves the second arrow of (1, 2) without an image
    with pytest.raises(ValueError, match="no basis element completes an invertible substitution"):
        adapted_presentation(space, {("1", "2"): (a_vec, a_vec), ("2", "3"): (c_vec,)}, tree)
    # b + c has an arrow residue on (1, 2) but leaves that corridor
    b_plus_c = {**b_vec, **c_vec}
    with pytest.raises(ValueError, match="not parallel"):
        adapted_presentation(space, {("1", "2"): (a_vec, b_plus_c), ("2", "3"): (c_vec,)}, tree)


def test_adapted_presentation_identity_case():
    q, ideal, tree = two_triangles_full(GF(2))
    pres = natural_of(ideal, tree)
    again = adapted_presentation(pres.space, adapted_basis(pres), tree)
    # adapted to the natural basis: the same kernel (up to dilatation the
    # same presentation, and here literally the identity substitution)
    assert again.kernel == ideal
    assert again.chi == identity_automorphism(q, GF(2))


def test_adapted_presentation_kronecker_mixed_basis():
    q, ideal, tree = kronecker(QQ)
    space = CohomologySpace(FDAlgebra(ideal))
    alg = space.algebra
    a_vec = alg.vector_of({q.arrow_path("a"): alg.field.one})
    b_vec = alg.vector_of({q.arrow_path("b"): alg.field.one})
    a_plus_b = {i: QQ.add(a_vec.get(i, QQ.zero), b_vec.get(i, QQ.zero)) for i in a_vec.keys() | b_vec.keys()}
    pres = adapted_presentation(space, {("1", "2"): (a_vec, a_plus_b)}, tree)
    images = sorted(_render(q, QQ, pres.chi.images[n]) for n in ("a", "b"))
    assert images == ["a", "a + b"]
    assert pres.kernel.basis == ()  # the zero ideal stays admissible


def test_realize_in_image_golden_classes():
    q, ideal, tree = two_triangles_full(GF(2))
    space = CohomologySpace(FDAlgebra(ideal))
    d1 = displayed_class(space, {"a": [(1, "a")], "d": [(1, "d")]})
    pres = realize_in_image([d1], tree)
    assert pres.embed_character({"a": 1, "b": 0, "c": 0, "d": 1, "e": 0, "f": 0}) == d1
    assert pres.character_image().contains(d1)
    d2 = displayed_class(
        space, {"a": [(1, "a"), (1, "c*b")], "d": [(1, "d"), (1, "f*e")]}
    )
    pres2 = realize_in_image([d2], tree)
    assert pres2.character_image().contains(d2)
    # d2 arises from the twisted presentation: its kernel is again the ideal
    assert pres2.kernel == ideal
    assert pres2.chi != identity_automorphism(q, GF(2))


def test_realize_in_image_rejects_the_empty_family():
    tree = kronecker(QQ)[2]
    with pytest.raises(ValueError, match="need at least one class"):
        realize_in_image([], tree)


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

    def along(weights, v):
        """The signed weight sum along the second tree's path to ``v``."""
        acc = f.zero
        for n, eps in tree_steps(q, tree2, v):
            x = weights.get(n, f.zero)
            acc = f.add(acc, x) if eps == 1 else f.sub(acc, x)
        return acc

    for w1 in nu1.hom:
        # renormalize the character to the second tree: an arrow weighs the
        # loop out along that tree to its source, across it, and back
        w2 = {}
        for name in q.arrow_names:
            a = q.arrow(name)
            w2[name] = f.sub(f.add(along(w1, a.source), w1.get(name, f.zero)), along(w1, a.target))
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
        assert is_constricted(pres.space.algebra)
        assert pres.character_image().dim == pres.space.dim
        basis = pres.space.basis_classes()
        for x in basis:
            for y in basis:
                assert pres.space.bracket(x, y).is_zero()


def test_kronecker_is_not_constricted():
    q, ideal, tree = kronecker(QQ)
    assert not is_constricted(FDAlgebra(ideal))


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


def test_maximality_budget_cap_yields_unknown(monkeypatch):
    q, ideal, tree = kronecker(GF(5))
    space = CohomologySpace(FDAlgebra(ideal))
    with monkeypatch.context() as patched:
        patched.setattr(presentations, "_MAXDIAG_MAX_CANDIDATES", 1)
        verdict, witness = is_maximal_diagonalizable(space.span([]))
    assert verdict == "unknown" and witness is None
    # with the fixed limit the sweep is exhaustive and finds a witness
    assert is_maximal_diagonalizable(space.span([]))[0] == NO


def test_maximality_after_a_sweep_that_finds_no_candidate(monkeypatch):
    # the zero span of the Kronecker cohomology has a 3-dimensional
    # centralizer; with every candidate rejected, only the finite-field
    # sweep is exhaustive and so proves the span maximal
    monkeypatch.setattr(presentations, "is_diagonalizable_class", lambda cls: False)
    for field, expected in ((GF(3), YES), (QQ, "unknown")):
        space = CohomologySpace(FDAlgebra(kronecker(field)[1]))
        assert centralizer(space, space.span([])).dim == 3
        assert is_maximal_diagonalizable(space.span([])) == (expected, None)


def _maximality_by_every_vector(span):
    """The maximality sweep over GF(p) through every nonzero vector of the
    centralizer, the first coordinate varying fastest, with no limit."""
    space, f = span.space, span.space.field
    cent = centralizer(space, span)
    if cent.dim == span.dim:
        return YES, None
    vectors = [b.coords for b in cent.basis_classes()]
    for digits in itertools.product(f.elements(), repeat=len(vectors)):
        coeffs = {t: v for t, v in enumerate(reversed(digits)) if v}
        cls = CohomologyClass(space, _combination(f, vectors, coeffs))
        if coeffs and not span.contains(cls) and is_diagonalizable_class(cls):
            return NO, cls
    return YES, None


def test_maximality_sweep_by_lines_matches_every_vector():
    # one class per line gives the verdict and the witness of the sweep
    # through every vector, on the zero span, the character image and the
    # line of each diagonalizable basis class
    rng = random.Random(2026)
    instances = swept = 0
    while instances < 150:
        field = rng.choice([GF(2), GF(3), GF(5)])
        ideal = random_admissible_ideal(rng, random_quiver(rng), field)
        space = CohomologySpace(FDAlgebra(ideal))
        if not 1 <= space.dim <= 4:
            continue
        instances += 1
        pres = Presentation.natural(space, ideal.quiver.spanning_tree(ideal.quiver.vertices[0]))
        spans = [space.span([]), pres.character_image()]
        spans += [space.span([b]) for b in space.basis_classes() if is_diagonalizable_class(b)]
        for span in spans:
            verdict, witness = is_maximal_diagonalizable(span)
            expected, expected_witness = _maximality_by_every_vector(span)
            assert verdict == expected
            assert (witness is None) == (expected_witness is None)
            if witness is not None:
                assert witness.coords == expected_witness.coords
            swept += centralizer(space, span).dim > span.dim
    assert swept > 100


def test_commuting_diagonalizable_classes_have_commuting_representatives():
    # the lemma behind the maximality step: inner derivations are scalar on
    # every corridor block, and a commutator with a diagonalizable operator
    # has zero diagonal on its eigenbasis, so the canonical representatives
    # of commuting diagonalizable classes commute exactly; hence every span
    # that enumerate_spans grows has diagonalizable echelon rows
    rng = random.Random(4242)
    instances = pairs = rows = 0
    while instances < 100:
        field = rng.choice([GF(2), GF(3), GF(5), QQ])
        ideal = random_admissible_ideal(rng, random_quiver(rng), field)
        space = CohomologySpace(FDAlgebra(ideal))
        if space.dim < 2:
            continue
        instances += 1
        basis = space.basis_classes()
        classes = basis + [
            b1.scale(random_nonzero(rng, field)) + b2.scale(random_nonzero(rng, field))
            for b1, b2 in (rng.sample(basis, 2) for _ in range(3))
        ]
        diagonalizable = [c for c in classes if not c.is_zero() and is_diagonalizable_class(c)]
        for c, d in itertools.combinations(diagonalizable, 2):
            if not space.bracket(c, d).is_zero():
                continue
            pairs += 1
            rc, rd = c.representative(), d.representative()
            for name in ideal.quiver.arrow_names:
                assert rc.apply(rd.arrow_image(name)) == rd.apply(rc.arrow_image(name))
        if field is not QQ and space.dim <= 4:
            # decided afresh, in a space whose memo enumerate_spans never saw
            fresh = CohomologySpace(FDAlgebra(ideal))
            for span in enumerate_spans(space):
                for row in span.basis_classes():
                    assert is_diagonalizable_class(CohomologyClass(fresh, row.coords))
                    rows += 1
    assert pairs > 300 and rows > 500


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
