import itertools
import random

import pytest

from bquiver import (
    CohomologySpace,
    Derivation,
    FDAlgebra,
    GF,
    IdealData,
    Presentation,
    QQ,
    Quiver,
    conjugate_class,
    dilatation,
    enumerate_bypasses,
    inner_derivation,
    inner_derivation_space,
    transvection_of,
)
from bquiver.homotopy import weight_of_path
from bquiver.linalg import _Echelon

from conftest import (
    commutative_square,
    elem,
    kronecker,
    mat_inverse,
    mat_mul,
    parallel_pair,
    random_admissible_ideal,
    random_field,
    random_fixing_automorphism,
    random_nonzero,
    random_quiver,
    two_triangles_full,
)


def spaces_for_corpus():
    out = []
    for field in (QQ, GF(2)):
        q, mono, diff, tree = parallel_pair(field)
        out.append(CohomologySpace(FDAlgebra(mono)))
        out.append(CohomologySpace(FDAlgebra(diff)))
    out.append(CohomologySpace(FDAlgebra(kronecker(QQ)[1])))
    out.append(CohomologySpace(FDAlgebra(two_triangles_full(GF(2))[1])))
    out.append(CohomologySpace(FDAlgebra(commutative_square(QQ)[1])))
    return out


def test_algebra_dimensions():
    q, ideal, tree = kronecker(QQ)
    assert FDAlgebra(ideal).dim == 4
    q, mono, diff, tree = parallel_pair(QQ)
    # eight paths, one pivot
    assert FDAlgebra(mono).dim == 7
    single = Quiver(["1"], [])
    assert FDAlgebra(IdealData(single, QQ, ())).dim == 1


def test_algebra_rejects_inadmissible_ideal():
    q, mono, _, _ = parallel_pair(QQ)
    bad = IdealData(q, QQ, [{q.arrow_path("a"): QQ.one}])
    with pytest.raises(ValueError):
        FDAlgebra(bad)


def test_unit_and_associativity():
    rng = random.Random(5)
    for alg in [FDAlgebra(two_triangles_full(GF(2))[1]), FDAlgebra(parallel_pair(QQ)[1])]:
        one = alg.unit_vector()
        assert len(one) == len(alg.quiver.vertices)
        for i in range(alg.dim):
            e = {i: alg.field.one}
            assert alg.multiply_vectors(one, e) == e
            assert alg.multiply_vectors(e, one) == e
        for _ in range(20):
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            ei, ej, ek = {i: alg.field.one}, {j: alg.field.one}, {k: alg.field.one}
            left = alg.multiply_vectors(alg.multiply_vectors(ei, ej), ek)
            right = alg.multiply_vectors(ei, alg.multiply_vectors(ej, ek))
            assert left == right


def test_derivation_dimensions_kronecker():
    # no relations: both arrow images roam a two-dimensional corridor
    space = CohomologySpace(FDAlgebra(kronecker(QQ)[1]))
    assert len(space.der_basis) == 4
    assert len(space.inner_basis) == 1
    assert space.dim == 3


def test_derivation_dimension_parallel_pair_hand_system():
    # independent solve: unknowns (a->a, a->b, b->a, b->b, c->c); expanding
    # the single relation c*a forces the a->b coordinate to vanish
    q, mono, _, _ = parallel_pair(QQ)
    space = CohomologySpace(FDAlgebra(mono))
    assert len(space.der_basis) == 4
    unknowns = space.algebra.derivation_unknowns
    ab_index = unknowns.index(("a", q.arrow_path("b")))
    for d in space.der_basis:
        assert d.coordinates()[ab_index] == QQ.zero
    assert len(space.inner_basis) == 2
    assert space.dim == 2


def test_derivation_count_brute_force_gf2():
    # enumerate all coordinate vectors over GF(2) and count Leibniz solutions
    q, mono, _, _ = parallel_pair(GF(2))
    alg = FDAlgebra(mono)
    space = CohomologySpace(alg)
    n = len(alg.derivation_unknowns)
    solutions = []
    for bits in itertools.product([0, 1], repeat=n):
        d = Derivation.from_coordinates(alg, bits)
        ok = all(not d.leibniz_defect(i, j) for i in range(alg.dim) for j in range(alg.dim))
        if ok:
            solutions.append(bits)
    assert len(solutions) == 2 ** len(space.der_basis)


def test_displayed_derivations_solve_the_system():
    q, ideal, tree = two_triangles_full(GF(2))
    alg = FDAlgebra(ideal)
    space = CohomologySpace(alg)
    f = GF(2)

    def vec_of(notation_terms):
        return alg.vector_of(elem(q, f, *notation_terms))

    d1 = Derivation(alg, {"a": vec_of([(1, "a")]), "d": vec_of([(1, "d")])})
    d2 = Derivation(
        alg,
        {"a": vec_of([(1, "a"), (1, "c*b")]), "d": vec_of([(1, "d"), (1, "f*e")])},
    )
    # class_of validates membership in the derivation space
    c1 = space.class_of(d1)
    c2 = space.class_of(d2)
    assert c1 != c2
    diff = Derivation(
        alg, {"a": vec_of([(1, "c*b")]), "d": vec_of([(1, "f*e")])}
    )
    assert not space.is_inner(diff)


def test_inner_derivation_space_is_the_echelon_of_the_vertex_derivations():
    rng = random.Random(43)
    for _ in range(40):
        q = random_quiver(rng)
        field = random_field(rng)
        alg = FDAlgebra(random_admissible_ideal(rng, q, field))
        reference = _Echelon(field)
        for v in q.vertices:
            reference.insert(inner_derivation(alg, {v: field.one}).coords)
        inner = inner_derivation_space(alg)
        assert [d.coords for d in inner] == [reference.rows[p] for p in sorted(reference.rows)]
        assert len(inner) == len(q.vertices) - 1


def test_inner_derivations_and_classes():
    q, mono, _, _ = parallel_pair(QQ)
    space = CohomologySpace(FDAlgebra(mono))
    delta = inner_derivation(space.algebra, {"2": QQ.one})
    assert space.is_inner(delta)
    assert space.class_of(delta).is_zero()
    # adding any inner derivation never moves the class
    rng = random.Random(8)
    for d in space.der_basis:
        coeffs = {v: rng.randint(-2, 2) for v in q.vertices}
        shifted_coords = tuple(
            QQ.add(x, y)
            for x, y in zip(d.coordinates(), inner_derivation(space.algebra, coeffs).coordinates())
        )
        shifted = Derivation.from_coordinates(space.algebra, shifted_coords)
        assert space.class_of(shifted) == space.class_of(d)


def test_inner_dimension_is_vertices_minus_one():
    rng = random.Random(12)
    for space in spaces_for_corpus():
        assert len(space.inner_basis) == len(space.algebra.quiver.vertices) - 1
    for _ in range(5):
        q = random_quiver(rng)
        ideal = random_admissible_ideal(rng, q, QQ)
        assert len(CohomologySpace(FDAlgebra(ideal)).inner_basis) == len(q.vertices) - 1


def test_class_of_rejects_non_derivation():
    q, mono, _, _ = parallel_pair(QQ)
    alg = FDAlgebra(mono)
    space = CohomologySpace(alg)
    bad = Derivation(alg, {"a": {alg.index[q.arrow_path("b")]: QQ.one}})  # a -> b breaks the relation
    with pytest.raises(ValueError):
        space.class_of(bad)


def test_derivation_rejects_an_image_outside_its_corridor():
    q, mono, _, _ = parallel_pair(QQ)
    alg = FDAlgebra(mono)
    # c runs 2 -> 3, a runs 1 -> 2; the idempotent e_1 lies in no corridor
    for image in ({alg.index[q.arrow_path("a")]: 1}, {alg.idempotent_index["1"]: 1}):
        with pytest.raises(ValueError, match="leaves its corridor"):
            Derivation(alg, {"c": image})
    # zero entries are not images: they are dropped, not checked
    assert Derivation(alg, {"c": {alg.index[q.arrow_path("a")]: 0}}) == Derivation(alg, {})
    # a parallel arrow is inside the corridor
    d = Derivation(alg, {"a": {alg.index[q.arrow_path("b")]: 2}})
    assert d.arrow_image("a") == {alg.index[q.arrow_path("b")]: QQ.coerce(2)}
    assert d.arrow_image("c") == {}


def test_leibniz_full_check_on_corpus():
    for space in spaces_for_corpus():
        alg = space.algebra
        for d in space.der_basis:
            for i in range(alg.dim):
                for j in range(alg.dim):
                    assert d.leibniz_defect(i, j) == {}


def test_derivations_preserve_corridors():
    for space in spaces_for_corpus():
        alg = space.algebra
        for d in space.der_basis:
            for j, p in enumerate(alg.basis):
                for i, x in d.apply({j: alg.field.one}).items():
                    assert not alg.field.is_zero(x)
                    target = alg.basis[i]
                    assert (target.source, target.target) == (p.source, p.target)


def test_bracket_alternating_and_golden_value():
    q, mono, _, _ = parallel_pair(QQ)
    alg = FDAlgebra(mono)
    space = CohomologySpace(alg)

    def cls(images):
        vecs = {}
        for name, terms in images.items():
            vecs[name] = alg.vector_of(elem(q, QQ, *terms))
        return space.class_of(Derivation(alg, vecs))

    h = cls({"a": [(1, "a")]})
    y = cls({"b": [(1, "a")]})
    assert space.bracket(h, h).is_zero()
    # hand computation on the two-by-two corridor: [a->a, b->a] = b->a
    assert space.bracket(h, y) == y
    assert not space.bracket(h, y).is_zero()


def test_bracket_jacobi_random_triples():
    rng = random.Random(19)
    for space in [
        CohomologySpace(FDAlgebra(two_triangles_full(GF(2))[1])),
        CohomologySpace(FDAlgebra(parallel_pair(QQ)[1])),
        CohomologySpace(FDAlgebra(kronecker(GF(3))[1])),
    ]:
        basis = space.basis_classes()
        if not basis:
            continue
        for _ in range(5):
            f, g, h = (rng.choice(basis) for _ in range(3))
            total = (
                space.bracket(f, space.bracket(g, h))
                + space.bracket(g, space.bracket(h, f))
                + space.bracket(h, space.bracket(f, g))
            )
            assert total.is_zero()


def test_bracket_well_defined_modulo_inner():
    q, mono, _, _ = parallel_pair(QQ)
    space = CohomologySpace(FDAlgebra(mono))
    zero = space.zero_class()
    for b in space.basis_classes():
        assert space.bracket(b, zero).is_zero()


def test_cohomology_dimension_golden():
    assert CohomologySpace(FDAlgebra(kronecker(QQ)[1])).dim == 3
    assert CohomologySpace(FDAlgebra(kronecker(GF(3))[1])).dim == 3
    assert CohomologySpace(FDAlgebra(parallel_pair(QQ)[1])).dim == 2


def test_derivation_space_matches_brute_force_on_random_instances():
    # independent oracle: enumerate raw coordinate vectors over a small prime
    # field and count the ones satisfying Leibniz on all basis pairs
    rng = random.Random(55)
    checked = 0
    while checked < 6:
        q = random_quiver(rng, max_vertices=4, max_paths=16)
        field = GF(2)
        ideal = random_admissible_ideal(rng, q, field)
        alg = FDAlgebra(ideal)
        n = len(alg.derivation_unknowns)
        if n > 6:
            continue
        count = 0
        for bits in itertools.product([0, 1], repeat=n):
            d = Derivation.from_coordinates(alg, bits)
            if all(not d.leibniz_defect(i, j) for i in range(alg.dim) for j in range(alg.dim)):
                count += 1
        space = CohomologySpace(alg)
        assert count == 2 ** len(space.der_basis)
        checked += 1


def _dense_matrix(d):
    """The derivation's dense dim x dim matrix: column j is D(basis[j])."""
    alg = d.algebra
    f = alg.field
    columns = [d.apply({j: f.one}) for j in range(alg.dim)]
    return [[col.get(i, f.zero) for col in columns] for i in range(alg.dim)]


def _dense_columns(f, n, vectors):
    """The matrix whose columns are the given sparse vectors of length n."""
    return [[v.get(i, f.zero) for v in vectors] for i in range(n)]


def _class_of_arrow_columns(space, m):
    """The class of the derivation whose arrow images are m's arrow columns."""
    alg = space.algebra
    q = alg.quiver
    imgs = {name: {i: row[alg.index[q.arrow_path(name)]] for i, row in enumerate(m)} for name in q.arrow_names}
    return space.class_of(Derivation(alg, imgs))


def _random_class(rng, space):
    f = space.field
    cls = space.zero_class()
    for b in space.basis_classes():
        if rng.random() < 0.7:
            cls = cls + b.scale(random_nonzero(rng, f))
    return cls


def test_arrow_image_lie_operations_match_dense_matrices():
    # oracle: the bracket, the character embedding and conjugation computed
    # as dense dim x dim products, reading only the arrow columns
    rng = random.Random(2024)
    fields_seen = set()
    done = 0
    while done < 12:
        q = random_quiver(rng, max_vertices=5, max_paths=25)
        field = QQ if done % 3 == 0 else random_field(rng)
        fields_seen.add(field)
        ideal = random_admissible_ideal(rng, q, field)
        space = CohomologySpace(FDAlgebra(ideal))
        f = field
        for _ in range(3):
            x, y = _random_class(rng, space), _random_class(rng, space)
            mf = _dense_matrix(x.representative())
            mg = _dense_matrix(y.representative())
            fg, gf = mat_mul(f, mf, mg), mat_mul(f, mg, mf)
            comm = [[f.sub(u, v) for u, v in zip(r1, r2)] for r1, r2 in zip(fg, gf)]
            assert space.bracket(x, y) == _class_of_arrow_columns(space, comm)
        pres = Presentation.natural(space, q.spanning_tree(q.vertices[0]))
        bypasses = enumerate_bypasses(q)
        if bypasses:
            pres = pres.twist(transvection_of(q, f, rng.choice(bypasses), random_nonzero(rng, f)))
        alg = space.algebra
        P = _dense_columns(f, alg.dim, [pres.image_of_path(p) for p in pres.kernel.normal_paths])
        hom = pres.hom
        combo = {}
        for vec in hom.basis_vectors:
            c = random_nonzero(rng, f)
            for i, v in vec.items():
                combo[i] = f.add(combo.get(i, f.zero), f.mul(c, v))
        for w in hom.basis + [hom.weights_from_vector(combo)]:
            s = [weight_of_path(f, w, p) for p in pres.kernel.normal_paths]
            scaled = [[f.mul(s[j], x) for j, x in enumerate(row)] for row in P]
            dense = mat_mul(f, scaled, mat_inverse(f, P))
            assert pres.embed_character(w) == _class_of_arrow_columns(space, dense)
        rho = random_fixing_automorphism(rng, ideal)
        psi_matrix = _dense_columns(f, alg.dim, [alg.vector_of(rho.apply_path(p)) for p in alg.basis])
        classes = space.basis_classes()
        for c, image in zip(classes, conjugate_class(space, rho, classes), strict=True):
            dense = mat_mul(f, mat_mul(f, psi_matrix, _dense_matrix(c.representative())), mat_inverse(f, psi_matrix))
            assert image == _class_of_arrow_columns(space, dense)
        done += 1
    assert QQ in fields_seen and len(fields_seen) > 1


def test_conjugate_class_rejects_an_automorphism_moving_the_ideal():
    q, _, ideal_diff, _ = parallel_pair(QQ)
    space = CohomologySpace(FDAlgebra(ideal_diff))
    assert space.basis_classes()
    # a -> 2a sends c*a - c*b to 2c*a - c*b, outside the ideal
    with pytest.raises(ValueError, match="does not fix the defining ideal"):
        conjugate_class(space, dilatation(q, QQ, {"a": 2}), space.basis_classes()[:1])
    # scaling a and b alike fixes it
    both = dilatation(q, QQ, {"a": 2, "b": 2})
    assert conjugate_class(space, both, space.basis_classes()) == space.basis_classes()


def test_happel_formula_on_hereditary_algebras():
    # dim HH^1(kQ) = 1 - |Q0| + sum over arrows of #paths s(alpha) -> t(alpha)
    rng = random.Random(1989)
    for field in (QQ, GF(2)):
        for _ in range(15):
            q = random_quiver(rng, max_vertices=6, max_paths=40)
            paths = [p for p in q.all_paths() if not p.is_trivial]
            happel = 1 - len(q.vertices) + sum(
                sum(1 for p in paths if (p.source, p.target) == (a.source, a.target))
                for a in q.arrows
            )
            assert CohomologySpace(FDAlgebra(IdealData(q, field, ()))).dim == happel
