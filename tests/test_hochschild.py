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
    combine,
    commutative_square,
    derivation_of_coords,
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
        one = {alg.index[alg.quiver.trivial_path(v)]: alg.field.one for v in alg.quiver.vertices}
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
        assert ab_index not in d.coords
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
        d = derivation_of_coords(alg, dict(enumerate(bits)))
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
    assert not space.class_of(diff).is_zero()


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
    assert space.class_of(delta).is_zero()
    # adding any inner derivation never moves the class
    rng = random.Random(8)
    for d in space.der_basis:
        coeffs = {v: rng.randint(-2, 2) for v in q.vertices}
        shifted_coords = combine(QQ, (1, d.coords), (1, inner_derivation(space.algebra, coeffs).coords))
        shifted = derivation_of_coords(space.algebra, shifted_coords)
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
    for image in ({alg.index[q.arrow_path("a")]: 1}, {alg.index[q.trivial_path("1")]: 1}):
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
            d = derivation_of_coords(alg, dict(enumerate(bits)))
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
            phi = transvection_of(q, f, rng.choice(bypasses), random_nonzero(rng, f))
            pres = Presentation(space, pres.chi.compose(phi), pres.tree)
        alg = space.algebra
        P = _dense_columns(f, alg.dim, [pres.image_of_path(p) for p in pres.kernel.normal_paths])
        combo = combine(f, *((random_nonzero(rng, f), w) for w in pres.hom))
        for w in pres.hom + [combo]:
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
    # over GF(3), a -> a + b sends c*a - c*b to c*a, outside the ideal
    q, _, ideal_diff, _ = parallel_pair(GF(3))
    space = CohomologySpace(FDAlgebra(ideal_diff))
    bp = next(bp for bp in enumerate_bypasses(q) if bp.arrow == "a")
    with pytest.raises(ValueError, match="does not fix the defining ideal"):
        conjugate_class(space, transvection_of(q, GF(3), bp, 1), space.basis_classes()[:1])


def _rank(f, rows):
    """The rank of sparse rows ``{column: coeff}``, by elimination."""
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = {k: f.div(v, row[col]) for k, v in row.items()}
                break
            c = row[col]
            for k, v in pivots[col].items():
                x = f.sub(row.get(k, f.zero), f.mul(c, v))
                if f.is_zero(x):
                    row.pop(k, None)
                else:
                    row[k] = x
    return len(pivots)


def monomial_hh1_dim(ideal):
    """dim HH^1 of a monomial algebra, read off Bardzell's complex.

    It is the kernel of k(Q1//B) -> k(Z//B) minus |Q0| - 1.  k(Q1//B) has one
    basis element per pair (alpha, gamma) of an arrow and a nontrivial path
    outside I parallel to it; Z holds the minimal relations, the paths in I
    whose two one-arrow-shorter subpaths are not in I.  (alpha, gamma) goes
    to the sum of (r, L*gamma*R) over the occurrences r = L*alpha*R with r in
    Z, dropping the terms with L*gamma*R in I.  For I = 0, Z is empty and this
    is Happel's formula.
    """
    q, f = ideal.quiver, ideal.field

    def in_ideal(arrows):
        return ideal.contains({q.path(arrows): f.one})

    paths = [p for p in q.all_paths() if not p.is_trivial]
    minimal = [
        p.arrows
        for p in paths
        if in_ideal(p.arrows) and not in_ideal(p.arrows[1:]) and not in_ideal(p.arrows[:-1])
    ]
    pairs = [
        (a.name, g.arrows)
        for a in q.arrows
        for g in paths
        if (g.source, g.target) == (a.source, a.target) and not in_ideal(g.arrows)
    ]
    columns: dict = {}
    images = []
    for alpha, gamma in pairs:
        image: dict = {}
        for r in minimal:
            for i in (i for i, name in enumerate(r) if name == alpha):
                term = r[:i] + gamma + r[i + 1:]
                if not in_ideal(term):
                    col = columns.setdefault((r, term), len(columns))
                    image[col] = f.add(image.get(col, f.zero), f.one)
        images.append({c: x for c, x in image.items() if not f.is_zero(x)})
    return len(pairs) - _rank(f, images) - (len(q.vertices) - 1)


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
            hereditary = IdealData(q, field, ())
            assert monomial_hh1_dim(hereditary) == happel
            assert CohomologySpace(FDAlgebra(hereditary)).dim == happel


# Mono-41 and Mono-43: 300 random monomial ideals each
monomial_draws_params = pytest.mark.parametrize(
    "seed, max_vertices, max_paths, fields, generators",
    [
        (41, 6, 40, (QQ, GF(2), GF(3), GF(5)), (0, 3)),
        (43, 7, 60, (QQ, GF(2), GF(3)), (1, 4)),
    ],
)


def monomial_draws(seed, max_vertices, max_paths, fields, generators):
    """The seeded monomial ideals: each a random quiver and field, and up
    to ``generators`` paths of length at least two."""
    rng = random.Random(seed)
    for _ in range(300):
        q = random_quiver(rng, max_vertices, max_paths)
        field = rng.choice(fields)
        long_paths = [p for p in q.all_paths() if p.length >= 2]
        chosen = rng.sample(long_paths, min(rng.randint(*generators), len(long_paths)))
        ideal = IdealData(q, field, [{p: field.one} for p in chosen])
        assert ideal.is_monomial()
        yield ideal


@monomial_draws_params
def test_monomial_hh1_matches_bardzell(seed, max_vertices, max_paths, fields, generators):
    dims = set()
    bound = 0
    for ideal in monomial_draws(seed, max_vertices, max_paths, fields, generators):
        dim = CohomologySpace(FDAlgebra(ideal)).dim
        assert dim == monomial_hh1_dim(ideal)
        dims.add(dim)
        bound += bool(ideal.basis)
    # the draws reach past Happel's case and spread over many dimensions
    assert bound > 100 and len(dims) > 5


def strametz_bracket(ideal, x, y):
    """Strametz's bracket on k(Q1//B) of a monomial algebra, bilinear in the
    cochains ``{(arrow, path arrows): coeff}``:
    [(alpha, gamma), (beta, delta)] = (beta, delta^{alpha<-gamma}) - (alpha, gamma^{beta<-delta}),
    where delta^{alpha<-gamma} sums delta with one occurrence of alpha
    replaced by gamma, over the occurrences, dropping the terms in I.  With
    (alpha, gamma) the derivation alpha -> gamma this is the commutator
    [D, E](a) = D(E(a)) - E(D(a)), the convention of ``space.bracket``."""
    q, f = ideal.quiver, ideal.field

    def substituted(alpha, gamma, delta):
        for i in (i for i, name in enumerate(delta) if name == alpha):
            term = delta[:i] + gamma + delta[i + 1:]
            if not ideal.contains({q.path(term): f.one}):
                yield term

    out: dict = {}
    for (alpha, gamma), c in x.items():
        for (beta, delta), d in y.items():
            cd = f.mul(c, d)
            for term in substituted(alpha, gamma, delta):
                out[beta, term] = f.add(out.get((beta, term), f.zero), cd)
            for term in substituted(beta, delta, gamma):
                out[alpha, term] = f.sub(out.get((alpha, term), f.zero), cd)
    return {k: v for k, v in out.items() if not f.is_zero(v)}


@monomial_draws_params
def test_monomial_bracket_matches_strametz(seed, max_vertices, max_paths, fields, generators):
    # each derivation unknown (alpha, gamma) is the pair alpha -> gamma of
    # k(Q1//B); Strametz's bracket of two basis representatives, as a class,
    # must be the bracket of their classes, in both orders
    mismatches = nonzero = 0
    for ideal in monomial_draws(seed, max_vertices, max_paths, fields, generators):
        space = CohomologySpace(FDAlgebra(ideal))
        alg = space.algebra
        q = alg.quiver

        def cochain(cls):
            return {
                (alg.derivation_unknowns[u][0], alg.derivation_unknowns[u][1].arrows): c
                for u, c in cls.representative().coords.items()
            }

        classes = space.basis_classes()
        for c, d in itertools.product(classes, repeat=2):
            images: dict = {}
            for (name, path), x in strametz_bracket(ideal, cochain(c), cochain(d)).items():
                images.setdefault(name, {})[alg.index[q.path(path)]] = x
            expected = space.class_of(Derivation(alg, images))
            got = space.bracket(c, d)
            mismatches += got != expected
            nonzero += not got.is_zero()
    assert mismatches == 0
    # the draws reach many noncommuting pairs
    assert nonzero > 1000
