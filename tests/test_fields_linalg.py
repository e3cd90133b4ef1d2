import itertools
import random
from fractions import Fraction

import pytest

from bquiver import GF, QQ
from bquiver.fields import Field
from bquiver.linalg import (
    _clean,
    _Echelon,
    minimal_polynomial,
    nullspace,
    poly_eval,
    roots_in_field,
    smith_normal_form,
)

from conftest import check_smith_form, columns_of, mat_mul, sparse_rows


def echelon(field, rows):
    """The echelon of dense rows, each coerced into the field."""
    ech = _Echelon(field)
    for row in rows:
        ech.insert(_clean(field, dict(enumerate(row))))
    return ech


def dense_basis(field, ech, ncols):
    """The echelon rows as dense tuples, in increasing pivot order."""
    return tuple(tuple(ech.rows[p].get(j, field.zero) for j in range(ncols)) for p in sorted(ech.rows))


def random_scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.randrange(field.p)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_field_axioms_on_sampled_triples(field):
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (random_scalar(rng, field) for _ in range(3))
        assert field.add(a, field.add(b, c)) == field.add(field.add(a, b), c)
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(4)


def rational(rng):
    """A rational scalar, integral (zero included) about half the time."""
    if rng.random() < 0.5:
        return Fraction(rng.randint(-3, 3))
    return Fraction(rng.randint(-6, 6), rng.randint(2, 4))


def test_qq_integral_path_matches_the_fraction_operators():
    rng = random.Random(25)
    sample = [rational(rng) for _ in range(16)] + [Fraction(0), Fraction(1), Fraction(-1), Fraction(-1, 2)]
    assert {x.denominator == 1 for x in sample} == {True, False}
    for a, b in itertools.product(sample, repeat=2):
        for got, want in ((QQ.add(a, b), a + b), (QQ.mul(a, b), a * b), (QQ.neg(a), -a)):
            assert got == want and type(got) is Fraction
        if a:
            assert QQ.inv(a) == 1 / a and type(QQ.inv(a)) is Fraction
        assert QQ.is_zero(a) is (a == 0)
    # int operands are accepted, and the result is still a Fraction
    for got in (QQ.add(2, 3), QQ.mul(2, -3), QQ.neg(4), QQ.inv(-2), QQ.inv(1), QQ.inv(-1), QQ.add(1, Fraction(1, 2))):
        assert type(got) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_add_multiple_matches_the_generic_kernel(field):
    rng = random.Random(25)
    scalar = (lambda: rational(rng)) if field is QQ else (lambda: rng.randrange(field.p))
    plain = (lambda z: z) if field is QQ else (lambda z: z % field.p)
    for _ in range(300):
        x = scalar()
        vec = {c: y for c in rng.sample(range(12), 6) if (y := scalar())}
        acc = {c: y for c in rng.sample(range(12), 6) if (y := scalar())}
        for c in vec:
            if rng.random() < 0.3:  # cancels: acc[c] + x * vec[c] == 0
                acc[c] = plain(-x * vec[c])
        acc = {c: y for c, y in acc.items() if y}
        want = {c: z for c in acc.keys() | vec.keys() if (z := plain(acc.get(c, 0) + x * vec.get(c, 0)))}
        for kernel in (field.add_multiple, lambda *args: Field.add_multiple(field, *args)):
            got = dict(acc)
            kernel(got, x, vec)
            assert got == want
            assert 0 not in got.values()
            if field is QQ:
                assert all(type(z) is Fraction for z in got.values())


def test_rref_rank_one_dependency():
    s = echelon(QQ, [[2, 4], [1, 2]])
    assert s.rows == {0: {0: Fraction(1), 1: Fraction(2)}}


def test_rref_identity_fixed():
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    s = echelon(QQ, identity)
    assert dense_basis(QQ, s, 3) == tuple(map(tuple, identity))
    assert sorted(s.rows) == [0, 1, 2]


def test_rref_gf2_invertible():
    # hand elimination: swap-free, row1 += row2 after pivoting
    s = echelon(GF(2), [[1, 1], [1, 0]])
    assert s.rows == {0: {0: 1}, 1: {1: 1}}


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_rref_idempotent(field):
    rng = random.Random(11)
    for _ in range(20):
        rows = [[random_scalar(rng, field) for _ in range(4)] for _ in range(3)]
        reduced = echelon(field, rows)
        again = echelon(field, dense_basis(field, reduced, 4))
        assert again.rows == reduced.rows


def test_foreign_scalars_are_rejected():
    with pytest.raises(TypeError):
        _clean(QQ, {0: 0.5})
    with pytest.raises(ZeroDivisionError):
        _clean(GF(2), {0: Fraction(1, 2)})  # denominator vanishes mod 2


def test_nullspace_zero_matrix_gives_units():
    basis = nullspace(QQ, 3, [])
    assert basis == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]


def test_nullspace_symmetry_case():
    basis = nullspace(QQ, 2, sparse_rows(QQ, [[1, -1]]))
    assert basis == [{0: Fraction(1), 1: Fraction(1)}]


def test_nullspace_gf2_exhaustive_oracle():
    m = [[1, 1], [1, 1]]
    # oracle: enumerate all of GF(2)^2
    expected = [
        v
        for v in [(0, 0), (0, 1), (1, 0), (1, 1)]
        if all(x == 0 for (x,) in mat_mul(GF(2), m, [[x] for x in v]))
    ]
    basis = nullspace(GF(2), 2, sparse_rows(GF(2), m))
    assert basis == [{0: 1, 1: 1}]
    assert {tuple(v.get(j, 0) for j in range(2)) for v in basis} <= set(expected)
    assert len(basis) == 2 - len(echelon(GF(2), m).rows)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_nullspace_vectors_annihilate(field):
    rng = random.Random(3)
    for _ in range(20):
        m = [[random_scalar(rng, field) for _ in range(5)] for _ in range(3)]
        basis = nullspace(field, 5, sparse_rows(field, m))
        assert len(basis) == 5 - len(echelon(field, m).rows)
        for v in basis:
            # unit on its free column, its greatest index
            assert v[max(v)] == field.one
            column = [[v.get(j, field.zero)] for j in range(5)]
            assert all(field.is_zero(x) for (x,) in mat_mul(field, m, column))


def test_solve_and_inverse():
    # m x = rhs through the kernel of [m | -rhs]: the vector unit on the
    # last column, when that column is free, carries x
    m = [[2, 1], [1, 1]]
    kernel = nullspace(QQ, 3, sparse_rows(QQ, [row + [-r] for row, r in zip(m, (3, 2))]))
    assert kernel == [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}]
    # the echelon of [m | I] is [I | m^-1]
    aug = echelon(QQ, [row + [int(i == j) for j in range(2)] for i, row in enumerate(m)])
    assert sorted(aug.rows) == [0, 1]
    inv = [list(row[2:]) for row in dense_basis(QQ, aug, 4)]
    assert mat_mul(QQ, inv, m) == [[1, 0], [0, 1]]
    # an inconsistent system: the last column is a pivot, so no solution
    kernel = nullspace(QQ, 3, sparse_rows(QQ, [[1, 1, 0], [1, 1, -1]]))
    assert all(2 not in v for v in kernel)


def test_subspace_membership_and_equality():
    s = echelon(QQ, [(1, 0, 1), (0, 1, 1)])
    assert len(s.rows) == 2
    assert not s.reduce(_clean(QQ, {0: 1, 1: 1, 2: 2}))
    assert s.reduce(_clean(QQ, {0: 1, 1: 1, 2: 1}))
    t = echelon(QQ, [(1, 1, 2), (1, -1, 0)])
    assert s.rows == t.rows


def random_matrix(rng, field, kind):
    """A random matrix of one of the shapes the echelon must handle, as
    ``(ncols, rows)``."""
    nrows, ncols = {"wide": (2, 7), "tall": (7, 3)}.get(kind, (rng.randint(1, 5), rng.randint(1, 6)))
    if kind == "rank-deficient":
        r = rng.randint(0, min(nrows, ncols) - 1)
        left = [[random_scalar(rng, field) for _ in range(r)] for _ in range(nrows)]
        right = [[random_scalar(rng, field) for _ in range(ncols)] for _ in range(r)]
        return ncols, [
            tuple(field.sum(field.mul(left[i][k], right[k][j]) for k in range(r)) for j in range(ncols))
            for i in range(nrows)
        ]
    density = 0.25 if kind == "sparse" else 1.0
    return ncols, [
        tuple(field.coerce(random_scalar(rng, field)) if rng.random() < density else field.zero for _ in range(ncols))
        for _ in range(nrows)
    ]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
@pytest.mark.parametrize("kind", ["dense", "sparse", "rank-deficient", "wide", "tall"])
def test_echelon_is_the_unique_rref(field, kind):
    rng = random.Random(f"{field}-{kind}")
    for _ in range(25):
        ncols, rows = random_matrix(rng, field, kind)
        space = echelon(field, rows)
        reduced, pivots = dense_basis(field, space, ncols), tuple(sorted(space.rows))
        # the definition: increasing pivots, each entry 1 and alone in its column
        assert list(pivots) == sorted(set(pivots))
        assert len(reduced) == len(pivots)
        for i, (row, pc) in enumerate(zip(reduced, pivots)):
            assert all(field.is_zero(x) for x in row[:pc])
            assert row[pc] == field.one
            assert all(field.is_zero(other[pc]) for k, other in enumerate(reduced) if k != i)
        # every input row is the combination of its own pivot entries
        for row in rows:
            combo = [field.zero] * ncols
            for red, pc in zip(reduced, pivots):
                combo = [field.add(x, field.mul(row[pc], y)) for x, y in zip(combo, red)]
            assert tuple(combo) == row
        # the nullspace is the kernel of the same echelon: one unit vector
        # per free column, each annihilating every row
        kernel = nullspace(field, ncols, sparse_rows(field, rows))
        assert [max(v) for v in kernel] == [c for c in range(ncols) if c not in pivots]
        for v in kernel:
            assert all(field.is_zero(field.sum(field.mul(row[j], x) for j, x in v.items())) for row in rows)
        # neither the order of the rows nor redundant rows change the result
        shuffled = list(rows)
        rng.shuffle(shuffled)
        for _ in range(3):
            coeffs = [random_scalar(rng, field) for _ in rows]
            shuffled.insert(
                rng.randrange(len(shuffled) + 1),
                [field.sum(field.mul(c, r[j]) for c, r in zip(coeffs, rows)) for j in range(ncols)],
            )
        assert echelon(field, shuffled).rows == space.rows
        assert nullspace(field, ncols, sparse_rows(field, shuffled)) == kernel


# ---------- Smith normal form ----------

def test_snf_hand_reduction():
    # hand row/column reduction: [[1,-1],[1,1]] ~ diag(1, 2)
    d, _ = smith_normal_form([[1, -1], [1, 1]])
    assert d == (1, 2)
    # the pivot divides no other entry: a row is added to it and reduced again
    for a, expected in (([[2, 0], [0, 3]], (1, 6)), ([[0, 6, 0], [4, 0, 0]], (2, 12))):
        d, v = smith_normal_form(a)
        assert d == expected
        check_smith_form(a, d, v)


def test_snf_settles_a_dense_matrix():
    # an elimination that does not keep its pivots of least magnitude can
    # let the entries of a dense matrix like this one grow without bound
    a = [[39, 0, 16, -28, 7], [-8, 0, -13, -28, 0], [0, 29, 0, 0, 38],
         [23, 0, -39, 0, 14], [40, 34, 27, 7, 0], [0, 24, -29, 0, 9]]
    d, v = smith_normal_form(a)
    assert d == (1, 1, 1, 1, 7)
    check_smith_form(a, d, v)


def test_snf_identity_and_zero():
    d, _ = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert d == (1, 1, 1)
    d, _ = smith_normal_form([[0, 0]])
    assert d == ()  # cokernel free of rank 2


@pytest.mark.parametrize("seed", range(8))
def test_snf_transforms_are_unimodular_and_exact(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    d, v = smith_normal_form(a)
    # v is unimodular, a @ v is divisible column by column by the invariant
    # factors (zero past them), and their prefix products are the gcds of
    # the minors
    check_smith_form(a, d, v)
    for x, y in zip(d, d[1:]):
        assert y % x == 0
        assert x > 0


# ---------- minimal polynomials and roots ----------

def test_minimal_polynomial_jordan_block():
    m = [[1, 1], [0, 1]]
    # oracle: (m - I) != 0 while (m - I)^2 == 0, so the answer is (x-1)^2
    shifted = [[0, 1], [0, 0]]
    assert not _is_zero_matrix(QQ, shifted)
    assert mat_mul(QQ, shifted, shifted) == [[0, 0], [0, 0]]
    assert minimal_polynomial(QQ, columns_of(QQ, m)) == (Fraction(1), Fraction(-2), Fraction(1))


def test_minimal_polynomial_scalar_and_diagonal():
    assert minimal_polynomial(QQ, columns_of(QQ, [[5, 0], [0, 5]])) == (Fraction(-5), Fraction(1))
    # distinct eigenvalues 1, 2: (x-1)(x-2) = 2 - 3x + x^2
    assert minimal_polynomial(QQ, columns_of(QQ, [[1, 0], [0, 2]])) == (
        Fraction(2),
        Fraction(-3),
        Fraction(1),
    )


def test_minimal_polynomial_requires_square():
    # three columns reaching row 3 do not make a square matrix
    with pytest.raises(ValueError):
        minimal_polynomial(QQ, [{0: Fraction(1)}, {}, {3: Fraction(1)}])


def _evaluate(field, coeffs, m):
    """The polynomial at the dense matrix m, by Horner: acc = acc * m + c I."""
    n = len(m)
    acc = [[field.zero] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = mat_mul(field, acc, m)
        acc = [[field.add(x, field.coerce(c) if i == j else field.zero) for j, x in enumerate(row)] for i, row in enumerate(acc)]
    return acc


def _is_zero_matrix(field, m):
    return all(field.is_zero(x) for row in m for x in row)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_minimal_polynomial_annihilates(field):
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = [[field.coerce(random_scalar(rng, field)) for _ in range(n)] for _ in range(n)]
        coeffs = minimal_polynomial(field, columns_of(field, m))
        assert _is_zero_matrix(field, _evaluate(field, coeffs, m))
        assert coeffs[-1] == field.one


@pytest.mark.parametrize("field", [GF(2), GF(3)])
def test_minimal_polynomial_is_minimal(field):
    # oracle: every monic polynomial of lower degree, tried exhaustively,
    # fails to annihilate m (all matrices up to 3x3 over GF(2), up to 2x2
    # over GF(3), and a sample of 3x3 ones over GF(3))
    rng = random.Random(13)
    p = field.p
    shapes = [(n, range(p ** (n * n))) for n in (1, 2)]
    shapes.append((3, range(p ** 9) if p == 2 else [rng.randrange(p ** 9) for _ in range(150)]))
    for n, codes in shapes:
        for code in codes:
            m = [[(code // p ** (i * n + j)) % p for j in range(n)] for i in range(n)]
            mp = minimal_polynomial(field, columns_of(field, m))
            assert mp[-1] == field.one and _is_zero_matrix(field, _evaluate(field, mp, m))
            degree = len(mp) - 1
            for d in range(degree):
                for low in itertools.product(range(p), repeat=d):
                    assert not _is_zero_matrix(field, _evaluate(field, low + (1,), m))


def test_roots_gf2_splits():
    roots = roots_in_field(GF(2), (0, 1, 1))  # x^2 + x
    assert roots == [0, 1]  # two distinct roots for degree 2: squarefree and split


def test_roots_irrational_does_not_split():
    roots = roots_in_field(QQ, (-2, 0, 1))  # x^2 - 2
    assert roots == []


def test_roots_factorable_quadratic():
    poly = (Fraction(2), Fraction(-3), Fraction(1))  # (x-1)(x-2)
    roots = roots_in_field(QQ, poly)
    assert roots == [1, 2]
    for r in roots:
        assert poly_eval(QQ, poly, r) == 0


def test_roots_with_multiplicity_and_squarefree_flag():
    # x^2 (x - 1/2): two distinct roots for degree 3, so not squarefree
    poly = (Fraction(0), Fraction(0), Fraction(-1, 2), Fraction(1))
    roots = roots_in_field(QQ, poly)
    assert roots == [0, Fraction(1, 2)]
    assert len(roots) == 2 < len(poly) - 1


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_linear_roots_are_the_ones_the_scan_finds(field):
    # times a quadratic with no root in the field (x^2 - 2 over QQ, x^2 + 1
    # over GF(7)), the polynomial goes through the scan, which then finds
    # the linear factor's root alone
    quadratic = (-2, 0, 1) if field is QQ else (1, 0, 1)
    scalars = [Fraction(n, d) for n in range(-4, 5) for d in (1, 3)] if field is QQ else range(7)
    linear = 0
    for c0, c1 in itertools.product(scalars, repeat=2):
        poly = (field.coerce(c0), field.coerce(c1))
        if field.is_zero(poly[1]):
            continue
        roots = roots_in_field(field, poly)
        assert roots == roots_in_field(field, _poly_mul(field, poly, tuple(map(field.coerce, quadratic))))
        assert len(roots) == 1 and field.is_zero(poly_eval(field, poly, roots[0]))
        linear += poly[1] != field.one
    assert linear


def test_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        roots_in_field(QQ, ())


def _poly_mul(field, a, b):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return tuple(out)


def test_rational_roots_are_exactly_the_known_distinct_roots():
    rng = random.Random(15)
    pool = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 5)]
    split_cases = other_cases = 0
    for _ in range(300):
        roots = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.3 and roots:
            roots.append(rng.choice(roots))  # a repeated root
        poly = (Fraction(rng.choice([1, -1]) * rng.randint(1, 30), rng.randint(1, 12)),)
        for r in roots:
            poly = _poly_mul(QQ, poly, (-r, Fraction(1)))
        quadratic = rng.random() < 0.3
        if quadratic:
            poly = _poly_mul(QQ, poly, (Fraction(-2), Fraction(0), Fraction(1)))  # x^2 - 2
        found = roots_in_field(QQ, poly)
        assert found == sorted(set(roots))
        squarefree_and_split = len(set(roots)) == len(roots) and not quadratic
        assert (len(found) == len(poly) - 1) == squarefree_and_split
        split_cases += squarefree_and_split
        other_cases += not squarefree_and_split
    assert split_cases > 50 and other_cases > 50
