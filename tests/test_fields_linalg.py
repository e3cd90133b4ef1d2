import itertools
import random
from fractions import Fraction

import pytest

from bquiver import GF, QQ, FieldMismatchError, Matrix
from bquiver.linalg import (
    int_det,
    inverse,
    minimal_polynomial,
    nullspace,
    poly_eval,
    poly_is_squarefree,
    rank,
    roots_over_field,
    rref,
    smith_normal_form,
    solve,
    Subspace,
)


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


def test_rref_rank_one_dependency():
    m = Matrix(QQ, [[2, 4], [1, 2]])
    reduced, pivots = rref(m)
    assert reduced.rows == ((Fraction(1), Fraction(2)),)
    assert pivots == (0,)


def test_rref_identity_fixed():
    m = Matrix.identity(QQ, 3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == (0, 1, 2)


def test_rref_gf2_invertible():
    # hand elimination: swap-free, row1 += row2 after pivoting
    m = Matrix(GF(2), [[1, 1], [1, 0]])
    reduced, pivots = rref(m)
    assert reduced == Matrix.identity(GF(2), 2)
    assert pivots == (0, 1)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_rref_idempotent(field):
    rng = random.Random(11)
    for _ in range(20):
        rows = [[random_scalar(rng, field) for _ in range(4)] for _ in range(3)]
        reduced, _ = rref(Matrix(field, rows))
        again, _ = rref(reduced)
        assert again == reduced


def test_matrix_rejects_foreign_scalars():
    with pytest.raises(TypeError):
        Matrix(QQ, [[0.5]])
    with pytest.raises(ZeroDivisionError):
        Matrix(GF(2), [[Fraction(1, 2)]])  # denominator vanishes mod 2
    with pytest.raises(FieldMismatchError):
        Matrix(QQ, [[1]]).mul(Matrix(GF(2), [[1]]))


def test_nullspace_zero_matrix_gives_units():
    basis = nullspace(Matrix.zeros(QQ, 2, 3))
    assert basis == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ]


def test_nullspace_symmetry_case():
    basis = nullspace(Matrix(QQ, [[1, -1]]))
    assert basis == [(Fraction(1), Fraction(1))]


def test_nullspace_gf2_exhaustive_oracle():
    m = Matrix(GF(2), [[1, 1], [1, 1]])
    # oracle: enumerate all of GF(2)^2
    expected = [
        v
        for v in [(0, 0), (0, 1), (1, 0), (1, 1)]
        if all(x == 0 for x in m.mul_vec(v))
    ]
    basis = nullspace(m)
    assert basis == [(1, 1)]
    assert set(basis) <= set(expected)
    assert len(basis) == 2 - rank(m)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_nullspace_vectors_annihilate(field):
    rng = random.Random(3)
    for _ in range(20):
        m = Matrix(field, [[random_scalar(rng, field) for _ in range(5)] for _ in range(3)])
        basis = nullspace(m)
        assert len(basis) == 5 - rank(m)
        for v in basis:
            assert all(field.is_zero(x) for x in m.mul_vec(v))


def test_solve_and_inverse():
    m = Matrix(QQ, [[2, 1], [1, 1]])
    x = solve(m, (3, 2))
    assert x == (Fraction(1), Fraction(1))
    assert inverse(m).mul(m) == Matrix.identity(QQ, 2)
    assert solve(Matrix(QQ, [[1, 1], [1, 1]]), (0, 1)) is None


def test_subspace_membership_and_equality():
    s = Subspace(QQ, 3, [(1, 0, 1), (0, 1, 1)])
    assert s.dim == 2
    assert s.contains((1, 1, 2))
    assert not s.contains((1, 1, 1))
    t = Subspace(QQ, 3, [(1, 1, 2), (1, -1, 0)])
    assert s == t


def random_matrix(rng, field, kind):
    """A random matrix of one of the shapes the echelon must handle."""
    nrows, ncols = {"wide": (2, 7), "tall": (7, 3)}.get(kind, (rng.randint(1, 5), rng.randint(1, 6)))
    if kind == "rank-deficient":
        r = rng.randint(0, min(nrows, ncols) - 1)
        left = [[random_scalar(rng, field) for _ in range(r)] for _ in range(nrows)]
        right = [[random_scalar(rng, field) for _ in range(ncols)] for _ in range(r)]
        return Matrix(
            field,
            [[field.sum(field.mul(left[i][k], right[k][j]) for k in range(r)) for j in range(ncols)] for i in range(nrows)],
            ncols=ncols,
        )
    density = 0.25 if kind == "sparse" else 1.0
    return Matrix(
        field,
        [[random_scalar(rng, field) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
@pytest.mark.parametrize("kind", ["dense", "sparse", "rank-deficient", "wide", "tall"])
def test_echelon_is_the_unique_rref(field, kind):
    rng = random.Random(f"{field}-{kind}")
    for _ in range(25):
        m = random_matrix(rng, field, kind)
        reduced, pivots = rref(m)
        space = Subspace(field, m.ncols, m.rows)
        assert space.basis == reduced.rows and space.pivots == pivots
        # the definition: increasing pivots, each entry 1 and alone in its column
        assert list(pivots) == sorted(set(pivots))
        for i, (row, pc) in enumerate(zip(reduced.rows, pivots)):
            assert all(field.is_zero(x) for x in row[:pc])
            assert row[pc] == field.one
            assert all(field.is_zero(other[pc]) for k, other in enumerate(reduced.rows) if k != i)
        # every input row is the combination of its own pivot entries
        for row in m.rows:
            combo = [field.zero] * m.ncols
            for red, pc in zip(reduced.rows, pivots):
                combo = [field.add(x, field.mul(row[pc], y)) for x, y in zip(combo, red)]
            assert tuple(combo) == row
        # neither the order of the rows nor redundant rows change the result
        shuffled = list(m.rows)
        rng.shuffle(shuffled)
        for _ in range(3):
            coeffs = [random_scalar(rng, field) for _ in m.rows]
            shuffled.insert(
                rng.randrange(len(shuffled) + 1),
                [field.sum(field.mul(c, r[j]) for c, r in zip(coeffs, m.rows)) for j in range(m.ncols)],
            )
        assert rref(Matrix(field, shuffled, ncols=m.ncols)) == (reduced, pivots)
        assert Subspace(field, m.ncols, shuffled) == space


# ---------- Smith normal form ----------

def test_snf_hand_reduction():
    # hand row/column reduction: [[1,-1],[1,1]] ~ diag(1, 2)
    d, u, v = smith_normal_form([[1, -1], [1, 1]])
    assert d == (1, 2)


def test_snf_identity_and_zero():
    d, _, _ = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert d == (1, 1, 1)
    d, _, _ = smith_normal_form([[0, 0]])
    assert d == ()  # cokernel free of rank 2


@pytest.mark.parametrize("seed", range(8))
def test_snf_transforms_are_unimodular_and_exact(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    d, u, v = smith_normal_form(a)
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1
    # u @ a @ v must equal the diagonal of the invariant factors
    ua = [[sum(u[i][k] * a[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    uav = [[sum(ua[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            expected = d[i] if i == j and i < len(d) else 0
            assert uav[i][j] == expected
    for x, y in zip(d, d[1:]):
        assert y % x == 0
        assert x > 0


# ---------- minimal polynomials and roots ----------

def test_minimal_polynomial_jordan_block():
    m = Matrix(QQ, [[1, 1], [0, 1]])
    # oracle: (m - I) != 0 while (m - I)^2 == 0, so the answer is (x-1)^2
    shifted = Matrix(QQ, [[0, 1], [0, 0]])
    assert not shifted.is_zero()
    assert shifted.mul(shifted).is_zero()
    assert minimal_polynomial(m) == (Fraction(1), Fraction(-2), Fraction(1))


def test_minimal_polynomial_scalar_and_diagonal():
    assert minimal_polynomial(Matrix(QQ, [[5, 0], [0, 5]])) == (Fraction(-5), Fraction(1))
    # distinct eigenvalues 1, 2: (x-1)(x-2) = 2 - 3x + x^2
    assert minimal_polynomial(Matrix(QQ, [[1, 0], [0, 2]])) == (
        Fraction(2),
        Fraction(-3),
        Fraction(1),
    )


def test_minimal_polynomial_requires_square():
    with pytest.raises(ValueError):
        minimal_polynomial(Matrix.zeros(QQ, 2, 3))


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_minimal_polynomial_annihilates(field):
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = Matrix(field, [[random_scalar(rng, field) for _ in range(n)] for _ in range(n)])
        coeffs = minimal_polynomial(m)
        acc = Matrix.zeros(field, n, n)
        power = Matrix.identity(field, n)
        for c in coeffs:
            scaled = Matrix(field, [[field.mul(c, x) for x in row] for row in power.rows])
            acc = Matrix(field, [[field.add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(acc.rows, scaled.rows)])
            power = power.mul(m)
        assert acc.is_zero()
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

    def evaluate(coeffs, m):
        n = m.nrows
        acc = Matrix.zeros(field, n, n)
        for c in reversed(coeffs):  # Horner: acc = acc * m + c I
            acc = acc.mul(m)
            acc = Matrix(field, [[field.add(x, c if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(acc.rows)])
        return acc

    for n, codes in shapes:
        for code in codes:
            m = Matrix(field, [[(code // p ** (i * n + j)) % p for j in range(n)] for i in range(n)])
            mp = minimal_polynomial(m)
            assert mp[-1] == field.one and evaluate(mp, m).is_zero()
            degree = len(mp) - 1
            for d in range(degree):
                for low in itertools.product(range(p), repeat=d):
                    assert not evaluate(low + (1,), m).is_zero()


def test_roots_gf2_splits():
    roots, splits = roots_over_field(GF(2), (0, 1, 1))  # x^2 + x
    assert roots == [0, 1]
    assert splits


def test_roots_irrational_does_not_split():
    roots, splits = roots_over_field(QQ, (-2, 0, 1))  # x^2 - 2
    assert roots == []
    assert not splits


def test_roots_factorable_quadratic():
    poly = (Fraction(2), Fraction(-3), Fraction(1))  # (x-1)(x-2)
    roots, splits = roots_over_field(QQ, poly)
    assert roots == [1, 2]
    assert splits
    for r in roots:
        assert poly_eval(QQ, poly, r) == 0


def test_roots_with_multiplicity_and_squarefree_flag():
    # x^2 (x - 1/2)
    poly = (Fraction(0), Fraction(0), Fraction(-1, 2), Fraction(1))
    roots, splits = roots_over_field(QQ, poly)
    assert roots == [0, 0, Fraction(1, 2)]
    assert splits
    assert not poly_is_squarefree(QQ, poly)
    assert poly_is_squarefree(QQ, (Fraction(0), Fraction(1)))


def test_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        roots_over_field(QQ, ())
