"""Dense exact linear algebra over a :class:`~bquiver.fields.Field`.

Everything is deterministic and exact: the reduced row echelon form is the
unique one, nullspace bases follow the free-variable unit convention (free
columns in increasing order each receive a unit coordinate), and the Smith
normal form works on arbitrary-precision integers while tracking the
unimodular row/column transforms.

Polynomials are coefficient tuples in ascending degree order with no trailing
zeros; ``()`` is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .fields import Field, PrimeField


class Matrix:
    """An immutable dense matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence], ncols: int | None = None):
        self.field = field
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        self.rows = coerced
        self.nrows = len(coerced)
        if coerced:
            widths = {len(r) for r in coerced}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols disagrees with row length")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence]) -> "Matrix":
        if not columns:
            raise ValueError("need at least one column")
        n = len(columns[0])
        return cls(field, [[col[i] for col in columns] for i in range(n)], ncols=len(columns))

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def mul(self, other: "Matrix") -> "Matrix":
        self.field.require_same(other.field)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = f.zero
                for k in range(self.ncols):
                    acc = f.add(acc, f.mul(self.rows[i][k], other.rows[k][j]))
                row.append(acc)
            out.append(row)
        return Matrix(f, out, ncols=other.ncols)

    def mul_vec(self, vec: Sequence) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        f = self.field
        out = []
        for i in range(self.nrows):
            acc = f.zero
            for k in range(self.ncols):
                acc = f.add(acc, f.mul(self.rows[i][k], vec[k]))
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.rows for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Unique reduced row echelon form; zero rows dropped.

    Returns the reduced matrix and the strictly increasing pivot columns.
    """
    f = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not f.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not f.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(f, rows[:r], ncols=m.ncols), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> list[tuple]:
    """Canonical kernel basis: one vector per free column, unit there."""
    f = m.field
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [f.zero] * m.ncols
        v[fc] = f.one
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(reduced.rows[i][fc])
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, rhs: Sequence) -> tuple | None:
    """One solution of ``m x = rhs`` (free variables zero), or None."""
    f = m.field
    if len(rhs) != m.nrows:
        raise ValueError("shape mismatch")
    aug = Matrix(f, [list(row) + [rhs[i]] for i, row in enumerate(m.rows)], ncols=m.ncols + 1)
    reduced, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [f.zero] * m.ncols
    for i, pc in enumerate(pivots):
        x[pc] = reduced.rows[i][m.ncols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("not square")
    f = m.field
    n = m.nrows
    aug = Matrix(f, [list(m.rows[i]) + [f.one if j == i else f.zero for j in range(n)] for i in range(n)])
    reduced, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix(f, [row[n:] for row in reduced.rows], ncols=n)


class Subspace:
    """A subspace of k^n held by its unique reduced echelon basis."""

    def __init__(self, field: Field, dimension_ambient: int, vectors: Sequence[Sequence] = ()):
        self.field = field
        self.ambient = dimension_ambient
        vecs = [tuple(field.coerce(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != dimension_ambient:
                raise ValueError("vector length mismatch")
        if vecs:
            reduced, _ = rref(Matrix(field, vecs, ncols=dimension_ambient))
            self.basis = reduced.rows
        else:
            self.basis = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: Sequence) -> tuple:
        """Remainder of ``vec`` after elimination against the echelon basis."""
        f = self.field
        v = [f.coerce(x) for x in vec]
        for row in self.basis:
            lead = next(j for j, x in enumerate(row) if not f.is_zero(x))
            if not f.is_zero(v[lead]):
                factor = v[lead]
                v = [f.sub(x, f.mul(factor, y)) for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence) -> bool:
        z = self.field.zero
        return all(x == z for x in self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"


# ---------- polynomials (ascending coefficient tuples) ----------

def poly_trim(field: Field, coeffs) -> tuple:
    cs = [field.coerce(c) for c in coeffs]
    while cs and field.is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def poly_degree(coeffs) -> int:
    return len(coeffs) - 1


def poly_scale(field: Field, a, s) -> tuple:
    return poly_trim(field, [field.mul(s, c) for c in a])


def poly_mul(field: Field, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return poly_trim(field, out)


def poly_divmod(field: Field, a, b) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [field.zero] * max(len(a) - len(b) + 1, 0)
    inv_lead = field.inv(b[-1])
    while len(a) >= len(b) and any(not field.is_zero(c) for c in a):
        while a and field.is_zero(a[-1]):
            a.pop()
        if len(a) < len(b):
            break
        coeff = field.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        q[shift] = coeff
        for i, c in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(coeff, c))
    return poly_trim(field, q), poly_trim(field, a)


def poly_monic(field: Field, a) -> tuple:
    a = poly_trim(field, a)
    if not a:
        return a
    inv = field.inv(a[-1])
    return poly_scale(field, a, inv)


def poly_gcd(field: Field, a, b) -> tuple:
    a, b = poly_trim(field, a), poly_trim(field, b)
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return poly_monic(field, a)


def poly_derivative(field: Field, a) -> tuple:
    return poly_trim(field, [field.mul(field.coerce(i), a[i]) for i in range(1, len(a))])


def poly_eval(field: Field, a, x):
    acc = field.zero
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_is_squarefree(field: Field, a) -> bool:
    a = poly_trim(field, a)
    if poly_degree(a) < 1:
        return True
    d = poly_derivative(field, a)
    if not d:
        return False
    return poly_degree(poly_gcd(field, a, d)) == 0


def minimal_polynomial(m: Matrix) -> tuple:
    """Monic least-degree polynomial annihilating the square matrix ``m``.

    Found as the first linear dependency among the flattened powers
    I, m, m^2, ...; the dependency coefficients are tracked through the
    elimination, so the result is exact.
    """
    if m.nrows != m.ncols:
        raise ValueError("minimal polynomial needs a square matrix")
    f = m.field
    n = m.nrows
    width = n * n

    def flatten(mat: Matrix) -> list:
        return [x for row in mat.rows for x in row]

    # echelon rows over the first `width` columns, combination tracked behind
    echelon: list[list] = []
    power = Matrix.identity(f, n)
    k = 0
    while True:
        row = flatten(power) + [f.zero] * (k + 1)
        row[width + k] = f.one
        for er in echelon:
            lead = next(j for j in range(width) if not f.is_zero(er[j]))
            if not f.is_zero(row[lead]):
                factor = row[lead]
                for j in range(len(er)):
                    row[j] = f.sub(row[j], f.mul(factor, er[j]))
        if all(f.is_zero(row[j]) for j in range(width)):
            combo = row[width:width + k + 1]
            inv = f.inv(combo[k])
            return poly_trim(f, [f.mul(inv, c) for c in combo])
        lead = next(j for j in range(width) if not f.is_zero(row[j]))
        inv = f.inv(row[lead])
        row = [f.mul(inv, x) for x in row]
        # pad earlier echelon rows to the current width
        for er in echelon:
            er.extend([f.zero] * (len(row) - len(er)))
        echelon.append(row)
        power = power.mul(m)
        k += 1


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def roots_over_field(field: Field, coeffs) -> tuple[list, bool]:
    """All roots in the field (with multiplicity) plus a splits-completely flag.

    Over GF(p) the root search is exhaustive.  Over the rationals, candidates
    come from the rational-root bound applied to the squarefree part; the
    polynomial splits iff removing the rational linear factors leaves a
    constant.
    """
    poly = poly_trim(field, coeffs)
    if not poly:
        raise ValueError("zero polynomial has no well-defined roots")
    roots = []

    def strip_root(p, r):
        count = 0
        while True:
            q, rem = poly_divmod(field, p, (field.neg(r), field.one))
            if rem:
                return p, count
            p = q
            count += 1

    if isinstance(field, PrimeField):
        remaining = poly
        for c in field.elements():
            if poly_degree(remaining) < 1:
                break
            if field.is_zero(poly_eval(field, remaining, c)):
                remaining, mult = strip_root(remaining, c)
                roots.extend([c] * mult)
        return sorted(roots), poly_degree(remaining) == 0

    # rationals: squarefree part for the candidate bound
    deriv = poly_derivative(field, poly)
    sf = poly if not deriv else poly_divmod(field, poly, poly_gcd(field, poly, deriv))[0]
    remaining = poly
    # strip powers of x first
    if field.is_zero(poly[0]):
        remaining, mult = strip_root(remaining, field.zero)
        roots.extend([field.zero] * mult)
    # integer-primitive version of the squarefree part
    from math import lcm

    denoms = lcm(*[Fraction(c).denominator for c in sf]) if len(sf) > 1 else 1
    ints = [int(Fraction(c) * denoms) for c in sf]
    while ints and ints[0] == 0:
        ints = ints[1:]
    if ints:
        from math import gcd

        content = 0
        for c in ints:
            content = gcd(content, c)
        if content:
            ints = [c // content for c in ints]
        lead, const = ints[-1], ints[0]
        candidates = set()
        for p in _int_divisors(const):
            for q in _int_divisors(lead):
                candidates.add(Fraction(p, q))
                candidates.add(Fraction(-p, q))
        for cand in sorted(candidates):
            if cand == 0:
                continue
            if field.is_zero(poly_eval(field, remaining, cand)):
                remaining, mult = strip_root(remaining, cand)
                roots.extend([cand] * mult)
    return sorted(roots), poly_degree(remaining) == 0


# ---------- Smith normal form over the integers ----------

def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple, tuple]:
    """Smith normal form with unimodular transforms.

    Returns ``(d, u, v)`` where ``u * m * v`` is diagonal with the nonzero
    invariant factors ``d`` (each positive, each dividing the next) in the
    leading positions.  ``u`` and ``v`` have determinant +-1.
    """
    A = [list(map(int, row)) for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            A[r][i] -= q * A[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(m, n):
        # choose the nonzero entry of least magnitude in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            again = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        again = True
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        again = True
            if again:
                continue
            # enforce divisibility of the remaining block
            fixed = True
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t] != 0:
                        row_op(t, i, -1)  # add row i to row t
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1

    d = tuple(A[i][i] for i in range(t) if A[i][i] != 0)
    return d, tuple(tuple(r) for r in U), tuple(tuple(r) for r in V)


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (via rational elimination); for small checks."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("not square")
    det = Fraction(1)
    work = [list(map(Fraction, row)) for row in rows]
    sign = 1
    for c in range(n):
        pr = None
        for i in range(c, n):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            return 0
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            sign = -sign
        det *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    result = det * sign
    assert result.denominator == 1
    return int(result)
