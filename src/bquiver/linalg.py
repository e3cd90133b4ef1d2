"""Exact linear algebra over a :class:`~bquiver.fields.Field`.

Vectors and linear systems are sparse ``{index: coeff}`` maps with no zero
entries, the format of the one elimination, ``_Echelon``: it holds a span
by its fully reduced, monic echelon basis, with the column order as its one
parameter.  Every row operation, here and in the callers, is the field's own
sparse kernel ``Field.add_multiple`` (``acc += x * vec``), which each field
inlines.  Matrix columns are ordered by ascending index; ideals of the
path algebra order paths descending, so each pivot is the greatest path of
its row.  That basis is unique, so echelon rows and pivots (the RREF),
nullspace bases (free columns in increasing order each receive a unit
coordinate), remainders and minimal polynomials do not depend on the order
rows arrive in, and two spans are equal exactly when their rows are.  The
Smith normal form is one pivot loop on arbitrary-precision integers: an
entry of least magnitude in the trailing block clears its row and column by
floor division, again while a remainder is left or it fails to divide the
block.  Only the unimodular column transform, the one its callers read, is
tracked.

Polynomials are coefficient tuples in ascending degree order with no trailing
zeros; ``()`` is the zero polynomial.  None is divided or factored: a
minimal polynomial of degree d is squarefree and split over the ground field
exactly when it has d distinct roots there, so ``roots_in_field`` is the one
root routine; it reads a linear polynomial's root off its coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .fields import Field, PrimeField


class _Echelon:
    """The one exact elimination: a sparse echelon basis kept fully reduced.

    Rows are ``{column: coeff}`` dicts with no zero entries, stored by their
    leading column (the pivot) and monic there; after every ``insert`` no
    pivot column occurs in any other row.  ``lead`` picks the leading column
    of a support and so fixes the column order: ``min`` for matrix columns,
    the greatest path for ideals.  The fully reduced monic basis of a span is
    unique, so the rows do not depend on the order of insertion.
    """

    __slots__ = ("field", "lead", "rows")

    def __init__(self, field: Field, lead=min):
        self.field = field
        self.lead = lead
        self.rows: dict = {}

    def reduce(self, vec: dict) -> dict:
        """The remainder of ``vec`` modulo the span: no pivot in its support.

        Rows hold no other pivot, so one pass over the pivots in ``vec``
        clears them all.
        """
        out = dict(vec)
        for c, x in vec.items():
            row = self.rows.get(c)
            if row is not None:
                self.field.add_multiple(out, self.field.neg(x), row)
        return out

    def insert(self, vec: dict):
        """Add ``vec`` to the span; returns its new pivot, or None if it was
        already in the span."""
        f = self.field
        rem = self.reduce(vec)
        if not rem:
            return None
        pivot = self.lead(rem)
        inv = f.inv(rem[pivot])
        rem = {c: f.mul(inv, x) for c, x in rem.items()}
        for p, row in self.rows.items():
            x = row.get(pivot)
            if x is not None:
                row = dict(row)
                f.add_multiple(row, f.neg(x), rem)
                self.rows[p] = row
        self.rows[pivot] = rem
        return pivot


def _combination(f: Field, vectors: Sequence[dict], coeffs: dict) -> dict:
    """``sum(coeffs[t] * vectors[t])``: a sparse matrix (given by its
    columns) times a sparse vector."""
    out: dict = {}
    for t, c in coeffs.items():
        f.add_multiple(out, c, vectors[t])
    return out


def _clean(f: Field, vec: dict) -> dict:
    """``vec`` with its entries coerced into the field and zeros dropped."""
    out = {}
    for c, x in vec.items():
        x = f.coerce(x)
        if not f.is_zero(x):
            out[c] = x
    return out


def nullspace(field: Field, ncols: int, rows) -> list[dict]:
    """Canonical kernel basis of a system of sparse rows over ``ncols``
    unknowns: one vector per free column, in increasing order, unit there.

    Every other entry sits on a pivot column left of the free column, so
    each vector's free column is its greatest index.
    """
    ech = _Echelon(field)
    for row in rows:
        ech.insert(row)
    pivots = sorted(ech.rows)
    basis = []
    for fc in range(ncols):
        if fc in ech.rows:
            continue
        vec = {pc: field.neg(ech.rows[pc][fc]) for pc in pivots if fc in ech.rows[pc]}
        vec[fc] = field.one
        basis.append(vec)
    return basis


# ---------- polynomials (ascending coefficient tuples) ----------

def poly_eval(field: Field, a, x):
    acc = field.zero
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


def minimal_polynomial(field: Field, columns: Sequence[dict]) -> tuple:
    """Monic least-degree polynomial annihilating the square matrix whose
    column j is the sparse vector ``columns[j]`` (``{row: coeff}``).

    Found as the first linear dependency among the flattened powers
    I, m, m^2, ... (entry (i, j) at index ``n*j + i``), each formed column
    by column as m times the previous power: power k is reduced with one
    extra tracking column ``n*n + k`` set to 1, so the first remainder whose
    leading column is a tracking column holds the dependency, already monic
    in degree k.
    """
    n = len(columns)
    if any(not 0 <= i < n for col in columns for i in col):
        raise ValueError("minimal polynomial needs a square matrix")
    f = field
    width = n * n
    ech = _Echelon(f)
    power = [{j: f.one} for j in range(n)]
    k = 0
    while True:
        row = {n * j + i: x for j, col in enumerate(power) for i, x in col.items()}
        row[width + k] = f.one
        rem = ech.reduce(row)
        if min(rem) >= width:
            return tuple(rem.get(width + i, f.zero) for i in range(k + 1))
        ech.insert(rem)
        power = [_combination(f, columns, col) for col in power]
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


def roots_in_field(field: Field, coeffs) -> list:
    """The distinct roots in the field of a nonzero polynomial, sorted.

    A linear c0 + c1*x has the one root -c0/c1.  Else over GF(p) every
    element is tried; over the rationals the coefficients are cleared to
    coprime integers, a nonzero root p/q in lowest terms has p dividing the
    lowest nonzero coefficient and q the leading one, and 0 is tried too.
    A monic polynomial of degree d is squarefree and splits over the field
    exactly when it has d distinct roots there: their linear factors are
    coprime, so their product, monic of degree d too, divides it.
    """
    poly = [field.coerce(c) for c in coeffs]
    while poly and field.is_zero(poly[-1]):
        poly.pop()
    if not poly:
        raise ValueError("zero polynomial has no well-defined roots")
    if len(poly) == 2:
        return [field.neg(field.div(poly[0], poly[1]))]
    if isinstance(field, PrimeField):
        candidates = field.elements()
    else:
        scale = lcm(*(c.denominator for c in poly))
        ints = [int(c * scale) for c in poly if c]
        content = gcd(*ints)
        low, lead = ints[0] // content, ints[-1] // content
        candidates = {field.zero} | {
            Fraction(s * p, q) for p in _int_divisors(low) for q in _int_divisors(lead) for s in (1, -1)
        }
    return sorted(x for x in candidates if field.is_zero(poly_eval(field, poly, x)))


# ---------- Smith normal form over the integers ----------

def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple]:
    """Smith normal form with its unimodular column transform.

    Returns ``(d, v)``: some unimodular ``u`` makes ``u * m * v`` diagonal
    with the nonzero invariant factors ``d`` (each positive, each dividing
    the next) in the leading positions, so column j of ``m * v`` is a
    multiple of ``d[j]`` and every column past ``len(d)`` is zero.  ``v``
    has determinant +-1.
    """
    A = [list(map(int, row)) for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    d = []
    for t in range(min(m, n)):
        while True:
            # the pivot: an entry of least magnitude in the trailing block
            block = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
            if not block:
                return tuple(d), tuple(map(tuple, V))
            _, pi, pj = min(block)
            A[t], A[pi] = A[pi], A[t]
            for row in A + V:
                row[t], row[pj] = row[pj], row[t]
            p = A[t][t]
            for i in range(t + 1, m):
                q = A[i][t] // p
                A[i] = [a - q * b for a, b in zip(A[i], A[t])]
            for j in range(t + 1, n):
                q = A[t][j] // p
                for row in A + V:
                    row[j] -= q * row[t]
            if any(A[i][t] for i in range(t + 1, m)) or any(A[t][t + 1:]):
                continue  # a remainder is a smaller pivot
            # the pivot must divide the rest of the block; adding a row with
            # an entry it does not divide leaves a remainder in row t
            bad = next((i for i in range(t + 1, m) if any(a % p for a in A[i][t + 1:])), None)
            if bad is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[bad])]
        d.append(abs(p))
    return tuple(d), tuple(map(tuple, V))
