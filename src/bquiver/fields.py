"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always stored reduced), canonical representatives ``0..p-1`` (ints) over
GF(p).  Containers that hold scalars carry a :class:`Field` object and all
arithmetic is routed through it.  Everything is immutable and side-effect
free, except ``add_multiple``, which updates the sparse vector it is given.

Almost every rational the algorithms meet is an integer (entries of
relations, structure constants and eigenvalues are mostly 0 and +-1), so
``QQ`` adds, negates and multiplies two operands with denominator 1 on their
``numerator``s, Python's integer arithmetic, and only other operands take
``Fraction``'s operators.  Either way every QQ result is a ``Fraction``: the
reports print a rational as a string and an int as a number.  An integral
result of small size is taken from a table of shared ``Fraction``s, since
``Fraction(n)`` runs its constructor in Python; a Fraction is immutable, and
nothing compares scalars by identity.

Each field owns the one sparse kernel, ``add_multiple(acc, x, vec)``:
``acc += x * vec`` on ``{key: coeff}`` dicts with no zero entries, dropping
the keys that cancel.  The base class composes it from ``add``, ``mul`` and
``is_zero``; both fields inline it, ``QQ`` on its integral path and GF(p)
with one reduction mod p per entry, since every elimination, product and
derivation image spends its time in that loop.
"""

from __future__ import annotations

import functools
from fractions import Fraction


def is_prime(n: int) -> bool:
    """Trial-division primality test; fine for the characteristics used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface of the two scalar domains.

    Concrete subclasses define ``characteristic``, ``zero``, ``one`` and the
    primitive operations.  ``coerce`` normalizes ints (and Fractions, when
    meaningful) into the canonical representation.
    """

    characteristic: int

    def coerce(self, value):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def add_multiple(self, acc: dict, x, vec: dict) -> None:
        """``acc += x * vec`` in place, dropping the entries that cancel."""
        for c, y in vec.items():
            z = self.add(acc.get(c, self.zero), self.mul(x, y))
            if self.is_zero(z):
                acc.pop(c, None)
            else:
                acc[c] = z

    def sum(self, values):
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc


class _Integers(dict):
    """``Fraction(n)`` for each |n| <= 16, built once; a larger ``n`` is
    built on each lookup and not kept.  Nearly every integral result is
    within that range (0 and +-1 above all)."""

    def __missing__(self, n: int) -> Fraction:
        return Fraction(n)


_INTEGERS = _Integers((n, Fraction(n)) for n in range(-16, 17))


class RationalField(Field):
    """The rational numbers; scalars are reduced ``Fraction`` values.

    ``add``, ``neg``, ``mul`` and ``add_multiple`` compute on the numerators
    when every operand is integral (ints are accepted as operands too), and
    always return ``Fraction``s.
    """

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"not a rational scalar: {value!r}")

    def add(self, a, b):
        if a.denominator == 1 == b.denominator:
            return _INTEGERS[a.numerator + b.numerator]
        return a + b

    def neg(self, a):
        if a.denominator == 1:
            return _INTEGERS[-a.numerator]
        return -a

    def mul(self, a, b):
        if a.denominator == 1 == b.denominator:
            return _INTEGERS[a.numerator * b.numerator]
        return a * b

    def inv(self, a):
        n = a.numerator
        if a.denominator == 1 and (n == 1 or n == -1):  # its own inverse, and most operands
            return _INTEGERS[n]
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(a.denominator, n)

    def is_zero(self, a) -> bool:
        return not a

    def add_multiple(self, acc: dict, x, vec: dict) -> None:
        nx = x.numerator if x.denominator == 1 else None
        for c, y in vec.items():
            z = acc.get(c, 0)
            if nx is not None and y.denominator == 1 == z.denominator:
                n = z.numerator + nx * y.numerator
                if n:
                    acc[c] = _INTEGERS[n]
                    continue
            else:
                # a non-integral operand is a Fraction, so the sum is one
                z = z + x * y
                if z:
                    acc[c] = z
                    continue
            acc.pop(c, None)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """GF(p) with canonical representatives ``0..p-1``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.div(value.numerator % self.p, value.denominator % self.p)
        raise TypeError(f"not a GF({self.p}) scalar: {value!r}")

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def add_multiple(self, acc: dict, x, vec: dict) -> None:
        for c, y in vec.items():
            z = (acc.get(c, 0) + x * y) % self.p
            if z:
                acc[c] = z
            else:
                acc.pop(c, None)

    def elements(self):
        return range(self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


@functools.lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    """The prime field with p elements (cached per characteristic)."""
    return PrimeField(p)

