"""The path algebra of an acyclic quiver, admissible ideals, automorphisms.

Elements are finitely supported scalar combinations of paths with the
concatenation product (non-composable concatenations vanish).  An ideal is
stored through its unique reduced basis with respect to the global path
order: each basis element is monic on its greatest support path (the pivot),
pivots are mutually eliminated, and the basis is listed by increasing pivot.
Every path outside the pivot set is a *normal path*; normal paths index the
canonical basis of the quotient algebra and ``normal_form`` computes the
unique representative supported on them.

Idempotent-fixing automorphisms are stored by their arrow images (each a
combination of paths parallel to the arrow).  Transvections (one arrow gets
a parallel path added) and dilatations (arrows rescaled) are the two special
families used everywhere else.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .fields import Field, FieldMismatchError
from .linalg import _Echelon
from .quiver import Bypass, Path, Quiver


class AlgebraElement:
    """A finitely supported map path -> scalar; zero coefficients dropped."""

    __slots__ = ("quiver", "field", "coeffs")

    def __init__(self, quiver: Quiver, field: Field, coeffs: dict[Path, object] | None = None):
        self.quiver = quiver
        self.field = field
        clean = {}
        for path, c in (coeffs or {}).items():
            c = field.coerce(c)
            if not field.is_zero(c):
                clean[path] = c
        self.coeffs = clean

    # ---------- constructors ----------

    @classmethod
    def zero(cls, quiver: Quiver, field: Field) -> "AlgebraElement":
        return cls(quiver, field, {})

    @classmethod
    def from_path(cls, quiver: Quiver, field: Field, path: Path, coeff=None) -> "AlgebraElement":
        return cls(quiver, field, {path: field.one if coeff is None else coeff})

    @classmethod
    def unit(cls, quiver: Quiver, field: Field) -> "AlgebraElement":
        return cls(quiver, field, {quiver.trivial_path(v): field.one for v in quiver.vertices})

    # ---------- structure ----------

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[Path]:
        return self.quiver.sort_paths(self.coeffs)

    def coefficient(self, path: Path):
        return self.coeffs.get(path, self.field.zero)

    def leading_path(self) -> Path:
        """The greatest support path in the global path order."""
        if not self.coeffs:
            raise ValueError("zero element has no leading path")
        return max(self.coeffs, key=self.quiver.path_key)

    def _check(self, other: "AlgebraElement"):
        if self.quiver is not other.quiver:
            raise ValueError("elements live over different quivers")
        self.field.require_same(other.field)

    # ---------- linear operations ----------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        f = self.field
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = f.add(out.get(p, f.zero), c)
        return AlgebraElement(self.quiver, f, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        f = self.field
        return AlgebraElement(self.quiver, f, {p: f.neg(c) for p, c in self.coeffs.items()})

    def scale(self, scalar) -> "AlgebraElement":
        f = self.field
        s = f.coerce(scalar)
        return AlgebraElement(self.quiver, f, {p: f.mul(s, c) for p, c in self.coeffs.items()})

    # ---------- the concatenation product ----------

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """``a * b`` is "b, then a": paths concatenate when they compose."""
        self._check(other)
        f = self.field
        out: dict[Path, object] = {}
        for pv, cv in self.coeffs.items():
            for pu, cu in other.coeffs.items():
                if pu.target != pv.source:
                    continue
                prod = Path(pu.source, pv.target, pu.arrows + pv.arrows)
                c = f.mul(cv, cu)
                out[prod] = f.add(out.get(prod, f.zero), c)
        return AlgebraElement(self.quiver, f, out)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.quiver is other.quiver
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for p in self.support():
            c = self.coeffs[p]
            parts.append(f"{c}*{p}" if c != self.field.one else str(p))
        return " + ".join(parts)

    __repr__ = __str__


def _corridor_components(elem: AlgebraElement) -> list[AlgebraElement]:
    """Split an element into its (source, target)-parallel components."""
    buckets: dict[tuple[str, str], dict[Path, object]] = {}
    for p, c in elem.coeffs.items():
        buckets.setdefault((p.source, p.target), {})[p] = c
    keys = sorted(buckets, key=elem.quiver.corridor_key)
    return [AlgebraElement(elem.quiver, elem.field, buckets[k]) for k in keys]


def _closure(quiver: Quiver, field: Field, generators: Sequence[AlgebraElement]) -> _Echelon:
    """Echelon of the two-sided ideal generated by the elements.

    Generators are first split into parallel components (truncation by the
    trivial paths), then closed under multiplication by arrows on both
    sides.  Acyclicity bounds path lengths, so this terminates.
    """
    ech = _Echelon(field, functools.partial(max, key=quiver.path_key))
    queue: list[AlgebraElement] = []

    def insert(elem: AlgebraElement):
        pivot = ech.insert(elem.coeffs)
        if pivot is not None:
            queue.append(AlgebraElement(quiver, field, ech.rows[pivot]))

    for g in generators:
        if g.field != field:
            raise FieldMismatchError("generator over the wrong field")
        for comp in _corridor_components(g):
            insert(comp)
    arrow_elems = [AlgebraElement.from_path(quiver, field, quiver.arrow_path(n)) for n in quiver.arrow_names]
    # the loop also visits the remainders it appends; their span is the
    # span of the echelon, so closing them under arrows closes the echelon
    for elem in queue:
        for a in arrow_elems:
            for prod in (a * elem, elem * a):
                if not prod.is_zero():
                    insert(prod)
    return ech


def ideal_closure(quiver: Quiver, field: Field, generators: Sequence[AlgebraElement]) -> list[AlgebraElement]:
    """Reduced basis of the two-sided ideal generated by the elements."""
    return list(IdealData(quiver, field, generators).basis)


class IdealData:
    """An admissible-candidate ideal with its canonical reduced basis."""

    def __init__(self, quiver: Quiver, field: Field, generators: Sequence[AlgebraElement]):
        self.quiver = quiver
        self.field = field
        self.generators = tuple(generators)
        self._echelon = _closure(quiver, field, generators)
        self.pivot_paths = tuple(quiver.sort_paths(self._echelon.rows))
        self.basis = tuple(AlgebraElement(quiver, field, self._echelon.rows[p]) for p in self.pivot_paths)
        pivot_set = set(self.pivot_paths)
        self.normal_paths = tuple(p for p in quiver.all_paths() if p not in pivot_set)

    # ---------- membership and normal forms ----------

    def normal_form(self, elem: AlgebraElement) -> AlgebraElement:
        """The unique representative of ``elem`` modulo the ideal."""
        if elem.quiver is not self.quiver:
            raise ValueError("element over a different quiver")
        self.field.require_same(elem.field)
        return AlgebraElement(self.quiver, self.field, self._echelon.reduce(elem.coeffs))

    def contains(self, elem: AlgebraElement) -> bool:
        return self.normal_form(elem).is_zero()

    # ---------- predicates ----------

    def is_admissible(self) -> tuple[bool, list]:
        """True iff every reduced-basis support path has length at least 2.

        For acyclic quivers the nilpotency inclusion is automatic (path
        lengths are bounded), so this single condition is the whole test.
        """
        bad = []
        for i, e in enumerate(self.basis):
            for p in e.support():
                if p.length < 2:
                    bad.append((i, p))
        return (not bad), bad

    def is_monomial(self) -> bool:
        return all(len(e.coeffs) == 1 for e in self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, IdealData)
            and self.quiver is other.quiver
            and self.field == other.field
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash(self.basis)

    def basis_key(self) -> tuple:
        """Hashable canonical key (the reduced basis determines the ideal)."""
        return tuple(
            tuple((p, e.coeffs[p]) for p in e.support())
            for e in self.basis
        )

    def __repr__(self):
        gens = ", ".join(str(e) for e in self.basis) or "0"
        return f"<{gens}>"


def zero_ideal(quiver: Quiver, field: Field) -> IdealData:
    return IdealData(quiver, field, ())


class Automorphism:
    """An idempotent-fixing algebra automorphism given by its arrow images.

    The image of each arrow must be a combination of paths parallel to it;
    the induced matrix on arrows is then block lower-triangular with respect
    to path length, so invertibility reduces to the arrow-level blocks,
    which is checked at construction time.
    """

    def __init__(self, quiver: Quiver, field: Field, images: dict[str, AlgebraElement]):
        self.quiver = quiver
        self.field = field
        imgs = {}
        for name in quiver.arrow_names:
            a = quiver.arrow(name)
            img = images.get(name)
            if img is None:
                img = AlgebraElement.from_path(quiver, field, quiver.arrow_path(name))
            field.require_same(img.field)
            for p in img.coeffs:
                if p.source != a.source or p.target != a.target or p.is_trivial:
                    raise ValueError(f"image of {name!r} is not parallel to it")
            imgs[name] = img
        self.images = imgs
        self._check_arrow_level_invertible()
        self._path_cache: dict[Path, AlgebraElement] = {}

    def _check_arrow_level_invertible(self):
        for names in self.quiver.parallel_classes().values():
            paths = [self.quiver.arrow_path(n) for n in names]
            columns = _Echelon(self.field)
            for col in names:
                coeffs = self.images[col].coeffs
                if columns.insert({r: coeffs[p] for r, p in enumerate(paths) if p in coeffs}) is None:
                    raise ValueError("arrow-level substitution matrix is singular")

    # ---------- application ----------

    def apply_path(self, p: Path) -> AlgebraElement:
        if p in self._path_cache:
            return self._path_cache[p]
        if p.is_trivial:
            out = AlgebraElement.from_path(self.quiver, self.field, p)
        else:
            out = self.images[p.arrows[0]]
            for name in p.arrows[1:]:
                out = self.images[name] * out
        self._path_cache[p] = out
        return out

    def apply(self, elem: AlgebraElement) -> AlgebraElement:
        self.field.require_same(elem.field)
        out = AlgebraElement.zero(self.quiver, self.field)
        for p, c in elem.coeffs.items():
            out = out + self.apply_path(p).scale(c)
        return out

    def apply_to_ideal(self, ideal: IdealData) -> IdealData:
        return IdealData(self.quiver, self.field, [self.apply(e) for e in ideal.basis])

    # ---------- algebraic structure ----------

    def compose(self, other: "Automorphism") -> "Automorphism":
        """``self . other``: apply ``other`` first."""
        imgs = {n: self.apply(other.images[n]) for n in self.quiver.arrow_names}
        return Automorphism(self.quiver, self.field, imgs)

    def invert(self) -> "Automorphism":
        """The inverse arrow images, one elimination per corridor.

        The image of each corridor path goes into one echelon with its own
        tracking column; the echelon rows then read [I | M^-T] for the
        matrix M of the automorphism on the corridor, so the row whose pivot
        is arrow a holds the coordinates of phi^-1(a) in its tracking columns.
        """
        f = self.field
        q = self.quiver
        inv_images = {}
        for (src, tgt), names in q.parallel_classes().items():
            corridor = q.paths_between(src, tgt)
            n = len(corridor)
            index = {p: i for i, p in enumerate(corridor)}
            ech = _Echelon(f)
            for t, p in enumerate(corridor):
                row = {index[pp]: c for pp, c in self.apply_path(p).coeffs.items()}
                row[n + t] = f.one
                ech.insert(row)
            if max(ech.rows) >= n:
                raise ValueError("automorphism is not invertible")
            for name in names:
                row = ech.rows[index[q.arrow_path(name)]]
                inv_images[name] = AlgebraElement(q, f, {corridor[c - n]: x for c, x in row.items() if c >= n})
        return Automorphism(q, f, inv_images)

    def is_identity(self) -> bool:
        return all(
            self.images[n] == AlgebraElement.from_path(self.quiver, self.field, self.quiver.arrow_path(n))
            for n in self.quiver.arrow_names
        )

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.quiver is other.quiver
            and self.field == other.field
            and self.images == other.images
        )

    def __repr__(self):
        parts = [f"{n} -> {self.images[n]}" for n in self.quiver.arrow_names if not self.images[n] == AlgebraElement.from_path(self.quiver, self.field, self.quiver.arrow_path(n))]
        return "Automorphism(" + ("; ".join(parts) or "identity") + ")"


def identity_automorphism(quiver: Quiver, field: Field) -> Automorphism:
    return Automorphism(quiver, field, {})


def transvection(quiver: Quiver, field: Field, arrow: str, parallel: Path, tau) -> Automorphism:
    """The automorphism adding ``tau`` times a parallel path to one arrow."""
    a = quiver.arrow(arrow)
    if parallel.source != a.source or parallel.target != a.target or parallel.arrows == (arrow,):
        raise ValueError(f"({arrow}, {parallel}) is not a bypass")
    t = field.coerce(tau)
    img = AlgebraElement(quiver, field, {quiver.arrow_path(arrow): field.one, parallel: t})
    return Automorphism(quiver, field, {arrow: img})


def transvection_of(quiver: Quiver, field: Field, bypass: Bypass, tau) -> Automorphism:
    return transvection(quiver, field, bypass.arrow, bypass.path, tau)


def dilatation(quiver: Quiver, field: Field, weights: dict[str, object]) -> Automorphism:
    """The automorphism rescaling each arrow by a nonzero weight."""
    images = {}
    for name in quiver.arrow_names:
        w = field.coerce(weights.get(name, field.one))
        if field.is_zero(w):
            raise ValueError(f"dilatation weight for {name!r} is zero")
        images[name] = AlgebraElement.from_path(quiver, field, quiver.arrow_path(name), w)
    return Automorphism(quiver, field, images)


def apply_to_ideal(auto: Automorphism, ideal: IdealData) -> IdealData:
    return auto.apply_to_ideal(ideal)
