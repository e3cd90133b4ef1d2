"""The path algebra of an acyclic quiver, admissible ideals, automorphisms.

Elements are sparse ``{Path: coeff}`` dicts with no zero entries, the format
the one elimination (``linalg._Echelon``) stores rows in, so its helpers do
their linear arithmetic; the concatenation product (non-composable
concatenations vanish) and the text rendering are the two private helpers
here.  An ideal is stored through its unique reduced basis with respect to
the global path order: each basis element is monic on its greatest support
path (the pivot), pivots are mutually eliminated, and the basis is listed by
increasing pivot.  Every path outside the pivot set is a *normal path*;
normal paths index the canonical basis of the quotient algebra and
``normal_form`` computes the unique representative supported on them.
Two ideals are equal when their echelon rows are, hashed on first use.
Generators from outside are closed under arrows on both sides; an ideal
carried across by an automorphism is not closed again, since the images of
its basis already span the image ideal, so transport is one elimination.

Idempotent-fixing automorphisms are stored by their arrow images (each a
combination of paths parallel to the arrow).  Transvections (one arrow gets
a parallel path added) and dilatations (arrows rescaled) are the two special
families used everywhere else; they and the identity carry their inverses
from construction, a composition of such inverts with one ``compose``, and
the rest by one elimination, remembered.  The public constructors coerce
coefficients into the field; every element is assumed to live over the
quiver and field of the object it is handed to.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .fields import Field
from .linalg import _clean, _Echelon
from .quiver import Bypass, Path, Quiver


def _product(f: Field, x: dict, y: dict) -> dict:
    """``x * y`` is "y, then x": paths concatenate when they compose."""
    out: dict[Path, object] = {}
    for pv, cv in x.items():
        for pu, cu in y.items():
            if pu.target == pv.source:
                prod = Path(pu.source, pv.target, pu.arrows + pv.arrows)
                out[prod] = f.add(out.get(prod, f.zero), f.mul(cv, cu))
    return {p: c for p, c in out.items() if not f.is_zero(c)}


def _render(quiver: Quiver, f: Field, elem: dict) -> str:
    """Terms by increasing path, ``c*path`` unless the coefficient is one."""
    if not elem:
        return "0"
    return " + ".join(str(p) if elem[p] == f.one else f"{elem[p]}*{p}" for p in quiver.sort_paths(elem))


def _closure(quiver: Quiver, field: Field, generators: Sequence[dict]) -> _Echelon:
    """Echelon of the two-sided ideal generated by the elements.

    Generators are first split into parallel components (truncation by the
    trivial paths), so every row lies in one corridor; each row is then
    extended by every arrow that composes with its corridor, on either side,
    which re-keys its paths and keeps its coefficients.  Acyclicity bounds
    path lengths, so this terminates.
    """
    ech = _Echelon(field, functools.partial(max, key=quiver.path_key))
    queue: list[dict] = []

    def insert(elem: dict):
        pivot = ech.insert(elem)
        if pivot is not None:
            queue.append(ech.rows[pivot])

    for g in generators:
        parts: dict[tuple[str, str], dict[Path, object]] = {}
        for p, c in g.items():
            parts.setdefault((p.source, p.target), {})[p] = c
        for key in sorted(parts, key=quiver.corridor_key):
            insert(parts[key])
    arrows = [quiver.arrow(n) for n in quiver.arrow_names]
    # the loop also visits the remainders it appends; their span is the
    # span of the echelon, so closing them under arrows closes the echelon
    for row in queue:
        first = next(iter(row))
        for a in arrows:
            if a.source == first.target:
                insert({Path(p.source, a.target, p.arrows + (a.name,)): c for p, c in row.items()})
            if a.target == first.source:
                insert({Path(a.source, p.target, (a.name,) + p.arrows): c for p, c in row.items()})
    return ech


class IdealData:
    """An admissible-candidate ideal with its canonical reduced basis.

    Generators and basis elements are sparse ``{Path: coeff}`` dicts; the
    basis dicts are the echelon's rows and must not be mutated.
    """

    def __init__(self, quiver: Quiver, field: Field, generators: Sequence[dict]):
        generators = tuple(_clean(field, g) for g in generators)
        vars(self).update(vars(IdealData._of(quiver, field, _closure(quiver, field, generators))))
        self.generators = generators

    @classmethod
    def _of(cls, quiver: Quiver, field: Field, echelon: _Echelon) -> "IdealData":
        """Unchecked, for an echelon in the global path order whose rows
        already span an ideal; its basis is also its generating set."""
        ideal = cls.__new__(cls)
        ideal.quiver, ideal.field, ideal._echelon = quiver, field, echelon
        ideal.pivot_paths = tuple(quiver.sort_paths(echelon.rows))
        ideal.basis = ideal.generators = tuple(echelon.rows[p] for p in ideal.pivot_paths)
        return ideal

    @functools.cached_property
    def normal_paths(self) -> tuple[Path, ...]:
        return tuple(p for p in self.quiver.all_paths() if p not in self._echelon.rows)

    # ---------- membership and normal forms ----------

    def normal_form(self, elem: dict) -> dict:
        """The unique representative of ``elem`` modulo the ideal."""
        return self._echelon.reduce(elem)

    def contains(self, elem: dict) -> bool:
        return not self.normal_form(elem)

    # ---------- predicates ----------

    def is_admissible(self) -> tuple[bool, list]:
        """True iff every reduced-basis support path has length at least 2.

        For acyclic quivers the nilpotency inclusion is automatic (path
        lengths are bounded), so this single condition is the whole test.
        """
        bad = []
        for i, e in enumerate(self.basis):
            for p in self.quiver.sort_paths(e):
                if p.length < 2:
                    bad.append((i, p))
        return (not bad), bad

    def is_monomial(self) -> bool:
        return all(len(e) == 1 for e in self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, IdealData)
            and self.quiver is other.quiver
            and self.field == other.field
            and self._echelon.rows == other._echelon.rows
        )

    @functools.cached_property
    def _hash(self) -> int:
        return hash(frozenset(item for row in self._echelon.rows.values() for item in row.items()))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        gens = ", ".join(_render(self.quiver, self.field, e) for e in self.basis) or "0"
        return f"<{gens}>"


class Automorphism:
    """An idempotent-fixing algebra automorphism given by its arrow images.

    The image of each arrow must be a combination of paths parallel to it;
    the induced matrix on arrows is then block lower-triangular with respect
    to path length, so invertibility reduces to the arrow-level blocks,
    which the public constructor checks; compositions, inverses,
    transvections and dilatations are invertible by construction and skip
    it.  Images, and the path images ``apply_path`` caches, are shared dicts
    and must not be mutated.
    """

    # the inverse once known; a composition's factors while theirs are derivable
    _inverse: "Automorphism | None" = None
    _factors: "tuple[Automorphism, Automorphism] | None" = None

    def __init__(self, quiver: Quiver, field: Field, images: dict[str, dict]):
        self.quiver, self.field = quiver, field
        imgs = {}
        for name in quiver.arrow_names:
            a = quiver.arrow(name)
            img = images.get(name)
            img = {quiver.arrow_path(name): field.one} if img is None else _clean(field, img)
            for p in img:
                if p.source != a.source or p.target != a.target or p.is_trivial:
                    raise ValueError(f"image of {name!r} is not parallel to it")
            imgs[name] = img
        self.images = imgs
        self._check_arrow_level_invertible()
        self._path_cache: dict[Path, dict] = {}

    @classmethod
    def _of(cls, quiver: Quiver, field: Field, images: dict[str, dict]) -> "Automorphism":
        """Unchecked, for automorphisms invertible by construction: ``images``
        must hold a clean parallel image of every arrow."""
        phi = cls.__new__(cls)
        phi.quiver, phi.field, phi.images, phi._path_cache = quiver, field, images, {}
        return phi

    def _check_arrow_level_invertible(self):
        for names in self.quiver.parallel_classes().values():
            paths = [self.quiver.arrow_path(n) for n in names]
            columns = _Echelon(self.field)
            for col in names:
                image = self.images[col]
                if columns.insert({r: image[p] for r, p in enumerate(paths) if p in image}) is None:
                    raise ValueError("arrow-level substitution matrix is singular")

    # ---------- application ----------

    def apply_path(self, p: Path) -> dict:
        if p in self._path_cache:
            return self._path_cache[p]
        if p.is_trivial:
            out = {p: self.field.one}
        else:
            out = self.images[p.arrows[0]]
            for name in p.arrows[1:]:
                out = _product(self.field, self.images[name], out)
        self._path_cache[p] = out
        return out

    def apply(self, elem: dict) -> dict:
        out: dict = {}
        for p, c in elem.items():
            self.field.add_multiple(out, c, self.apply_path(p))
        return out

    def apply_to_ideal(self, ideal: IdealData) -> IdealData:
        # an algebra automorphism maps I onto an ideal, so span phi(B) = phi(I)
        echelon = _Echelon(self.field, ideal._echelon.lead)
        for e in ideal.basis:
            echelon.insert(self.apply(e))
        return IdealData._of(self.quiver, self.field, echelon)

    # ---------- algebraic structure ----------

    def compose(self, other: "Automorphism") -> "Automorphism":
        """``self . other``: apply ``other`` first."""
        imgs = {n: self.apply(other.images[n]) for n in self.quiver.arrow_names}
        phi = Automorphism._of(self.quiver, self.field, imgs)
        if all(x._inverse is not None or x._factors is not None for x in (self, other)):
            phi._factors = self, other
        return phi

    def invert(self) -> "Automorphism":
        """The inverse, computed once and linked both ways: B^-1 . A^-1 for a
        composition A . B that keeps its factors, else eliminated.  Factors
        are inverted first from a stack, so a long chain needs no recursion."""
        stack = [self]
        while stack:
            phi = stack.pop()
            if phi._inverse is None and phi._factors is None:
                _linked(phi, phi._eliminated_inverse())
            elif phi._inverse is None:
                outer, inner = phi._factors
                if outer._inverse is None or inner._inverse is None:
                    stack += [phi, outer, inner]
                else:
                    _linked(phi, inner._inverse.compose(outer._inverse))
        return self._inverse

    def _eliminated_inverse(self) -> "Automorphism":
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
                row = {index[pp]: c for pp, c in self.apply_path(p).items()}
                row[n + t] = f.one
                ech.insert(row)
            if max(ech.rows) >= n:
                raise ValueError("automorphism is not invertible")
            for name in names:
                row = ech.rows[index[q.arrow_path(name)]]
                inv_images[name] = {corridor[c - n]: x for c, x in row.items() if c >= n}
        return Automorphism._of(q, f, inv_images)

    def _moved_arrows(self) -> list[str]:
        q, one = self.quiver, self.field.one
        return [n for n in q.arrow_names if self.images[n] != {q.arrow_path(n): one}]

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.quiver is other.quiver
            and self.field == other.field
            and self.images == other.images
        )

    def __repr__(self):
        parts = [f"{n} -> {_render(self.quiver, self.field, self.images[n])}" for n in self._moved_arrows()]
        return "Automorphism(" + ("; ".join(parts) or "identity") + ")"


def _linked(phi: Automorphism, inverse: Automorphism) -> Automorphism:
    """``phi``, with ``inverse`` recorded as its inverse and vice versa."""
    phi._inverse, inverse._inverse = inverse, phi
    return phi


def identity_automorphism(quiver: Quiver, field: Field) -> Automorphism:
    phi = Automorphism._of(quiver, field, {n: {quiver.arrow_path(n): field.one} for n in quiver.arrow_names})
    return _linked(phi, phi)


def transvection(quiver: Quiver, field: Field, arrow: str, parallel: Path, tau) -> Automorphism:
    """The automorphism adding ``tau`` (nonzero) times a parallel path to one arrow."""
    a = quiver.arrow(arrow)
    if parallel.source != a.source or parallel.target != a.target or parallel.arrows == (arrow,):
        raise ValueError(f"({arrow}, {parallel}) is not a bypass")
    tau = field.coerce(tau)
    if field.is_zero(tau):
        raise ValueError("transvection scalar must be nonzero")
    images = identity_automorphism(quiver, field).images
    inverse = dict(images)
    images[arrow] = {quiver.arrow_path(arrow): field.one, parallel: tau}
    inverse[arrow] = {quiver.arrow_path(arrow): field.one, parallel: field.neg(tau)}
    return _linked(Automorphism._of(quiver, field, images), Automorphism._of(quiver, field, inverse))


def transvection_of(quiver: Quiver, field: Field, bypass: Bypass, tau) -> Automorphism:
    return transvection(quiver, field, bypass.arrow, bypass.path, tau)


def dilatation(quiver: Quiver, field: Field, weights: dict[str, object]) -> Automorphism:
    """The automorphism rescaling each arrow by a nonzero weight."""
    images, inverse = {}, {}
    for name in quiver.arrow_names:
        w = field.coerce(weights.get(name, field.one))
        if field.is_zero(w):
            raise ValueError(f"dilatation weight for {name!r} is zero")
        images[name] = {quiver.arrow_path(name): w}
        inverse[name] = {quiver.arrow_path(name): field.inv(w)}
    return _linked(Automorphism._of(quiver, field, images), Automorphism._of(quiver, field, inverse))
