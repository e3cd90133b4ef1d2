"""The quotient algebra on its normal-path basis and its degree-one cohomology.

The algebra attached to an admissible ideal carries the normal paths as a
basis (trivial paths first), with the product computed through normal forms;
its vectors are sparse ``{basis index: coeff}`` maps, and ``vector_of`` and
``element_of`` convert between them and path-algebra elements, the sparse
``{Path: coeff}`` maps of :mod:`bquiver.pathalg`.  A unitary derivation
kills the idempotents and preserves every corridor ``e_y A e_x``, so it is
determined by one vector per arrow: the image inside the span of the normal
paths parallel to that arrow.  The coordinates of those vectors are the
*unknowns* of a symbolic derivation D, each arrow owning a range of them,
and a :class:`Derivation` is held by its nonzero coordinates
``{unknown index: coeff}`` alone.

The Leibniz rule is expanded in one place, :meth:`FDAlgebra.leibniz`: for a
path a_n...a_1, D(p) is the sum over positions i and corridor paths w of
x_(a_i, w) times the normal form of a_n...w...a_1, kept as a sparse table
``{basis index: {unknown index: coeff}}`` and memoized per path.  Summing
the table over the support of each reduced-basis element of the ideal gives
the sparse linear system whose nullspace is the space of unitary
derivations; the same table, contracted with a derivation's coordinates,
gives its value on any basis path.  Inner derivations come from idempotent
combinations and act as integer multiples on each corridor.

Degree-one cohomology is presented as derivations modulo inner derivations.
Lie operations act on sparse arrow images only: the bracket is
[D, E](a) = D(E(a)) - E(D(a)) per arrow, and the algebra automorphism Psi
induced by an ideal-fixing path-algebra automorphism rho conjugates D to the
derivation a -> Psi(D(Psi^-1(a))), where Psi^-1(a) is the normal form of
rho^-1(a) and Psi applies rho to a normal-path combination.  Each class is
held by sparse coordinates ``{derivation-basis index: coeff}``, reduced
modulo the echelon of the inner derivations, so no coordinate sits on an
inner pivot and class equality is dict equality; the basis classes are unit
coordinates on the other columns, and a span of classes is the echelon of
their coordinates.  A derivation's coordinate on basis derivation j is its
entry on j's free unknown, and membership in the derivation span is
confirmed by rebuilding the derivation from those coordinates.
"""

from __future__ import annotations

from .linalg import _add_multiple, _clean, _combination, _Echelon, nullspace
from .pathalg import IdealData, _product, _render
from .quiver import Path


class FDAlgebra:
    """A basic finite-dimensional algebra presented by a bound quiver.

    Vectors of the algebra are sparse ``{basis index: coeff}`` maps.
    """

    def __init__(self, ideal: IdealData):
        ok, bad = ideal.is_admissible()
        if not ok:
            raise ValueError(f"ideal is not admissible: short support paths {bad}")
        ideal.quiver.require_valid()
        self.ideal = ideal
        self.quiver = ideal.quiver
        self.field = ideal.field
        self.basis: tuple[Path, ...] = tuple(ideal.normal_paths)
        self.dim = len(self.basis)
        self.index = {p: i for i, p in enumerate(self.basis)}
        self.idempotent_index = {v: self.index[self.quiver.trivial_path(v)] for v in self.quiver.vertices}
        # corridor blocks of the radical: nontrivial normal paths per (src, tgt)
        blocks: dict[tuple[str, str], list[int]] = {}
        for i, p in enumerate(self.basis):
            if not p.is_trivial:
                blocks.setdefault((p.source, p.target), []).append(i)
        self.blocks = {k: tuple(v) for k, v in blocks.items()}
        self._table: dict[tuple[int, int], dict] = {}
        # unknown coordinates for derivations: per arrow, one per parallel
        # normal path; arrow_unknowns[name] is the arrow's range of them
        unknowns = []
        self.arrow_unknowns: dict[str, range] = {}
        for name in self.quiver.arrow_names:
            a = self.quiver.arrow(name)
            start = len(unknowns)
            for i in self.blocks.get((a.source, a.target), ()):
                unknowns.append((name, self.basis[i]))
            self.arrow_unknowns[name] = range(start, len(unknowns))
        self.derivation_unknowns: tuple[tuple[str, Path], ...] = tuple(unknowns)
        self._unknown_index = {u: i for i, u in enumerate(self.derivation_unknowns)}
        self._unknown_basis = tuple(self.index[p] for _, p in self.derivation_unknowns)
        self._leibniz: dict[Path, dict[int, dict[int, object]]] = {}

    # ---------- vectors and products ----------

    def vector_of(self, elem: dict) -> dict:
        """The normal form of the path-algebra element ``elem`` as
        ``{basis index: coeff}``."""
        return {self.index[p]: c for p, c in self.ideal.normal_form(elem).items()}

    def element_of(self, vec: dict) -> dict:
        """The path-algebra element ``{Path: coeff}`` of an algebra vector."""
        return {self.basis[i]: c for i, c in vec.items()}

    def path_vector(self, p: Path) -> dict:
        return self.vector_of({p: self.field.one})

    def basis_product(self, i: int, j: int) -> dict:
        """Vector of basis[i] * basis[j] (right-to-left, j traversed first)."""
        key = (i, j)
        if key not in self._table:
            one = self.field.one
            self._table[key] = self.vector_of(_product(self.field, {self.basis[i]: one}, {self.basis[j]: one}))
        return self._table[key]

    def multiply_vectors(self, u: dict, v: dict) -> dict:
        f = self.field
        out: dict = {}
        for i, ci in u.items():
            for j, cj in v.items():
                _add_multiple(f, out, f.mul(ci, cj), self.basis_product(i, j))
        return out

    def leibniz(self, path: Path) -> dict[int, dict[int, object]]:
        """D(path) for the symbolic derivation D, as ``{basis index: {unknown
        index: coeff}}``: the single expansion of the Leibniz rule."""
        table = self._leibniz.get(path)
        if table is None:
            f = self.field
            names = path.arrows
            table = {}
            for i, name in enumerate(names):
                a = self.quiver.arrow(name)
                for bi in self.blocks.get((a.source, a.target), ()):
                    w = self.basis[bi]
                    u = self._unknown_index[(name, w)]
                    term = Path(path.source, path.target, names[:i] + w.arrows + names[i + 1:])
                    for p, c in self.ideal.normal_form({term: f.one}).items():
                        cell = table.setdefault(self.index[p], {})
                        cell[u] = f.add(cell.get(u, f.zero), c)
            self._leibniz[path] = table
        return table

    def unit_vector(self) -> dict:
        return {self.idempotent_index[v]: self.field.one for v in self.quiver.vertices}

    def is_constricted(self) -> bool:
        """Every arrow corridor one-dimensional (the arrow itself spans it)."""
        return all(len(r) == 1 for r in self.arrow_unknowns.values())

    def __repr__(self):
        return f"FDAlgebra(dim {self.dim} over {self.field}, ideal {self.ideal!r})"


class Derivation:
    """A unitary derivation held by its coordinates ``{unknown index: coeff}``.

    Unknown u is the coefficient of the normal path ``derivation_unknowns[u]``
    in the image of its arrow, so each arrow image is read off its range of
    unknowns.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: FDAlgebra, arrow_images: dict[str, dict]):
        """The derivation with the given arrow images ``{basis index: coeff}``
        (arrows left out go to zero); each must stay in its arrow's corridor."""
        f = algebra.field
        coords = {}
        for name, image in arrow_images.items():
            for i, x in _clean(f, image).items():
                u = algebra._unknown_index.get((name, algebra.basis[i]))
                if u is None:
                    raise ValueError(f"image of {name!r} leaves its corridor")
                coords[u] = x
        self.algebra = algebra
        self.coords = coords

    @classmethod
    def _of(cls, algebra: FDAlgebra, coords: dict) -> "Derivation":
        d = cls.__new__(cls)
        d.algebra = algebra
        d.coords = coords
        return d

    @classmethod
    def from_coordinates(cls, algebra: FDAlgebra, coords) -> "Derivation":
        """The derivation with the dense coordinate sequence ``coords``."""
        if len(coords) != len(algebra.derivation_unknowns):
            raise ValueError("one coordinate per derivation unknown expected")
        return cls._of(algebra, _clean(algebra.field, dict(enumerate(coords))))

    def coordinates(self) -> tuple:
        """The dense coordinate tuple, one entry per unknown."""
        zero = self.algebra.field.zero
        return tuple(self.coords.get(u, zero) for u in range(len(self.algebra.derivation_unknowns)))

    def arrow_image(self, name: str) -> dict:
        alg = self.algebra
        return {alg._unknown_basis[u]: self.coords[u] for u in alg.arrow_unknowns[name] if u in self.coords}

    def image_of_basis(self, j: int) -> dict[int, object]:
        """D(basis[j]) as ``{basis index: coeff}``, nonzero entries only."""
        f = self.algebra.field
        x = self.coords
        out = {}
        for k, row in self.algebra.leibniz(self.algebra.basis[j]).items():
            c = f.zero
            for u, a in row.items():
                xu = x.get(u)
                if xu is not None:
                    c = f.add(c, f.mul(a, xu))
            if not f.is_zero(c):
                out[k] = c
        return out

    def apply(self, vec: dict) -> dict:
        """D(vec) for a sparse algebra vector."""
        f = self.algebra.field
        out: dict = {}
        for j, c in vec.items():
            _add_multiple(f, out, c, self.image_of_basis(j))
        return out

    def leibniz_defect(self, i: int, j: int) -> dict:
        """d(b_i b_j) - b_i d(b_j) - d(b_i) b_j on basis paths, as a sparse
        vector: empty exactly when the Leibniz rule holds on the pair."""
        alg = self.algebra
        f = alg.field
        minus = f.neg(f.one)
        ei, ej = {i: f.one}, {j: f.one}
        out = self.apply(alg.multiply_vectors(ei, ej))
        _add_multiple(f, out, minus, alg.multiply_vectors(ei, self.apply(ej)))
        _add_multiple(f, out, minus, alg.multiply_vectors(self.apply(ei), ej))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.algebra is other.algebra
            and self.coords == other.coords
        )

    def __repr__(self):
        alg = self.algebra
        parts = []
        for name in alg.quiver.arrow_names:
            image = self.arrow_image(name)
            if image:
                parts.append(f"{name} -> {_render(alg.quiver, alg.field, alg.element_of(image))}")
        return "Derivation(" + ("; ".join(parts) or "0") + ")"


def derivation_space(algebra: FDAlgebra) -> list[Derivation]:
    """Canonical basis of the unitary derivations (Leibniz nullspace)."""
    f = algebra.field
    rows = []
    for rel in algebra.ideal.basis:
        # D(rel) must vanish: each normal-path coordinate is one equation
        contrib: dict[int, dict[int, object]] = {}  # basis idx -> unknown idx -> coeff
        for u_path, u_coeff in rel.items():
            for k, row in algebra.leibniz(u_path).items():
                _add_multiple(f, contrib.setdefault(k, {}), u_coeff, row)
        rows.extend(row for row in contrib.values() if row)
    return [Derivation._of(algebra, vec) for vec in nullspace(f, len(algebra.derivation_unknowns), rows)]


def inner_derivation(algebra: FDAlgebra, coefficients: dict[str, object]) -> Derivation:
    """The derivation a -> ea - ae for an idempotent combination e."""
    f = algebra.field
    imgs = {}
    for name in algebra.quiver.arrow_names:
        a = algebra.quiver.arrow(name)
        ct = f.coerce(coefficients.get(a.target, f.zero))
        cs = f.coerce(coefficients.get(a.source, f.zero))
        imgs[name] = {algebra.index[algebra.quiver.arrow_path(name)]: f.sub(ct, cs)}
    return Derivation(algebra, imgs)


def inner_derivation_space(algebra: FDAlgebra) -> list[Derivation]:
    """The span of the per-vertex inner derivations (dimension |Q0| - 1),
    by its reduced echelon basis: vertex v's is +1 on the own unknown of each
    arrow into v and -1 on each arrow out of v (arrows are normal paths)."""
    f = algebra.field
    q = algebra.quiver
    coords: dict[str, dict] = {v: {} for v in q.vertices}
    for name in q.arrow_names:
        a = q.arrow(name)
        u = algebra._unknown_index[(name, q.arrow_path(name))]
        coords[a.target][u], coords[a.source][u] = f.one, f.neg(f.one)
    ech = _Echelon(f)
    for row in coords.values():
        ech.insert(row)
    return [Derivation._of(algebra, ech.rows[p]) for p in sorted(ech.rows)]


class CohomologyClass:
    """A cohomology class held by its canonical coordinates: a sparse
    ``{derivation-basis index: coeff}`` map with no zeros and no pivot column
    of the inner span, so equal classes have equal coordinates."""

    __slots__ = ("space", "coords", "_representative")

    def __init__(self, space: "CohomologySpace", coords: dict):
        self.space = space
        self.coords = coords
        self._representative = None

    def is_zero(self) -> bool:
        return not self.coords

    def representative(self) -> Derivation:
        """The canonical representative, built once: classes are immutable."""
        if self._representative is None:
            self._representative = self.space.representative(self.coords)
        return self._representative

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        coords = dict(self.coords)
        _add_multiple(self.space.field, coords, self.space.field.one, other.coords)
        return CohomologyClass(self.space, coords)

    def scale(self, s) -> "CohomologyClass":
        f = self.space.field
        return CohomologyClass(self.space, _combination(f, [self.coords], {0: f.coerce(s)}))

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyClass)
            and self.space is other.space
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(frozenset(self.coords.items()))

    def __repr__(self):
        return f"CohomologyClass({dict(sorted(self.coords.items()))})"


class CohomologySpace:
    """Derivations modulo inner derivations, with canonical representatives."""

    def __init__(self, algebra: FDAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        self.der_basis = derivation_space(algebra)
        self.inner_basis = inner_derivation_space(algebra)
        self._der_vectors = [d.coords for d in self.der_basis]
        # canonical nullspace vectors are unit on their free column, their
        # greatest unknown, so the coefficient of a derivation on basis
        # vector j is its entry there
        self._free_columns = tuple(max(v) for v in self._der_vectors)
        self._inner = _Echelon(self.field)
        for d in self.inner_basis:
            self._inner.insert(self._der_coefficients(d))
        self.dim = len(self.der_basis) - len(self._inner.rows)

    def _der_coefficients(self, derivation: Derivation) -> dict:
        coords = derivation.coords
        coeffs = {j: coords[c] for j, c in enumerate(self._free_columns) if c in coords}
        # confirm the derivation lies in the span: the basis derivations
        # with those coefficients must give it back
        if _combination(self.field, self._der_vectors, coeffs) != coords:
            raise ValueError("derivation does not satisfy the Leibniz system")
        return coeffs

    # ---------- classes ----------

    def class_of(self, derivation: Derivation) -> CohomologyClass:
        return CohomologyClass(self, self._inner.reduce(self._der_coefficients(derivation)))

    def zero_class(self) -> CohomologyClass:
        return CohomologyClass(self, {})

    def basis_classes(self) -> list[CohomologyClass]:
        """Unit coordinates on the columns that are not inner pivots."""
        one = self.field.one
        return [CohomologyClass(self, {j: one}) for j in range(len(self.der_basis)) if j not in self._inner.rows]

    def representative(self, coords: dict) -> Derivation:
        return Derivation._of(self.algebra, _combination(self.field, self._der_vectors, coords))

    def bracket(self, f1: CohomologyClass, g1: CohomologyClass) -> CohomologyClass:
        """Commutator bracket [D, E](a) = D(E(a)) - E(D(a)) on the arrows of
        the canonical representatives."""
        if f1.space is not self or g1.space is not self:
            raise ValueError("classes from a different space")
        d = f1.representative()
        e = g1.representative()
        f = self.field
        minus = f.neg(f.one)
        imgs = {}
        for name in self.algebra.quiver.arrow_names:
            image = d.apply(e.arrow_image(name))
            _add_multiple(f, image, minus, e.apply(d.arrow_image(name)))
            imgs[name] = image
        return self.class_of(Derivation(self.algebra, imgs))

    def is_inner(self, derivation: Derivation) -> bool:
        return self.class_of(derivation).is_zero()

    def span(self, classes) -> "ClassSpan":
        return ClassSpan(self, classes)

    def __repr__(self):
        return f"CohomologySpace(dim {self.dim})"


class ClassSpan:
    """A subspace of the cohomology, held by the echelon of its classes'
    coordinates (canonical, so equal spans have equal rows)."""

    def __init__(self, space: CohomologySpace, classes):
        self.space = space
        self._echelon = _Echelon(space.field)
        for c in classes:
            self._echelon.insert(c.coords)

    @property
    def dim(self) -> int:
        return len(self._echelon.rows)

    def basis_classes(self) -> list[CohomologyClass]:
        rows = self._echelon.rows
        return [CohomologyClass(self.space, rows[p]) for p in sorted(rows)]

    def contains(self, cls: CohomologyClass) -> bool:
        return not self._echelon.reduce(cls.coords)

    def contains_span(self, other: "ClassSpan") -> bool:
        return all(not self._echelon.reduce(row) for row in other._echelon.rows.values())

    def __eq__(self, other):
        return isinstance(other, ClassSpan) and self.space is other.space and self._echelon.rows == other._echelon.rows

    def __hash__(self):
        return hash(frozenset((p, frozenset(row.items())) for p, row in self._echelon.rows.items()))

    def __repr__(self):
        return f"ClassSpan(dim {self.dim})"


def conjugate_class(space: CohomologySpace, rho, classes) -> list[CohomologyClass]:
    """Push classes forward along the algebra automorphism Psi induced by an
    ideal-fixing path-algebra automorphism rho, in order: the conjugate
    derivation sends each arrow a to Psi(D(Psi^-1(a))), where
    Psi^-1(a) = rho^-1(a).  The ideal check and the inversion are done once
    for all the classes."""
    alg = space.algebra
    if rho.apply_to_ideal(alg.ideal) != alg.ideal:
        raise ValueError("automorphism does not fix the defining ideal")
    preimages = {name: alg.vector_of(image) for name, image in rho.invert().images.items()}
    out = []
    for cls in classes:
        d = cls.representative()
        imgs = {name: alg.vector_of(rho.apply(alg.element_of(d.apply(x)))) for name, x in preimages.items()}
        out.append(space.class_of(Derivation(alg, imgs)))
    return out
