"""The quotient algebra on its normal-path basis and its degree-one cohomology.

The algebra attached to an admissible ideal carries the normal paths as a
basis (trivial paths first), with the product computed through normal forms.
A unitary derivation kills the idempotents and preserves every corridor
``e_y A e_x``, so it is determined by one vector per arrow: the image inside
the span of the normal paths parallel to that arrow.  The coordinates of
those vectors are the *unknowns* of a symbolic derivation D.

The Leibniz rule is expanded in one place, :meth:`FDAlgebra.leibniz`: for a
path a_n...a_1, D(p) is the sum over positions i and corridor paths w of
x_(a_i, w) times the normal form of a_n...w...a_1, kept as a sparse table
``{basis index: {unknown index: coeff}}`` and memoized per path.  Summing
the table over the support of each reduced-basis element of the ideal gives
the linear system whose nullspace is the space of unitary derivations; the
same table, contracted with a derivation's coordinates, gives its value on
any basis path.  Inner derivations come from idempotent combinations and act
as integer multiples on each corridor.

Degree-one cohomology is presented as derivations modulo inner derivations.
Lie operations act on arrow images only: the bracket is
[D, E](a) = D(E(a)) - E(D(a)) per arrow, and the algebra automorphism Psi
induced by an ideal-fixing path-algebra automorphism rho conjugates D to the
derivation a -> Psi(D(Psi^-1(a))), where Psi^-1(a) is the normal form of
rho^-1(a) and Psi applies rho to a normal-path combination.  Each class is
stored through a canonical coset representative: coordinates in the
derivation basis with the echelon-pivot coordinates of the inner subspace
zeroed out, so class equality is plain vector equality.
"""

from __future__ import annotations

from .linalg import Matrix, Subspace, nullspace, rref
from .pathalg import AlgebraElement, IdealData
from .quiver import Path


class FDAlgebra:
    """A basic finite-dimensional algebra presented by a bound quiver."""

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
        self._table: dict[tuple[int, int], tuple] = {}
        # unknown coordinates for derivations: per arrow, parallel normal paths
        unknowns = []
        for name in self.quiver.arrow_names:
            a = self.quiver.arrow(name)
            for i in self.blocks.get((a.source, a.target), ()):
                unknowns.append((name, self.basis[i]))
        self.derivation_unknowns: tuple[tuple[str, Path], ...] = tuple(unknowns)
        self._unknown_index = {u: i for i, u in enumerate(self.derivation_unknowns)}
        self._leibniz: dict[Path, dict[int, dict[int, object]]] = {}

    # ---------- vectors and products ----------

    def vector_of(self, elem: AlgebraElement) -> tuple:
        nf = self.ideal.normal_form(elem)
        vec = [self.field.zero] * self.dim
        for p, c in nf.coeffs.items():
            vec[self.index[p]] = c
        return tuple(vec)

    def element_of(self, vec) -> AlgebraElement:
        return AlgebraElement(
            self.quiver, self.field, {self.basis[i]: vec[i] for i in range(self.dim)}
        )

    def path_vector(self, p: Path) -> tuple:
        return self.vector_of(AlgebraElement.from_path(self.quiver, self.field, p))

    def basis_product(self, i: int, j: int) -> tuple:
        """Vector of basis[i] * basis[j] (right-to-left, j traversed first)."""
        key = (i, j)
        if key not in self._table:
            prod = AlgebraElement.from_path(self.quiver, self.field, self.basis[i]) * AlgebraElement.from_path(self.quiver, self.field, self.basis[j])
            self._table[key] = self.vector_of(prod)
        return self._table[key]

    def multiply_vectors(self, u, v) -> tuple:
        f = self.field
        out = [f.zero] * self.dim
        for i, ci in enumerate(u):
            if f.is_zero(ci):
                continue
            for j, cj in enumerate(v):
                if f.is_zero(cj):
                    continue
                prod = self.basis_product(i, j)
                c = f.mul(ci, cj)
                for k, pk in enumerate(prod):
                    if not f.is_zero(pk):
                        out[k] = f.add(out[k], f.mul(c, pk))
        return tuple(out)

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
                    nf = self.ideal.normal_form(AlgebraElement.from_path(self.quiver, f, term))
                    for p, c in nf.coeffs.items():
                        cell = table.setdefault(self.index[p], {})
                        cell[u] = f.add(cell.get(u, f.zero), c)
            self._leibniz[path] = table
        return table

    def unit_vector(self) -> tuple:
        f = self.field
        vec = [f.zero] * self.dim
        for v in self.quiver.vertices:
            vec[self.idempotent_index[v]] = f.one
        return tuple(vec)

    def is_constricted(self) -> bool:
        """Every arrow corridor one-dimensional (the arrow itself spans it)."""
        for name in self.quiver.arrow_names:
            a = self.quiver.arrow(name)
            if len(self.blocks.get((a.source, a.target), ())) != 1:
                return False
        return True

    def __repr__(self):
        return f"FDAlgebra(dim {self.dim} over {self.field}, ideal {self.ideal!r})"


class Derivation:
    """A unitary derivation stored by its arrow images (corridor vectors)."""

    def __init__(self, algebra: FDAlgebra, arrow_images: dict[str, tuple]):
        self.algebra = algebra
        f = algebra.field
        imgs = {}
        for name in algebra.quiver.arrow_names:
            vec = arrow_images.get(name)
            if vec is None:
                vec = tuple([f.zero] * algebra.dim)
            vec = tuple(f.coerce(x) for x in vec)
            a = algebra.quiver.arrow(name)
            allowed = set(algebra.blocks.get((a.source, a.target), ()))
            for i, x in enumerate(vec):
                if not f.is_zero(x) and i not in allowed:
                    raise ValueError(f"image of {name!r} leaves its corridor")
            imgs[name] = vec
        self.arrow_images = imgs
        self._coordinates = tuple(
            imgs[name][algebra.index[path]] for name, path in algebra.derivation_unknowns
        )

    @classmethod
    def from_coordinates(cls, algebra: FDAlgebra, coords) -> "Derivation":
        f = algebra.field
        imgs: dict[str, list] = {}
        for (name, path), c in zip(algebra.derivation_unknowns, coords):
            vec = imgs.setdefault(name, [f.zero] * algebra.dim)
            vec[algebra.index[path]] = f.coerce(c)
        return cls(algebra, {n: tuple(v) for n, v in imgs.items()})

    def coordinates(self) -> tuple:
        return self._coordinates

    def image_of_basis(self, j: int) -> dict[int, object]:
        """D(basis[j]) as ``{basis index: coeff}``, nonzero entries only."""
        f = self.algebra.field
        x = self._coordinates
        out = {}
        for k, row in self.algebra.leibniz(self.algebra.basis[j]).items():
            c = f.zero
            for u, a in row.items():
                if not f.is_zero(x[u]):
                    c = f.add(c, f.mul(a, x[u]))
            if not f.is_zero(c):
                out[k] = c
        return out

    def apply_vector(self, vec) -> tuple:
        f = self.algebra.field
        out = [f.zero] * self.algebra.dim
        for j, c in enumerate(vec):
            if f.is_zero(c):
                continue
            for k, y in self.image_of_basis(j).items():
                out[k] = f.add(out[k], f.mul(c, y))
        return tuple(out)

    def matrix(self) -> Matrix:
        """Matrix on the algebra basis; columns are images of basis paths."""
        f = self.algebra.field
        cols = []
        for j in range(self.algebra.dim):
            col = [f.zero] * self.algebra.dim
            for k, c in self.image_of_basis(j).items():
                col[k] = c
            cols.append(col)
        return Matrix.from_columns(f, cols)

    def leibniz_defect(self, i: int, j: int) -> tuple:
        """d(b_i b_j) - b_i d(b_j) - d(b_i) b_j on basis paths, as a vector."""
        alg = self.algebra
        f = alg.field
        ei = [f.zero] * alg.dim
        ei[i] = f.one
        ej = [f.zero] * alg.dim
        ej[j] = f.one
        lhs = self.apply_vector(alg.multiply_vectors(ei, ej))
        rhs1 = alg.multiply_vectors(ei, self.apply_vector(ej))
        rhs2 = alg.multiply_vectors(self.apply_vector(ei), ej)
        return tuple(f.sub(lhs[k], f.add(rhs1[k], rhs2[k])) for k in range(alg.dim))

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.algebra is other.algebra
            and self.arrow_images == other.arrow_images
        )

    def __repr__(self):
        alg = self.algebra
        parts = []
        for name in alg.quiver.arrow_names:
            vec = self.arrow_images[name]
            if any(not alg.field.is_zero(x) for x in vec):
                parts.append(f"{name} -> {alg.element_of(vec)}")
        return "Derivation(" + ("; ".join(parts) or "0") + ")"


def derivation_space(algebra: FDAlgebra) -> list[Derivation]:
    """Canonical basis of the unitary derivations (Leibniz nullspace)."""
    f = algebra.field
    n_unknowns = len(algebra.derivation_unknowns)
    rows = []
    for rel in algebra.ideal.basis:
        # D(rel) must vanish: each normal-path coordinate is one equation
        contrib: dict[int, dict[int, object]] = {}  # basis idx -> unknown idx -> coeff
        for u_path, u_coeff in rel.coeffs.items():
            for k, row in algebra.leibniz(u_path).items():
                cell = contrib.setdefault(k, {})
                for uidx, c in row.items():
                    cell[uidx] = f.add(cell.get(uidx, f.zero), f.mul(u_coeff, c))
        for k in sorted(contrib):
            row = [f.zero] * n_unknowns
            nonzero = False
            for uidx, c in contrib[k].items():
                row[uidx] = c
                if not f.is_zero(c):
                    nonzero = True
            if nonzero:
                rows.append(row)
    system = (
        Matrix(f, rows, ncols=n_unknowns) if rows else Matrix.zeros(f, 0, n_unknowns)
    )
    return [Derivation.from_coordinates(algebra, vec) for vec in nullspace(system)]


def inner_derivation(algebra: FDAlgebra, coefficients: dict[str, object]) -> Derivation:
    """The derivation a -> ea - ae for an idempotent combination e."""
    f = algebra.field
    imgs = {}
    for name in algebra.quiver.arrow_names:
        a = algebra.quiver.arrow(name)
        ct = f.coerce(coefficients.get(a.target, f.zero))
        cs = f.coerce(coefficients.get(a.source, f.zero))
        c = f.sub(ct, cs)
        vec = [f.zero] * algebra.dim
        vec[algebra.index[algebra.quiver.arrow_path(name)]] = c
        imgs[name] = tuple(vec)
    return Derivation(algebra, imgs)


def inner_derivation_space(algebra: FDAlgebra) -> list[Derivation]:
    """The span of the per-vertex inner derivations (dimension |Q0| - 1)."""
    f = algebra.field
    vecs = []
    for v in algebra.quiver.vertices:
        vecs.append(inner_derivation(algebra, {v: f.one}).coordinates())
    reduced, _ = rref(Matrix(f, vecs, ncols=len(algebra.derivation_unknowns)))
    return [Derivation.from_coordinates(algebra, row) for row in reduced.rows]


class CohomologyClass:
    """A cohomology class held by its canonical coset-representative vector."""

    __slots__ = ("space", "vector", "_representative")

    def __init__(self, space: "CohomologySpace", vector):
        self.space = space
        self.vector = tuple(space.field.coerce(x) for x in vector)
        self._representative = None

    def is_zero(self) -> bool:
        z = self.space.field.zero
        return all(x == z for x in self.vector)

    def representative(self) -> Derivation:
        """The canonical representative, built once: classes are immutable."""
        if self._representative is None:
            self._representative = self.space.representative(self.vector)
        return self._representative

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        f = self.space.field
        return CohomologyClass(self.space, tuple(f.add(x, y) for x, y in zip(self.vector, other.vector)))

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        f = self.space.field
        return CohomologyClass(self.space, tuple(f.sub(x, y) for x, y in zip(self.vector, other.vector)))

    def scale(self, s) -> "CohomologyClass":
        f = self.space.field
        s = f.coerce(s)
        return CohomologyClass(self.space, tuple(f.mul(s, x) for x in self.vector))

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyClass)
            and self.space is other.space
            and self.vector == other.vector
        )

    def __hash__(self):
        return hash(self.vector)

    def __repr__(self):
        return f"CohomologyClass{self.vector}"


class CohomologySpace:
    """Derivations modulo inner derivations, with canonical representatives."""

    def __init__(self, algebra: FDAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        self.der_basis = derivation_space(algebra)
        self.inner_basis = inner_derivation_space(algebra)
        f = self.field
        # canonical nullspace vectors are unit on their free column, their
        # last nonzero coordinate, so the coefficient of a derivation on
        # basis vector j is its entry there
        self._free_columns = tuple(
            max(c for c, x in enumerate(d.coordinates()) if not f.is_zero(x)) for d in self.der_basis
        )
        self._inner = Subspace(
            f, len(self.der_basis), [self._der_coefficients(d.coordinates()) for d in self.inner_basis]
        )
        self.dim = len(self.der_basis) - self._inner.dim

    def _der_coefficients(self, coords) -> tuple:
        f = self.field
        coeffs = tuple(coords[c] for c in self._free_columns)
        # confirm the vector lies in the derivation span
        recon = [f.zero] * len(coords)
        for c, d in zip(coeffs, self.der_basis):
            dc = d.coordinates()
            recon = [f.add(x, f.mul(c, y)) for x, y in zip(recon, dc)]
        if tuple(recon) != tuple(coords):
            raise ValueError("derivation does not satisfy the Leibniz system")
        return coeffs

    # ---------- classes ----------

    def class_of(self, derivation: Derivation) -> CohomologyClass:
        coeffs = self._der_coefficients(derivation.coordinates())
        return CohomologyClass(self, self._inner.reduce(coeffs))

    def zero_class(self) -> CohomologyClass:
        return CohomologyClass(self, [self.field.zero] * len(self.der_basis))

    def basis_classes(self) -> list[CohomologyClass]:
        f = self.field
        pivots = set(self._inner.pivots)
        out = []
        for j in range(len(self.der_basis)):
            if j in pivots:
                continue
            vec = [f.zero] * len(self.der_basis)
            vec[j] = f.one
            out.append(CohomologyClass(self, vec))
        return out

    def representative(self, class_vector) -> Derivation:
        f = self.field
        coords = [f.zero] * len(self.algebra.derivation_unknowns)
        for c, d in zip(class_vector, self.der_basis):
            if f.is_zero(c):
                continue
            dc = d.coordinates()
            coords = [f.add(x, f.mul(c, y)) for x, y in zip(coords, dc)]
        return Derivation.from_coordinates(self.algebra, coords)

    def bracket(self, f1: CohomologyClass, g1: CohomologyClass) -> CohomologyClass:
        """Commutator bracket [D, E](a) = D(E(a)) - E(D(a)) on the arrows of
        the canonical representatives."""
        if f1.space is not self or g1.space is not self:
            raise ValueError("classes from a different space")
        d = f1.representative()
        e = g1.representative()
        f = self.field
        imgs = {}
        for name in self.algebra.quiver.arrow_names:
            de = d.apply_vector(e.arrow_images[name])
            ed = e.apply_vector(d.arrow_images[name])
            imgs[name] = tuple(f.sub(x, y) for x, y in zip(de, ed))
        return self.class_of(Derivation(self.algebra, imgs))

    def is_inner(self, derivation: Derivation) -> bool:
        return self.class_of(derivation).is_zero()

    def span(self, classes) -> "ClassSpan":
        return ClassSpan(self, classes)

    def __repr__(self):
        return f"CohomologySpace(dim {self.dim})"


class ClassSpan:
    """A subspace of the cohomology, canonical under echelon reduction."""

    def __init__(self, space: CohomologySpace, classes):
        self.space = space
        vectors = [c.vector for c in classes]
        ambient = len(space.der_basis)
        self.subspace = Subspace(space.field, ambient, vectors)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def basis_classes(self) -> list[CohomologyClass]:
        return [CohomologyClass(self.space, row) for row in self.subspace.basis]

    def contains(self, cls: CohomologyClass) -> bool:
        return self.subspace.contains(cls.vector)

    def contains_span(self, other: "ClassSpan") -> bool:
        return self.subspace.contains_subspace(other.subspace)

    def __eq__(self, other):
        return isinstance(other, ClassSpan) and self.space is other.space and self.subspace == other.subspace

    def __hash__(self):
        return hash(self.subspace)

    def __repr__(self):
        return f"ClassSpan(dim {self.dim})"


def conjugate_class(space: CohomologySpace, rho, cls: CohomologyClass) -> CohomologyClass:
    """Push a class forward along the algebra automorphism Psi induced by an
    ideal-fixing path-algebra automorphism rho: the conjugate derivation
    sends each arrow a to Psi(D(Psi^-1(a))), where Psi^-1(a) = rho^-1(a)."""
    alg = space.algebra
    if rho.apply_to_ideal(alg.ideal) != alg.ideal:
        raise ValueError("automorphism does not fix the defining ideal")
    rho_inverse = rho.invert()
    d = cls.representative()
    imgs = {}
    for name in alg.quiver.arrow_names:
        image = d.apply_vector(alg.vector_of(rho_inverse.images[name]))
        imgs[name] = alg.vector_of(rho.apply(alg.element_of(image)))
    return space.class_of(Derivation(alg, imgs))
