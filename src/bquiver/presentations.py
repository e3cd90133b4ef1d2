"""Presentations of the algebra and the character embedding into cohomology.

A presentation is the reference projection composed with an idempotent-fixing
automorphism of the path algebra; its kernel is the transported ideal and its
*adapted basis* consists of the images of the kernel's normal paths.  Given a
tree-normalized character of the kernel's fundamental group (a weight vector
on arrows), the embedding sends it to the class of the derivation acting
diagonally on the adapted basis, the eigenvalue on each basis element being
the weight sum along the underlying path.  Only its arrow images are
computed: arrow a goes to chi(s * nf_K(chi^-1(a))), where nf_K is the normal
form modulo the kernel K = chi^-1(I) and s scales each normal path by its
eigenvalue, so no matrix of the adapted basis is built or inverted.

Diagonalizability of a class is decided corridor by corridor: the canonical
representative must have a squarefree, completely split minimal polynomial
on every radical block.  A commuting family of diagonalizable classes has a
common eigenbasis, obtained by refining each block through the eigenspaces
of the family; matching that eigenbasis to the arrows yields an adapted
presentation and recovers the family inside one character image, which is
the constructive path used by the maximality analysis.
"""

from __future__ import annotations

from .budgets import Budgets, DEFAULT_BUDGETS
from .fields import Field, PrimeField
from .hochschild import (
    ClassSpan,
    CohomologyClass,
    CohomologySpace,
    Derivation,
    FDAlgebra,
)
from .homotopy import (
    HomSpace,
    UNKNOWN,
    YES,
    NO,
    hom_space,
    homotopy_pairs,
    weight_of_path,
    weight_of_walk,
)
from .linalg import (
    Matrix,
    Subspace,
    _Echelon,
    minimal_polynomial,
    nullspace,
    poly_is_squarefree,
    roots_over_field,
)
from .pathalg import AlgebraElement, Automorphism, IdealData, identity_automorphism
from .quiver import Path, SpanningTree


class NotDiagonalizableError(ValueError):
    def __init__(self, witness):
        super().__init__(f"not diagonalizable; offending block {witness}")
        self.witness = witness


class Presentation:
    """The reference projection twisted by a path-algebra automorphism."""

    def __init__(self, space: CohomologySpace, chi: Automorphism, tree: SpanningTree):
        self.space = space
        self.algebra = space.algebra
        self.field = space.field
        self.chi = chi
        self.tree = tree
        self._kernel: IdealData | None = None
        self._chi_inverse: Automorphism | None = None
        self._hom: HomSpace | None = None
        self._image: ClassSpan | None = None

    @classmethod
    def natural(cls, space: CohomologySpace, tree: SpanningTree) -> "Presentation":
        return cls(space, identity_automorphism(space.algebra.quiver, space.field), tree)

    def twist(self, automorphism: Automorphism) -> "Presentation":
        """The presentation obtained by applying ``automorphism`` first."""
        return Presentation(self.space, self.chi.compose(automorphism), self.tree)

    @property
    def kernel(self) -> IdealData:
        if self._kernel is None:
            self._chi_inverse = self.chi.invert()
            self._kernel = self._chi_inverse.apply_to_ideal(self.algebra.ideal)
            ok, bad = self._kernel.is_admissible()
            assert ok, f"kernel of a presentation must be admissible: {bad}"
        return self._kernel

    @property
    def hom(self) -> HomSpace:
        if self._hom is None:
            self._hom = hom_space(
                self.algebra.quiver, self.tree, homotopy_pairs(self.kernel), self.field
            )
        return self._hom

    def image_of_path(self, p: Path) -> tuple:
        """The vector of the path's image in the reference algebra."""
        return self.algebra.vector_of(self.chi.apply_path(p))

    def adapted_basis_blocks(self) -> "SpecialBasis":
        blocks: dict[tuple[str, str], list[tuple]] = {}
        for p in self.kernel.normal_paths:
            if p.is_trivial:
                continue
            blocks.setdefault((p.source, p.target), []).append(self.image_of_path(p))
        return SpecialBasis(self.algebra, {k: tuple(v) for k, v in blocks.items()})

    # ---------- the embedding ----------

    def embed_character(self, weights: dict) -> CohomologyClass:
        """Class of the derivation scaling each adapted-basis element by the
        weight sum of its underlying path."""
        if not self.hom.check_weights(weights):
            raise ValueError("weights violate the tree normalization or a pair equation")
        f = self.field
        alg = self.algebra
        kernel = self.kernel
        # a = chi(c) modulo the ideal for c = nf_K(chi^-1(a)), since
        # K = chi^-1(I); so a goes to chi(s * c)
        imgs = {}
        for name in alg.quiver.arrow_names:
            c = kernel.normal_form(self._chi_inverse.images[name])
            scaled = {p: f.mul(weight_of_path(f, weights, p), x) for p, x in c.coeffs.items()}
            imgs[name] = alg.vector_of(self.chi.apply(AlgebraElement(alg.quiver, f, scaled)))
        return self.space.class_of(Derivation(alg, imgs))

    def character_image(self) -> ClassSpan:
        if self._image is None:
            classes = [self.embed_character(w) for w in self.hom.basis]
            span = self.space.span(classes)
            assert span.dim == self.hom.dim, "character embedding lost rank"
            self._image = span
        return self._image

    def __repr__(self):
        return f"Presentation(kernel {self.kernel!r})"


class SpecialBasis:
    """A corridor-respecting basis of the algebra (idempotents implicit)."""

    def __init__(self, algebra: FDAlgebra, blocks: dict[tuple[str, str], tuple]):
        self.algebra = algebra
        f = algebra.field
        clean = {}
        for key in sorted(blocks, key=lambda st: (algebra.quiver.vertex_index[st[0]], algebra.quiver.vertex_index[st[1]])):
            vecs = [tuple(f.coerce(x) for x in v) for v in blocks[key]]
            indices = set(algebra.blocks.get(key, ()))
            for v in vecs:
                for i, x in enumerate(v):
                    if not f.is_zero(x) and i not in indices:
                        raise ValueError(f"basis vector escapes block {key}")
            if len(vecs) != len(indices):
                raise ValueError(f"block {key} has {len(vecs)} vectors for dimension {len(indices)}")
            if vecs:
                sub = Subspace(f, algebra.dim, vecs)
                if sub.dim != len(vecs):
                    raise ValueError(f"block {key} vectors are dependent")
            clean[key] = tuple(vecs)
        # every nonempty corridor must be covered
        for key, idxs in algebra.blocks.items():
            if idxs and key not in clean:
                raise ValueError(f"missing block {key}")
        self.blocks = clean

    def block(self, source: str, target: str) -> tuple:
        return self.blocks.get((source, target), ())

    def __repr__(self):
        sizes = {k: len(v) for k, v in self.blocks.items()}
        return f"SpecialBasis({sizes})"


# ---------- diagonalizability ----------

def _block_matrix(space: CohomologySpace, cls: CohomologyClass, block_key) -> Matrix:
    alg = space.algebra
    idxs = alg.blocks[block_key]
    d = cls.representative()
    cols = [d.image_of_basis(j) for j in idxs]
    zero = space.field.zero
    return Matrix(space.field, [[col.get(i, zero) for col in cols] for i in idxs], ncols=len(idxs))


def diagonalizability_witness(cls: CohomologyClass):
    """None when diagonalizable; else the offending block and minimal polynomial."""
    space = cls.space
    f = space.field
    for key in sorted(space.algebra.blocks, key=lambda st: (space.algebra.quiver.vertex_index[st[0]], space.algebra.quiver.vertex_index[st[1]])):
        sub = _block_matrix(space, cls, key)
        if sub.nrows == 0:
            continue
        mp = minimal_polynomial(sub)
        roots, splits = roots_over_field(f, mp)
        if not splits or not poly_is_squarefree(f, mp):
            return (key, mp)
    return None


def is_diagonalizable_class(cls: CohomologyClass) -> bool:
    return diagonalizability_witness(cls) is None


def is_diagonalizable_set(classes) -> bool:
    classes = list(classes)
    for c in classes:
        if not is_diagonalizable_class(c):
            return False
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if not classes[i].space.bracket(classes[i], classes[j]).is_zero():
                return False
    return True


def common_eigenbasis(classes) -> SpecialBasis:
    """Simultaneous eigenbasis of a commuting diagonalizable family.

    Each radical block is refined through the eigenspaces of the canonical
    representatives; commutation makes every refinement stage invariant
    under the remaining operators.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class (use the zero class for the trivial family)")
    space = classes[0].space
    if not is_diagonalizable_set(classes):
        bad = next((c for c in classes if not is_diagonalizable_class(c)), None)
        witness = diagonalizability_witness(bad) if bad is not None else "nonzero bracket"
        raise NotDiagonalizableError(witness)
    alg = space.algebra
    f = space.field
    blocks_out: dict[tuple[str, str], tuple] = {}
    for key in sorted(alg.blocks, key=lambda st: (alg.quiver.vertex_index[st[0]], alg.quiver.vertex_index[st[1]])):
        idxs = alg.blocks[key]
        k = len(idxs)
        if k == 0:
            continue
        # subspaces in block coordinates, each a tuple of basis vectors
        subspaces = [tuple(tuple(f.one if i == j else f.zero for i in range(k)) for j in range(k))]
        for cls in classes:
            op = _block_matrix(space, cls, key)
            mp = minimal_polynomial(op)
            roots, splits = roots_over_field(f, mp)
            assert splits
            refined = []
            for basis in subspaces:
                cols = Matrix.from_columns(f, list(basis))
                total = 0
                for lam in sorted(set(roots)):
                    shifted = Matrix(
                        f,
                        [
                            [
                                f.sub(op.rows[i][j], lam) if i == j else op.rows[i][j]
                                for j in range(k)
                            ]
                            for i in range(k)
                        ],
                    )
                    reduced = shifted.mul(cols)
                    kernel = nullspace(reduced)
                    if not kernel:
                        continue
                    new_basis = tuple(cols.mul_vec(v) for v in kernel)
                    refined.append(new_basis)
                    total += len(new_basis)
                assert total == len(basis), "eigen refinement lost dimension"
            subspaces = refined
        vectors = []
        for basis in subspaces:
            for v in basis:
                full = [f.zero] * alg.dim
                for pos, i in enumerate(idxs):
                    full[i] = v[pos]
                vectors.append(tuple(full))
        blocks_out[key] = tuple(vectors)
    basis = SpecialBasis(alg, blocks_out)
    _assert_diagonal(space, classes, basis)
    return basis


def _assert_diagonal(space: CohomologySpace, classes, basis: SpecialBasis):
    f = space.field
    for cls in classes:
        d = cls.representative()
        for vecs in basis.blocks.values():
            for v in vecs:
                image = d.apply_vector(v)
                lam = None
                for i, x in enumerate(v):
                    if not f.is_zero(x):
                        lam = f.div(image[i], x)
                        break
                expected = tuple(f.mul(lam, x) for x in v)
                assert tuple(image) == expected, "basis fails to diagonalize a class"


# ---------- adapted presentations and realization ----------

def _candidate_order(f: Field, block_indices, vec):
    support = [i for i, x in enumerate(vec) if not f.is_zero(x)]
    return (min(support), tuple(vec[i] for i in block_indices))


def adapted_presentation(space: CohomologySpace, basis: SpecialBasis, tree: SpanningTree) -> Presentation:
    """A presentation whose arrow images are drawn from the given basis.

    For each parallel class of arrows, basis elements of the corridor are
    matched greedily (in deterministic order) so that their residues modulo
    the square radical make the arrow-level substitution invertible; such a
    matching always exists for a valid corridor basis.
    """
    alg = space.algebra
    f = space.field
    q = alg.quiver
    classes: dict[tuple[str, str], list[str]] = {}
    for name in q.arrow_names:
        a = q.arrow(name)
        classes.setdefault((a.source, a.target), []).append(name)
    images = {}
    for key in sorted(classes, key=lambda st: (q.vertex_index[st[0]], q.vertex_index[st[1]])):
        arrow_names = classes[key]
        idxs = list(alg.blocks[key])
        arrow_positions = [alg.index[q.arrow_path(n)] for n in arrow_names]
        candidates = sorted(basis.block(*key), key=lambda v: _candidate_order(f, idxs, v))
        # residues of the chosen elements; a candidate is independent of them
        # exactly when inserting its residue adds a pivot
        chosen = _Echelon(f)
        used = set()
        for name in arrow_names:
            picked = None
            for ci, cand in enumerate(candidates):
                if ci in used:
                    continue
                residue = {k: cand[i] for k, i in enumerate(arrow_positions) if not f.is_zero(cand[i])}
                if chosen.insert(residue) is not None:
                    picked = (ci, cand)
                    break
            if picked is None:
                raise ValueError("no basis element completes an invertible substitution")
            used.add(picked[0])
            images[name] = alg.element_of(picked[1])
    chi = Automorphism(q, f, images)
    return Presentation(space, chi, tree)


def realize_in_image(classes, tree: SpanningTree) -> tuple[Presentation, list[dict]]:
    """A presentation whose character image contains the commuting family.

    Raises :class:`NotDiagonalizableError` when the family is not
    simultaneously diagonalizable.  The returned weights are tree-normalized
    and re-embed exactly onto the input classes.
    """
    classes = list(classes)
    space = classes[0].space
    basis = common_eigenbasis(classes)
    pres = adapted_presentation(space, basis, tree)
    f = space.field
    q = space.algebra.quiver
    weights_out = []
    for cls in classes:
        d = cls.representative()
        raw = {}
        for name in q.arrow_names:
            vec = pres.image_of_path(q.arrow_path(name))
            image = d.apply_vector(vec)
            lam = None
            for i, x in enumerate(vec):
                if not f.is_zero(x):
                    lam = f.div(image[i], x)
                    break
            assert lam is not None
            assert tuple(image) == tuple(f.mul(lam, x) for x in vec), "arrow image is not an eigenvector"
            raw[name] = lam
        # tree correction keeps the character and lands in the normalized section
        t = {}
        for name in q.arrow_names:
            a = q.arrow(name)
            corr_in = weight_of_walk(f, raw, pres.tree.walk_to[a.source])
            corr_out = weight_of_walk(f, raw, pres.tree.walk_to[a.target])
            t[name] = f.add(f.sub(raw[name], corr_out), corr_in)
        assert pres.hom.check_weights(t)
        back = pres.embed_character(t)
        assert back == cls, "realized character does not re-embed onto the class"
        weights_out.append(t)
    return pres, weights_out


# ---------- maximality ----------

def centralizer(space: CohomologySpace, span: ClassSpan) -> ClassSpan:
    """All classes whose bracket with the whole span vanishes."""
    basis = space.basis_classes()
    if not basis:
        return space.span([])
    f = space.field
    rows = []
    for s in span.basis_classes():
        cols = [space.bracket(b, s).vector for b in basis]
        # constraint matrix: each class coordinate of the bracket must vanish
        for coord in range(len(cols[0])):
            rows.append([cols[j][coord] for j in range(len(basis))])
    if not rows:
        return space.span(basis)
    system = Matrix(f, rows, ncols=len(basis))
    out = []
    for y in nullspace(system):
        cls = space.zero_class()
        for c, b in zip(y, basis):
            cls = cls + b.scale(c)
        out.append(cls)
    return space.span(out)


def _iter_candidate_classes(space: CohomologySpace, pool: ClassSpan, budgets: Budgets):
    """Deterministic candidate stream through a span, field-appropriate."""
    f = space.field
    basis = pool.basis_classes()
    c = len(basis)
    if c == 0:
        return
    if isinstance(f, PrimeField):
        values = list(f.elements())
        total = len(values) ** c
        emitted = 0
        for code in range(total):
            if emitted >= budgets.maxdiag_max_candidates:
                return
            coeffs = []
            x = code
            for _ in range(c):
                coeffs.append(values[x % len(values)])
                x //= len(values)
            if all(f.is_zero(v) for v in coeffs):
                continue
            cls = space.zero_class()
            for v, b in zip(coeffs, basis):
                cls = cls + b.scale(v)
            emitted += 1
            yield cls, True  # True: stream is exhaustive if not truncated
    else:
        grid = budgets.rational_grid
        emitted = 0
        import itertools

        for coeffs in itertools.product(grid + (f.zero,), repeat=c):
            if all(f.is_zero(v) for v in coeffs):
                continue
            if emitted >= budgets.maxdiag_max_candidates:
                return
            cls = space.zero_class()
            for v, b in zip(coeffs, basis):
                cls = cls + b.scale(v)
            emitted += 1
            yield cls, False


def is_maximal_diagonalizable(span: ClassSpan, budgets: Budgets = DEFAULT_BUDGETS):
    """Three-valued maximality test for a diagonalizable span.

    Returns ``(verdict, witness)``: a definite "no" carries a diagonalizable
    class extending the span; "yes" is definite when the centralizer equals
    the span or the finite-field sweep finishes; otherwise "unknown".
    """
    space = span.space
    if not is_diagonalizable_set(span.basis_classes()):
        raise ValueError("span is not diagonalizable")
    cent = centralizer(space, span)
    assert cent.contains_span(span)
    if cent.dim == span.dim:
        return YES, None
    exhaustive = isinstance(space.field, PrimeField)
    count = 0
    for cls, _ in _iter_candidate_classes(space, cent, budgets):
        count += 1
        if span.contains(cls):
            continue
        if is_diagonalizable_class(cls):
            return NO, cls
    if exhaustive and count < budgets.maxdiag_max_candidates:
        return YES, None
    return UNKNOWN, None
