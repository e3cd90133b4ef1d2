"""Presentations of the algebra and the character embedding into cohomology.

A presentation is the reference projection composed with an idempotent-fixing
automorphism of the path algebra; its kernel is the transported ideal and its
*adapted basis* consists of the images of the kernel's normal paths.  Given a
tree-normalized character of the kernel's fundamental group (a weight vector
on arrows), the embedding sends it to the class of the derivation acting
diagonally on the adapted basis, the eigenvalue on each basis element being
the weight sum along the underlying path.  Only its arrow images are
computed: arrow a goes to chi(s * chi^-1(a)), where s scales each path by
its weight sum.  That is the derivation on a modulo the ideal I: s is a
derivation of the path algebra mapping the kernel K = chi^-1(I) into K, so
chi^-1(a) need not be reduced modulo K, and no matrix of the adapted basis
is built or inverted.

A family whose canonical representatives scale every vector of a corridor
basis (an image on its adapted basis) is diagonalizable and commutes; else
each representative must have a squarefree, split minimal polynomial on
every radical block, and each pair must bracket to zero.  A common eigenbasis
refines each block through the eigenspaces of the family (sparse kernels of
the shifted operators), a stage losing dimension being a nonzero bracket;
matched to the arrows, it yields a presentation whose character image holds
the family, as the maximality analysis needs.  Vectors, basis blocks and
linear systems are sparse ``{index: coeff}`` maps, and the arrow images of
chi are path-algebra elements, sparse ``{Path: coeff}`` maps.
"""

from __future__ import annotations

import itertools

from .budgets import Budgets, DEFAULT_BUDGETS
from .fields import PrimeField
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
    _add_multiple,
    _clean,
    _combination,
    _Echelon,
    minimal_polynomial,
    nullspace,
    roots_over_field,
)
from .pathalg import Automorphism, IdealData, identity_automorphism
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

    def image_of_path(self, p: Path) -> dict:
        """The sparse vector of the path's image in the reference algebra."""
        return self.algebra.vector_of(self.chi.apply_path(p))

    def adapted_basis_blocks(self) -> "SpecialBasis":
        blocks: dict[tuple[str, str], list[dict]] = {}
        for p in self.kernel.normal_paths:
            if p.is_trivial:
                continue
            blocks.setdefault((p.source, p.target), []).append(self.image_of_path(p))
        return SpecialBasis(self.algebra, {k: tuple(v) for k, v in blocks.items()})

    # ---------- the embedding ----------

    def embed_character(self, weights: dict) -> CohomologyClass:
        """Class of the derivation scaling each adapted-basis element by the
        weight sum of its underlying path.

        Arrow a goes to chi(s * chi^-1(a)), where s scales each path by its
        weight sum.  Weights that pass ``check_weights`` agree on both paths
        of every homotopy pair of the kernel K = chi^-1(I), so p -> s_p * p
        is a derivation of the path algebra that maps K into K; hence
        chi(s * chi^-1(a)) = chi(s * nf_K(chi^-1(a))) modulo I, and
        chi^-1(a) need not be reduced modulo K first.
        """
        if not self.hom.check_weights(weights):
            raise ValueError("weights violate the tree normalization or a pair equation")
        f = self.field
        alg = self.algebra
        self.kernel  # also sets self._chi_inverse
        imgs = {}
        for name in alg.quiver.arrow_names:
            image: dict = {}
            for p, x in self._chi_inverse.images[name].items():
                _add_multiple(f, image, f.mul(weight_of_path(f, weights, p), x), self.chi.apply_path(p))
            imgs[name] = alg.vector_of(image)
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
    """A corridor-respecting basis of the algebra (idempotents implicit),
    block by block as sparse vectors."""

    def __init__(self, algebra: FDAlgebra, blocks: dict[tuple[str, str], tuple]):
        self.algebra = algebra
        f = algebra.field
        clean = {}
        for key in sorted(blocks, key=algebra.quiver.corridor_key):
            vecs = tuple(_clean(f, v) for v in blocks[key])
            indices = set(algebra.blocks.get(key, ()))
            for v in vecs:
                if not v.keys() <= indices:
                    raise ValueError(f"basis vector escapes block {key}")
            if len(vecs) != len(indices):
                raise ValueError(f"block {key} has {len(vecs)} vectors for dimension {len(indices)}")
            independent = _Echelon(f)
            if any(independent.insert(v) is None for v in vecs):
                raise ValueError(f"block {key} vectors are dependent")
            clean[key] = vecs
        # every nonempty corridor must be covered
        for key, idxs in algebra.blocks.items():
            if idxs and key not in clean:
                raise ValueError(f"missing block {key}")
        self.blocks = clean

    def __iter__(self):  # every basis vector, block by block
        return (v for vecs in self.blocks.values() for v in vecs)

    def block(self, source: str, target: str) -> tuple:
        return self.blocks.get((source, target), ())

    def __repr__(self):
        sizes = {k: len(v) for k, v in self.blocks.items()}
        return f"SpecialBasis({sizes})"


# ---------- diagonalizability ----------

def _block_columns(space: CohomologySpace, cls: CohomologyClass, block_key) -> list[dict]:
    """The representative on one radical block, as sparse columns in block
    coordinates (position of each basis index within the block)."""
    idxs = space.algebra.blocks[block_key]
    position = {i: k for k, i in enumerate(idxs)}
    d = cls.representative()
    return [{position[i]: x for i, x in d.image_of_basis(j).items()} for j in idxs]


def _spectra(cls: CohomologyClass):
    """Per radical block: key, columns, minimal polynomial, sorted roots (None unless distinct and split)."""
    space = cls.space
    f = space.field
    for key in sorted(space.algebra.blocks, key=space.algebra.quiver.corridor_key):
        columns = _block_columns(space, cls, key)
        mp = minimal_polynomial(f, columns)
        # roots come with multiplicity: a split mp is squarefree iff they are distinct
        roots, splits = roots_over_field(f, mp)
        yield key, columns, mp, sorted(roots) if splits and len(set(roots)) == len(roots) else None


def diagonalizability_witness(cls: CohomologyClass):
    """None when diagonalizable; else the offending block and minimal polynomial."""
    return next(((key, mp) for key, _, mp, roots in _spectra(cls) if roots is None), None)


def is_diagonalizable_class(cls: CohomologyClass) -> bool:
    return diagonalizability_witness(cls) is None


def is_commuting_set(classes) -> bool:
    """Does every pair of the classes bracket to zero?"""
    return all(c.space.bracket(c, d).is_zero() for c, d in itertools.combinations(classes, 2))


def is_diagonalizable_set(classes, eigenbasis: SpecialBasis | None = None) -> bool:
    """A family diagonal on ``eigenbasis`` is; else every class is decided
    and every pair bracketed, so the answer does not depend on the hint."""
    classes = list(classes)
    if eigenbasis is not None and _diagonal_on(classes, eigenbasis) is not None:
        return True
    return all(is_diagonalizable_class(c) for c in classes) and is_commuting_set(classes)


def common_eigenbasis(classes) -> SpecialBasis:
    """Simultaneous eigenbasis of a commuting diagonalizable family.

    Each class is decided once per radical block, then each block is refined
    through the eigenspaces of the canonical representatives; a stage that
    the next operator does not leave invariant means a nonzero bracket.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class (use the zero class for the trivial family)")
    space = classes[0].space
    alg = space.algebra
    f = space.field
    spectra = {}
    for c, cls in enumerate(classes):
        for key, op, mp, roots in _spectra(cls):
            if roots is None:
                raise NotDiagonalizableError((key, mp))
            spectra[c, key] = (op, roots)
    blocks_out: dict[tuple[str, str], tuple] = {}
    for key in sorted(alg.blocks, key=alg.quiver.corridor_key):
        idxs = alg.blocks[key]
        # invariant subspaces in block coordinates, each a list of basis vectors
        subspaces = [[{j: f.one} for j in range(len(idxs))]]
        for c in range(len(classes)):
            op, roots = spectra[c, key]
            refined = []
            for basis in subspaces:
                total = 0
                for lam in roots:
                    # y with (op - lam)(sum_t y_t basis[t]) = 0: one row per
                    # block coordinate, one unknown per basis vector
                    rows: dict[int, dict] = {}
                    for t, b in enumerate(basis):
                        column = _combination(f, op, b)
                        _add_multiple(f, column, f.neg(lam), b)
                        for i, x in column.items():
                            rows.setdefault(i, {})[t] = x
                    kernel = nullspace(f, len(basis), rows.values())
                    if not kernel:
                        continue
                    refined.append([_combination(f, basis, y) for y in kernel])
                    total += len(kernel)
                if total != len(basis):
                    raise NotDiagonalizableError("nonzero bracket")
            subspaces = refined
        blocks_out[key] = tuple({idxs[i]: x for i, x in v.items()} for basis in subspaces for v in basis)
    basis = SpecialBasis(alg, blocks_out)
    assert _diagonal_on(classes, basis) is not None
    return basis


def _diagonal_on(classes, vectors):
    """Each class's eigenvalues on the vectors (a sequence or a :class:`SpecialBasis`),
    or None if one is not an eigenvector; on a basis, a certificate that the
    family is diagonalizable and commutes (diagonal on one basis per block)."""
    out = []
    for cls in classes:
        d = cls.representative()
        f = d.algebra.field
        eigenvalues = []
        for vec in vectors:
            image = d.apply(vec)
            i = min(vec)
            lam = f.div(image.get(i, f.zero), vec[i])
            if image != ({} if f.is_zero(lam) else {j: f.mul(lam, x) for j, x in vec.items()}):
                return None
            eigenvalues.append(lam)
        out.append(eigenvalues)
    return out


# ---------- adapted presentations and realization ----------

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
    images = {}
    for key, arrow_names in q.parallel_classes().items():
        idxs = alg.blocks[key]
        arrow_positions = [alg.index[q.arrow_path(n)] for n in arrow_names]
        candidates = sorted(basis.block(*key), key=lambda v: (min(v), tuple(v.get(i, f.zero) for i in idxs)))
        # residues of the chosen elements; a candidate is independent of them
        # exactly when inserting its residue adds a pivot
        chosen = _Echelon(f)
        used = set()
        for name in arrow_names:
            picked = None
            for ci, cand in enumerate(candidates):
                if ci in used:
                    continue
                residue = {k: cand[i] for k, i in enumerate(arrow_positions) if i in cand}
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
    eigenvalues = _diagonal_on(classes, [pres.image_of_path(q.arrow_path(name)) for name in q.arrow_names])
    assert eigenvalues is not None
    for cls, lams in zip(classes, eigenvalues):
        raw = dict(zip(q.arrow_names, lams))
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
    f = space.field
    # each class coordinate of [b_j, s] must vanish: one sparse row per
    # (s, coordinate) over the unknowns j
    rows = []
    for s in span.basis_classes():
        system: dict[int, dict] = {}
        for j, b in enumerate(basis):
            for coord, x in space.bracket(b, s).coords.items():
                system.setdefault(coord, {})[j] = x
        rows.extend(system.values())
    vectors = [b.coords for b in basis]
    return space.span(CohomologyClass(space, _combination(f, vectors, y)) for y in nullspace(f, len(basis), rows))


def _iter_candidate_classes(space: CohomologySpace, pool: ClassSpan, budgets: Budgets):
    """Deterministic candidate stream through a span: every nonzero
    combination of its basis with coefficients from the field (over GF(p),
    the first coordinate varying fastest) or from the rational grid and zero
    (the last coordinate varying fastest), up to the candidate budget."""
    f = space.field
    vectors = [b.coords for b in pool.basis_classes()]
    if not vectors:
        return
    if isinstance(f, PrimeField):
        values, order = tuple(f.elements()), slice(None, None, -1)
    else:
        values, order = budgets.rational_grid + (f.zero,), slice(None)
    emitted = 0
    for digits in itertools.product(values, repeat=len(vectors)):
        coeffs = {t: v for t, v in enumerate(digits[order]) if not f.is_zero(v)}
        if not coeffs:
            continue
        if emitted >= budgets.maxdiag_max_candidates:
            return
        emitted += 1
        yield CohomologyClass(space, _combination(f, vectors, coeffs))


def is_maximal_diagonalizable(span: ClassSpan, budgets: Budgets = DEFAULT_BUDGETS, eigenbasis=None):
    """Three-valued maximality test for a diagonalizable span.

    Returns ``(verdict, witness)``: a definite "no" carries a diagonalizable
    class extending the span; "yes" is definite when the centralizer equals
    the span or the finite-field sweep finishes; otherwise "unknown".
    ``eigenbasis`` is the hint handed to :func:`is_diagonalizable_set`.
    """
    space = span.space
    if not is_diagonalizable_set(span.basis_classes(), eigenbasis):
        raise ValueError("span is not diagonalizable")
    cent = centralizer(space, span)
    assert cent.contains_span(span)
    if cent.dim == span.dim:
        return YES, None
    exhaustive = isinstance(space.field, PrimeField)
    count = 0
    for cls in _iter_candidate_classes(space, cent, budgets):
        count += 1
        if span.contains(cls):
            continue
        if is_diagonalizable_class(cls):
            return NO, cls
    if exhaustive and count < budgets.maxdiag_max_candidates:
        return YES, None
    return UNKNOWN, None
