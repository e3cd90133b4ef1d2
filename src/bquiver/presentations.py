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

Diagonalizability of a class is decided corridor by corridor: the canonical
representative, as sparse block columns, must have a squarefree, completely
split minimal polynomial on every radical block.  A commuting family of
diagonalizable classes has a common eigenbasis, obtained by refining each
block through the eigenspaces of the family (sparse kernels of the shifted
operators); matching that eigenbasis to the arrows yields an adapted
presentation and recovers the family inside one character image, which is
the constructive path used by the maximality analysis.  Algebra vectors,
basis blocks and linear systems are sparse ``{index: coeff}`` maps
throughout, and the arrow images of chi are path-algebra elements, sparse
``{Path: coeff}`` maps.
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


def diagonalizability_witness(cls: CohomologyClass):
    """None when diagonalizable; else the offending block and minimal polynomial."""
    space = cls.space
    f = space.field
    for key in sorted(space.algebra.blocks, key=space.algebra.quiver.corridor_key):
        mp = minimal_polynomial(f, _block_columns(space, cls, key))
        # roots come with multiplicity, so a split mp is squarefree exactly
        # when they are distinct
        roots, splits = roots_over_field(f, mp)
        if not splits or len(set(roots)) != len(roots):
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
    for key in sorted(alg.blocks, key=alg.quiver.corridor_key):
        idxs = alg.blocks[key]
        # invariant subspaces in block coordinates, each a list of basis vectors
        subspaces = [[{j: f.one} for j in range(len(idxs))]]
        for cls in classes:
            op = _block_columns(space, cls, key)
            roots, splits = roots_over_field(f, minimal_polynomial(f, op))
            assert splits
            refined = []
            for basis in subspaces:
                total = 0
                for lam in sorted(set(roots)):
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
                assert total == len(basis), "eigen refinement lost dimension"
            subspaces = refined
        blocks_out[key] = tuple({idxs[i]: x for i, x in v.items()} for basis in subspaces for v in basis)
    basis = SpecialBasis(alg, blocks_out)
    for cls in classes:
        d = cls.representative()
        for vecs in basis.blocks.values():
            for v in vecs:
                _eigenvalue(d, v)
    return basis


def _eigenvalue(d: Derivation, vec: dict):
    """The eigenvalue of ``d`` on ``vec``; asserts that ``vec`` is an eigenvector."""
    f = d.algebra.field
    image = d.apply(vec)
    i = min(vec)
    lam = f.div(image.get(i, f.zero), vec[i])
    expected = {} if f.is_zero(lam) else {j: f.mul(lam, x) for j, x in vec.items()}
    assert image == expected, "vector is not an eigenvector of the class"
    return lam


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
    for cls in classes:
        d = cls.representative()
        raw = {name: _eigenvalue(d, pres.image_of_path(q.arrow_path(name))) for name in q.arrow_names}
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
    for cls in _iter_candidate_classes(space, cent, budgets):
        count += 1
        if span.contains(cls):
            continue
        if is_diagonalizable_class(cls):
            return NO, cls
    if exhaustive and count < budgets.maxdiag_max_candidates:
        return YES, None
    return UNKNOWN, None
