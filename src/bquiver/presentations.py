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
is built or inverted.  chi^-1 is the inverse chi remembers, computed at most
once; it also transports the ideal to the kernel.  The natural presentation
is the identity, its own inverse, with the ideal itself as kernel: neither
is computed.

A family whose canonical representatives scale the arrow images of a
presentation is diagonalizable and commutes: by the Leibniz rule they then
scale the whole adapted basis (``is_diagonalizable_set``), so a character
image is certified on its |Q_1| arrow images alone.  Else the minimal
polynomial of each representative on every arrow corridor (the algebra's
``blocks``; the other corridors follow, see ``hochschild.FDAlgebra``) must
have as many distinct roots in the ground field as its degree (exactly when
it is squarefree and splits over that field, with no extension taken), and
each pair must bracket to zero.  A class's spectrum on the corridors is
decided once and kept on its cohomology space.  A common eigenbasis refines
each arrow corridor through the eigenspaces of the family (sparse kernels of
the shifted operators), a stage losing dimension being a nonzero bracket;
matched to the arrows, it yields a presentation whose character image holds
the family (``realize_in_image`` asserts that and returns the presentation;
a class's characters are read from its ``hom``).  A span grows by one step
(``_extensions``), a diagonalizable class of its centralizer outside it: the
maximality test asks for one, the brute force of ``verify`` takes each.
Vectors, eigenbasis blocks and linear systems are sparse ``{index: coeff}``
maps, and the arrow images of chi are path-algebra elements, sparse
``{Path: coeff}`` maps.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .fields import PrimeField
from .hochschild import (
    ClassSpan,
    CohomologyClass,
    CohomologySpace,
    Derivation,
)
from .homotopy import (
    GroupPresentation,
    UNKNOWN,
    YES,
    NO,
    homotopy_pairs,
    weight_of_path,
)
from .linalg import (
    _combination,
    _Echelon,
    minimal_polynomial,
    nullspace,
    roots_in_field,
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

    @classmethod
    def natural(cls, space: CohomologySpace, tree: SpanningTree) -> "Presentation":
        """The identity presentation: chi^-1 is chi and the kernel is the ideal."""
        pres = cls(space, identity_automorphism(space.algebra.quiver, space.field), tree)
        pres.kernel = space.algebra.ideal
        return pres

    @property
    def chi_inverse(self) -> Automorphism:
        """chi^-1, which chi remembers once inverted."""
        return self.chi.invert()

    @functools.cached_property
    def kernel(self) -> IdealData:
        kernel = self.chi_inverse.apply_to_ideal(self.algebra.ideal)
        ok, bad = kernel.is_admissible()
        assert ok, f"kernel of a presentation must be admissible: {bad}"
        return kernel

    @functools.cached_property
    def group(self) -> GroupPresentation:
        """The fundamental group of the kernel's homotopy relation."""
        return GroupPresentation(self.algebra.quiver, self.tree, homotopy_pairs(self.kernel))

    @functools.cached_property
    def hom(self) -> list[dict]:
        """Basis of the characters of ``group`` over the field, as arrow weights."""
        return self.group.characters(self.field)

    def image_of_path(self, p: Path) -> dict:
        """The sparse vector of the path's image in the reference algebra."""
        return self.algebra.vector_of(self.chi.apply_path(p))

    def arrow_images(self) -> list[dict]:
        """chi(a) for each arrow a, by name, as sparse vectors."""
        q = self.algebra.quiver
        return [self.image_of_path(q.arrow_path(name)) for name in q.arrow_names]

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
        if not self.group.check_weights(self.field, weights):
            raise ValueError("weights violate the tree normalization or a relator")
        f = self.field
        alg = self.algebra
        imgs = {}
        for name in alg.quiver.arrow_names:
            image: dict = {}
            for p, x in self.chi_inverse.images[name].items():
                f.add_multiple(image, f.mul(weight_of_path(f, weights, p), x), self.chi.apply_path(p))
            imgs[name] = alg.vector_of(image)
        return self.space.class_of(Derivation(alg, imgs))

    @functools.cached_property
    def _image(self) -> ClassSpan:
        span = self.space.span([self.embed_character(w) for w in self.hom])
        assert span.dim == len(self.hom), "character embedding lost rank"
        return span

    def character_image(self) -> ClassSpan:
        return self._image

    def __repr__(self):
        return f"Presentation(kernel {self.kernel!r})"


# ---------- diagonalizability ----------

def _block_columns(space: CohomologySpace, cls: CohomologyClass, block_key) -> list[dict]:
    """The representative on one arrow corridor, as sparse columns in block
    coordinates (position of each basis index within the block)."""
    idxs = space.algebra.blocks[block_key]
    position = {i: k for k, i in enumerate(idxs)}
    d = cls.representative()
    return [{position[i]: x for i, x in d.image_of_basis(j).items()} for j in idxs]


def _spectra(cls: CohomologyClass) -> tuple:
    """Per arrow corridor, up to the first that fails: key, columns, minimal
    polynomial, its sorted distinct roots in the field (None unless there
    are as many as its degree).  Decided once per class: the tuple is kept
    in the space's memo, keyed by the class (equal coordinates, equal key).
    """
    space = cls.space
    spectra = space._spectra.get(cls)
    if spectra is None:
        f = space.field
        out = []
        for key in space.algebra.blocks:
            columns = _block_columns(space, cls, key)
            mp = minimal_polynomial(f, columns)
            # squarefree and split exactly when it has deg mp distinct roots
            roots = roots_in_field(f, mp)
            if len(roots) != len(mp) - 1:
                roots = None
            out.append((key, columns, mp, roots))
            if roots is None:
                break
        spectra = space._spectra[cls] = tuple(out)
    return spectra


def diagonalizability_witness(cls: CohomologyClass):
    """None when diagonalizable; else the first arrow corridor whose minimal
    polynomial does not split into distinct roots, and that polynomial."""
    return next(((key, mp) for key, _, mp, roots in _spectra(cls) if roots is None), None)


def is_diagonalizable_class(cls: CohomologyClass) -> bool:
    """Is the class diagonalizable?  Decided once per class (``_spectra``)."""
    return all(roots is not None for *_, roots in _spectra(cls))


def is_diagonalizable_set(classes, presentation: Presentation | None = None) -> bool:
    """A family diagonal on the presentation's arrow images is; else every
    class is decided and every pair bracketed, so the answer does not depend
    on the hint.

    The arrow images certify exactly.  Let chi be the presentation, K its
    kernel, and D a unitary derivation with D(chi(a)) = l_a * chi(a) for
    every arrow a.  For a path p = a_n...a_1, chi(p) = chi(a_n)...chi(a_1),
    so by the Leibniz rule D(chi(p)) = (l_(a_1) + ... + l_(a_n)) * chi(p);
    D kills the idempotents, which chi fixes.  chi maps kQ/K isomorphically
    onto A = kQ/I, so the images of K's normal paths, the adapted basis, form
    a basis of A, and D is diagonal on it.  A family diagonal on one basis is
    diagonalizable and its representatives commute.  Conversely the arrows
    are normal paths of the admissible K, so a family diagonal on the
    adapted basis is diagonal on the arrow images.
    """
    classes = list(classes)
    if presentation is not None and _diagonal_on(classes, presentation.arrow_images()):
        return True
    return all(is_diagonalizable_class(c) for c in classes) and all(
        c.space.bracket(c, d).is_zero() for c, d in itertools.combinations(classes, 2)
    )


def common_eigenbasis(classes) -> dict[tuple[str, str], tuple]:
    """Simultaneous eigenbasis of a commuting diagonalizable family on each
    arrow corridor, ``{corridor: tuple of sparse vectors}``.

    Each class's spectrum on each arrow corridor (columns, minimal
    polynomial, roots) is read from the space's memo, so a class that
    ``is_diagonalizable_class`` has already decided costs no minimal
    polynomial here; the first class and block that does not split into
    distinct roots raises with the witness ``diagonalizability_witness``
    gives.  Then each block is refined through the eigenspaces of the
    canonical representatives; a stage that the next operator does not
    leave invariant means a nonzero bracket.
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
    for key, idxs in alg.blocks.items():
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
                        f.add_multiple(column, f.neg(lam), b)
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
    return blocks_out


def _diagonal_on(classes, vectors) -> bool:
    """Is every vector an eigenvector of every class?  On a basis, or on the
    arrow images of a presentation (``is_diagonalizable_set``), a certificate
    that the family is diagonalizable and commutes."""
    for cls in classes:
        d = cls.representative()
        f = d.algebra.field
        basis = d.algebra.basis
        for vec in vectors:
            i = min(vec)
            arrows = basis[i].arrows
            if len(arrows) == 1 == len(vec) and vec[i] == f.one:
                image = d.arrow_image(arrows[0])  # a unit arrow vector: D(a) is stored
            else:
                image = d.apply(vec)
            lam = f.div(image.get(i, f.zero), vec[i])
            if image != ({} if f.is_zero(lam) else {j: f.mul(lam, x) for j, x in vec.items()}):
                return False
    return True


# ---------- adapted presentations and realization ----------

def adapted_presentation(space: CohomologySpace, blocks: dict, tree: SpanningTree) -> Presentation:
    """A presentation whose arrow images are drawn from ``blocks[corridor]``,
    sparse vectors, for each arrow corridor.

    For each parallel class of arrows, the corridor's vectors are matched
    greedily (in deterministic order) so that their residues modulo the
    square radical make the arrow-level substitution invertible; such a
    matching always exists for a basis of the corridor.  ``Automorphism``
    rejects an image that leaves its arrow's corridor.
    """
    alg = space.algebra
    f = space.field
    q = alg.quiver
    images = {}
    for key, arrow_names in q.parallel_classes().items():
        idxs = alg.blocks[key]
        arrow_positions = [alg.index[q.arrow_path(n)] for n in arrow_names]
        candidates = sorted(blocks[key], key=lambda v: (min(v), tuple(v.get(i, f.zero) for i in idxs)))
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


def realize_in_image(classes, tree: SpanningTree) -> Presentation:
    """A presentation whose character image contains the commuting family.

    The presentation is adapted to a common eigenbasis, so each class is
    diagonal on its arrow images; the character image, cached on the
    presentation, is asserted to hold every class.  Raises
    :class:`NotDiagonalizableError` when the family is not simultaneously
    diagonalizable, and ``ValueError`` when it is empty.
    """
    classes = list(classes)
    blocks = common_eigenbasis(classes)
    pres = adapted_presentation(classes[0].space, blocks, tree)
    image = pres.character_image()
    assert all(image.contains(cls) for cls in classes), "character image misses a realized class"
    return pres


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


# the coefficients the maximality sweep tries over QQ, besides zero
_RATIONAL_GRID = tuple(map(Fraction, (1, -1, 2, -2, 3, -3, "1/2", "-1/2")))
_MAXDIAG_MAX_CANDIDATES = 20_000  # the classes the maximality sweep tries, at most


def _lines_within_limit(field, dim: int) -> bool:
    """Can one class per line sweep a space of this dimension?  Only over GF(p)."""
    return isinstance(field, PrimeField) and (field.p ** dim - 1) // (field.p - 1) <= _MAXDIAG_MAX_CANDIDATES


def _extensions(span: ClassSpan, cent: ClassSpan):
    """Yield ``(cls, line)`` for each diagonalizable class of the centralizer
    ``cent`` outside the span, ``line`` its monic multiple (first nonzero
    coordinate 1), which the spectrum memo keeps.  At most
    ``_MAXDIAG_MAX_CANDIDATES`` candidates, in a fixed order: over GF(p) one
    per line, the combinations of ``cent``'s basis with last nonzero
    coefficient 1, by its position, the first coordinate varying fastest;
    over QQ every nonzero combination with coefficients from the rational
    grid and zero, the last coordinate varying fastest.

    Inner derivations are scalar on every corridor block, and a commutator
    with a diagonalizable operator has zero diagonal on its eigenbasis.  So
    commuting diagonalizable classes have exactly commuting representatives,
    which share an eigenbasis: every class of ``span + line`` is diagonalizable.
    """
    space = span.space
    f = space.field
    vectors = [b.coords for b in cent.basis_classes()]
    if isinstance(f, PrimeField):
        combos = (
            (*reversed(lower), f.one)
            for top in range(len(vectors))
            for lower in itertools.product(f.elements(), repeat=top)
        )
    else:
        combos = itertools.product(_RATIONAL_GRID + (f.zero,), repeat=len(vectors))
    nonzero = ({t: v for t, v in enumerate(c) if not f.is_zero(v)} for c in combos)
    for coeffs in itertools.islice(filter(None, nonzero), _MAXDIAG_MAX_CANDIDATES):
        cls = CohomologyClass(space, _combination(f, vectors, coeffs))
        if span.contains(cls):
            continue
        line = cls.scale(f.inv(cls.coords[min(cls.coords)]))
        if is_diagonalizable_class(line):
            yield cls, line


def is_maximal_diagonalizable(span: ClassSpan, presentation: Presentation | None = None):
    """Three-valued maximality test for a diagonalizable span.

    Returns ``(verdict, witness)``: a definite "no" carries the first
    diagonalizable class extending the span (``_extensions``); "yes" is
    definite when the centralizer equals the span or the sweep covered every
    line of it (``_lines_within_limit``); otherwise "unknown".
    ``presentation`` is the hint handed to :func:`is_diagonalizable_set`.
    """
    space = span.space
    if not is_diagonalizable_set(span.basis_classes(), presentation):
        raise ValueError("span is not diagonalizable")
    cent = centralizer(space, span)
    assert cent.contains_span(span)
    if cent.dim == span.dim:
        return YES, None
    for cls, _line in _extensions(span, cent):
        return NO, cls
    return (YES if _lines_within_limit(space.field, cent.dim) else UNKNOWN), None
