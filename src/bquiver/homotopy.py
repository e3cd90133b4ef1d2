"""Homotopy of parallel paths in a bound quiver and fundamental-group machinery.

The homotopy relation attached to an admissible ideal is generated by free
cancellation of inverse arrows, context closure, and the support pairs of
the reduced-basis elements (these are minimal relations, so it is enough to
pair up the paths appearing in one basis element).

With a spanning tree fixed, a pair of parallel paths maps onto a closed
word over the non-tree arrows and the fundamental group gets the usual
presentation: one generator per non-tree arrow, one relator per homotopy
pair.  The relator matrix (one exponent row per relator, one column per
generator) is the one linear form of the relation:

* the additive characters Hom(pi_1, k+) = Hom(pi_1^ab, k) are its kernel
  over the field k, read as arrow weights that vanish on the tree,
* its Smith normal form, computed once per presentation, gives the abelian
  invariants and certifies the "no" answers of
* a sound three-valued decision procedure for homotopy of parallel paths:
  "no" is certified by the abelianization, "yes" by the congruence closure
  of the homotopy pairs (Nelson & Oppen), whose merge log replays, or else
  by a word search, whose relator insertions replay.

The closure is a union-find over the nontrivial paths, seeded with the
homotopy pairs and closed under two rules that hold in the fundamental
groupoid: add, or cut, one arrow at the same end of two joined paths.  It
never leaves the positive paths, so it misses homotopies through an inverse
arrow; the search, breadth first over closed words, finds those that a few
relator insertions prove, in at most ``search_max_nodes`` words.  Every
certificate replays with one call, ``certificate.replay(presentation)``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import deque
from typing import NamedTuple

from .fields import Field
from .linalg import _clean, nullspace, smith_normal_form
from .pathalg import IdealData
from .quiver import Path, Quiver, SpanningTree

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


def homotopy_pairs(ideal: IdealData) -> tuple[tuple[Path, Path], ...]:
    """All unordered support pairs of the ideal's reduced-basis elements,
    each once, in order of first appearance."""
    q = ideal.quiver
    pairs = (pair for elem in ideal.basis for pair in itertools.combinations(q.sort_paths(elem), 2))
    return tuple(dict.fromkeys(pairs))


Word = tuple[int, ...]  # signed 1-based generator indices, freely reduced


def _free_reduce(letters) -> Word:
    stack = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def _invert_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def _cyclic_reduce(w: Word) -> Word:
    """The freely reduced ``w`` with its mutually inverse end letters cut."""
    i, j = 0, len(w)
    while j - i > 1 and w[i] == -w[j - 1]:
        i, j = i + 1, j - 1
    return w[i:j]


class GroupPresentation:
    """Spanning-tree presentation of the fundamental group at the base vertex,
    with the homotopy pairs it was built from (``pairs``).

    ``symmetrized`` lists the words the word search may insert: every
    rotation of the cyclically reduced form of each relator and of its
    inverse, each a conjugate of a relator or of its inverse, once, in
    relator order.  It and the Smith form are built on first use.
    """

    def __init__(self, quiver: Quiver, tree: SpanningTree, pairs):
        self.quiver = quiver
        self.tree = tree
        self.base = tree.base
        self.generators = tuple(n for n in quiver.arrow_names if not tree.contains(n))
        self._gen_index = {n: i + 1 for i, n in enumerate(self.generators)}
        self.pairs = tuple(pairs)
        self.relators = tuple(w for w in (self.word_of_pair(u, v) for u, v in self.pairs) if w)

    @functools.cached_property
    def symmetrized(self) -> tuple[Word, ...]:
        words: dict[Word, None] = {}
        for r in self.relators:
            c = _cyclic_reduce(r)
            for word in (c, _invert_word(c)):
                for i in range(len(word)):
                    words.setdefault(word[i:] + word[:i])
        return tuple(words)

    def word_of_path(self, path: Path) -> Word:
        """A path's letters are all positive, so there is nothing to reduce."""
        return tuple(self._gen_index[n] for n in path.arrows if n in self._gen_index)

    def word_of_pair(self, u: Path, v: Path) -> Word:
        """The closed word along ``u`` and back along ``v``."""
        if u.source != v.source or u.target != v.target:
            raise ValueError("homotopy pair is not parallel")
        return _free_reduce(self.word_of_path(u) + _invert_word(self.word_of_path(v)))

    def exponent_vector(self, word: Word) -> tuple[int, ...]:
        vec = [0] * len(self.generators)
        for x in word:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(vec)

    @functools.cached_property
    def relator_matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.exponent_vector(r) for r in self.relators)

    @functools.cached_property
    def smith(self) -> tuple[tuple[int, ...], tuple]:
        """``(d, v)`` of the relator matrix (see ``smith_normal_form``);
        with no relator, ``d`` is empty and ``v`` the identity."""
        if self.relators:
            return smith_normal_form(self.relator_matrix)
        g = len(self.generators)
        return (), tuple(tuple(int(i == j) for j in range(g)) for i in range(g))

    def smith_coordinates(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """``x * v``: an exponent vector in the Smith basis, where it lies in
        the relator row span exactly when coordinate j is a multiple of
        ``d[j]`` and every coordinate past ``len(d)`` is zero."""
        return tuple(sum(map(operator.mul, x, column)) for column in self._smith_columns)

    @functools.cached_property
    def _smith_columns(self) -> tuple[tuple[int, ...], ...]:
        """The columns of ``smith``'s ``v``, transposed once."""
        return tuple(zip(*self.smith[1]))

    def characters(self, field: Field) -> list[dict]:
        """Basis of the characters over ``field`` as arrow weights
        ``{arrow: weight}``, zero on the tree: the canonical nullspace of the
        relator matrix, one generator per column."""
        rows = [_clean(field, dict(enumerate(r))) for r in self.relator_matrix]
        return [
            {self.generators[i]: x for i, x in sorted(vec.items())}
            for vec in nullspace(field, len(self.generators), rows)
        ]

    def check_weights(self, field: Field, weights: dict) -> bool:
        """Do these arrow weights vanish on the tree and kill every relator?"""
        w = {n: field.coerce(weights.get(n, field.zero)) for n in self.quiver.arrow_names}
        if not all(field.is_zero(w[n]) for n in self.tree.arrow_names):
            return False
        return all(
            field.is_zero(field.sum(field.mul(e, w[n]) for n, e in zip(self.generators, r) if e))
            for r in self.relator_matrix
        )

    def __repr__(self):
        rels = ", ".join(self.show_word(r) for r in self.relators) or "-"
        return f"<{', '.join(self.generators) or '1'} | {rels}>"

    def show_word(self, word: Word) -> str:
        return "*".join(self.generators[abs(x) - 1] + ("" if x > 0 else "^-1") for x in word) or "1"


class AbelianInvariants(NamedTuple):
    """Torsion factors (each >= 2, chained by divisibility) plus free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def abelian_invariants(presentation: GroupPresentation) -> AbelianInvariants:
    d = presentation.smith[0]
    return AbelianInvariants(tuple(x for x in d if x > 1), len(presentation.generators) - len(d))


def weight_of_path(field: Field, weights: dict, path: Path):
    acc = field.zero
    for name in path.arrows:
        acc = field.add(acc, field.coerce(weights.get(name, field.zero)))
    return acc


# ---------- the congruence closure ----------

Arrows = tuple[str, ...]  # a nontrivial path, by its arrows
Merge = tuple[Arrows, Arrows, tuple[Arrows, Arrows] | None]  # (x, y, via)


def _root(parent: dict, x: Arrows) -> Arrows:
    """The representative of ``x``'s class, halving the way up; ``parent``
    holds the paths that are no representative."""
    while x in parent:
        up = parent[x]
        if up in parent:
            parent[x] = up = parent[up]
        x = up
    return x


def _one_arrow_apart(a: tuple[Arrows, Arrows], b: tuple[Arrows, Arrows]) -> bool:
    """Is one pair of paths the other with the same arrow added at the same
    end of both paths (an addition, or a cut read backwards)?"""
    (x0, y0), (x1, y1) = sorted((a, b), key=lambda pair: len(pair[0]))
    return (x1[1:], y1[1:], x1[:1]) == (x0, y0, y1[:1]) or (x1[:-1], y1[:-1], x1[-1:]) == (x0, y0, y1[-1:])


def _replay(merges: tuple[Merge, ...], pairs) -> dict | None:
    """The union-find the merge log builds, or None when a merge breaks the
    rules: it joins a homotopy pair (``via`` is None), or ``via`` is a pair
    joined earlier and the merge adds or cuts one arrow at the same end of
    both its paths."""
    pairs = {(u.arrows, v.arrows) for u, v in pairs}
    parent: dict = {}
    for x, y, via in merges:
        if via is None:
            if (x, y) not in pairs and (y, x) not in pairs:
                return None
        elif _root(parent, via[0]) != _root(parent, via[1]) or not _one_arrow_apart(via, (x, y)):
            return None
        rx, ry = _root(parent, x), _root(parent, y)
        if rx != ry:
            parent[rx] = ry
    return parent


def _close(quiver: Quiver, pairs) -> tuple[dict, tuple[Merge, ...]]:
    """The congruence closure of the homotopy pairs: its union-find and the
    log of its merges, in order.  Each class keeps a member per arrow its
    paths start or end with, so that a merge cuts each common arrow once."""
    into: dict[str, list[str]] = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        into[a.target].append(a.name)
    parent: dict = {}
    ends: dict = {}  # representative -> {(end, arrow): member}
    log = []
    work: list[Merge] = [(u.arrows, v.arrows, None) for u, v in pairs]
    for x, y, via in work:  # the list grows as it is read
        rx, ry = _root(parent, x), _root(parent, y)
        if rx == ry:
            continue
        log.append((x, y, via))
        parent[rx] = ry
        for a in into[quiver.arrow_by_name[x[0]].source]:
            work.append(((a,) + x, (a,) + y, (x, y)))
        for a in quiver.outgoing(quiver.arrow_by_name[x[-1]].target):
            work.append((x + (a.name,), y + (a.name,), (x, y)))
        kept = ends.setdefault(ry, _ends(ry))
        for (end, a), p in (ends.pop(rx, None) or _ends(rx)).items():
            q = kept.setdefault((end, a), p)
            if q != p:
                cut = slice(1, None) if end == 0 else slice(None, -1)
                work.append((p[cut], q[cut], (p, q)))
    return parent, tuple(log)


def _ends(path: Arrows) -> dict:
    """A one-path class's member by the arrow at each end; a cut must leave a
    nontrivial path, and a path of one arrow is the only one in its class."""
    return {(0, path[0]): path, (-1, path[-1]): path} if len(path) > 1 else {}


# ---------- the three-valued decision procedure ----------

class ClosureProof(NamedTuple):
    """Certificate for "yes": a merge log of the closure that joins u and v."""

    u: Path
    v: Path
    merges: tuple[Merge, ...]

    def replay(self, presentation: GroupPresentation) -> bool:
        """Are u and v parallel, and do the merges, redone in a fresh
        union-find under every rule on the presentation's pairs, join them?"""
        if (self.u.source, self.u.target) != (self.v.source, self.v.target):
            return False
        parent = _replay(self.merges, presentation.pairs)
        return parent is not None and _root(parent, self.u.arrows) == _root(parent, self.v.arrows)


class RewriteTrace(NamedTuple):
    """Certificate for "yes" from the word search: relator insertions that
    take the closed word of u and v to the unit."""

    u: Path
    v: Path
    steps: tuple[tuple[int, Word], ...]  # (position, inserted relator word)

    def replay(self, presentation: GroupPresentation) -> bool:
        """Redo the insertions on the pair's word; each inserted word must be
        one of the presentation's symmetrized relators."""
        if (self.u.source, self.u.target) != (self.v.source, self.v.target):
            return False
        w = presentation.word_of_pair(self.u, self.v)
        for pos, rel in self.steps:
            if rel not in presentation.symmetrized or not 0 <= pos <= len(w):
                return False
            w = _free_reduce(w[:pos] + rel + w[pos:])
        return w == ()


class AbelianCertificate(NamedTuple):
    """Certificate for "no": the image of the pair's word misses the relator row span."""

    u: Path
    v: Path
    exponents: tuple[int, ...]
    transformed: tuple[int, ...]
    position: int
    modulus: int  # 0 means the coordinate had to vanish

    def replay(self, presentation: GroupPresentation) -> bool:
        """Recompute the Smith coordinates of the pair's word; the modulus
        must be the invariant factor at the position (0 past them), and the
        coordinate must not be a multiple of it."""
        if (self.u.source, self.u.target) != (self.v.source, self.v.target):
            return False
        if presentation.exponent_vector(presentation.word_of_pair(self.u, self.v)) != self.exponents:
            return False
        y = presentation.smith_coordinates(self.exponents)
        d, j = presentation.smith[0], self.position
        if y != self.transformed or not 0 <= j < len(y) or self.modulus != (d[j] if j < len(d) else 0):
            return False
        return y[j] != 0 if self.modulus == 0 else y[j] % self.modulus != 0


class Decision(NamedTuple):
    verdict: str  # yes / no / unknown
    certificate: object = None  # for "unknown", its cause


_WORD_MAX_LEN = 64  # the word search keeps no longer word
SEARCH_MAX_NODES = 100_000  # the default node limit, the one settable limit


class HomotopyOracle:
    """Decides homotopy of parallel paths under one admissible ideal.

    The oracle reads the ideal only through its quiver and its homotopy
    pairs (``pairs``, when the caller already has them), which its
    presentation keeps, so it decides for every ideal with the same pairs;
    ``ideal`` is the one it was built from.  Its congruence closure is built
    on first use; the word search, for a pair neither the closure nor the
    abelianization decides, keeps at most ``search_max_nodes`` words.
    """

    def __init__(
        self,
        ideal: IdealData,
        tree: SpanningTree | None = None,
        search_max_nodes: int = SEARCH_MAX_NODES,
        pairs: tuple[tuple[Path, Path], ...] | None = None,
    ):
        self.ideal = ideal
        self.quiver = ideal.quiver
        self.tree = tree or self.quiver.spanning_tree(self.quiver.vertices[0])
        self.presentation = GroupPresentation(self.quiver, self.tree, homotopy_pairs(ideal) if pairs is None else pairs)
        self.search_max_nodes = search_max_nodes
        self._decisions: dict[tuple[Path, Path], Decision] = {}

    @functools.cached_property
    def _closure(self) -> tuple[dict, tuple[Merge, ...]]:
        """The closure's union-find and merge log, the log checked once here."""
        pairs = self.presentation.pairs
        parent, merges = _close(self.quiver, pairs)
        assert _replay(merges, pairs) is not None
        return parent, merges

    def _abelian_reject(self, u: Path, v: Path, word: Word) -> AbelianCertificate | None:
        x = self.presentation.exponent_vector(word)
        y = self.presentation.smith_coordinates(x)
        d = self.presentation.smith[0]
        for j, yj in enumerate(y):
            modulus = d[j] if j < len(d) else 0
            if (yj % modulus if modulus else yj) != 0:
                return AbelianCertificate(u, v, x, y, j, modulus)
        return None

    def decide_paths(self, u: Path, v: Path) -> Decision:
        """Three-valued homotopy of two parallel paths, decided once per pair."""
        decision = self._decisions.get((u, v))
        if decision is None:
            decision = self._decisions[u, v] = self._decide(u, v)
        return decision

    def _search_trivial(self, u: Path, v: Path, word: Word) -> RewriteTrace | None:
        """Relator insertions that take the pair's word to the unit, breadth
        first, keeping at most ``search_max_nodes`` words of at most
        ``_WORD_MAX_LEN`` letters."""
        if word == ():
            return RewriteTrace(u, v, ())
        parents: dict[Word, tuple[Word, int, Word] | None] = {word: None}
        queue = deque([word])
        while queue and len(parents) < self.search_max_nodes:
            w = queue.popleft()
            for rel in self.presentation.symmetrized:
                for pos in range(len(w) + 1):
                    nw = _free_reduce(w[:pos] + rel + w[pos:])
                    if len(nw) > _WORD_MAX_LEN or nw in parents:
                        continue
                    parents[nw] = (w, pos, rel)
                    if nw == ():
                        steps = []
                        while parents[nw] is not None:
                            nw, p, r = parents[nw]
                            steps.append((p, r))
                        return RewriteTrace(u, v, tuple(reversed(steps)))
                    queue.append(nw)
        return None

    def _decide(self, u: Path, v: Path) -> Decision:
        if u.source != v.source or u.target != v.target:
            raise ValueError("homotopy pair is not parallel")
        parent, merges = self._closure
        if _root(parent, u.arrows) == _root(parent, v.arrows):
            return Decision(YES, ClosureProof(u, v, merges))
        word = self.presentation.word_of_pair(u, v)
        cert = self._abelian_reject(u, v, word)
        if cert is not None:
            return Decision(NO, cert)
        trace = self._search_trivial(u, v, word)
        if trace is not None:
            assert trace.replay(self.presentation)
            return Decision(YES, trace)
        cause = "the closure does not join the paths, the abelianization does not separate them"
        return Decision(UNKNOWN, f"{cause}, and the word search finds no proof in {self.search_max_nodes} words")

    def same_relation(self, other: "HomotopyOracle") -> Decision:
        """Do the two ideals generate the same homotopy relation?

        Yes iff every generating pair of each relation is homotopic under the
        other; a single certified "no" settles inequality, and carries the
        judging side ("first" or "second") and its certificate; otherwise unknown.
        """
        if self.quiver is not other.quiver:
            raise ValueError("ideals over different quivers")
        sawunknown = False
        for asker, judge, side in ((self, other, "second"), (other, self, "first")):
            for u, v in asker.presentation.pairs:
                d = judge.decide_paths(u, v)
                if d.verdict == NO:
                    return Decision(NO, (side, d.certificate))
                if d.verdict == UNKNOWN:
                    sawunknown = True
        return Decision(UNKNOWN if sawunknown else YES)
