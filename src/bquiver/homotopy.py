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
* a sound three-valued decision procedure for homotopy of parallel paths
  and triviality of closed words: "no" is certified by the abelianization,
  "yes" by a replayable rewriting trace, and what the search cannot settle
  in ``search_max_nodes`` nodes stays "unknown".
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
    """Spanning-tree presentation of the fundamental group at the base vertex.

    ``symmetrized`` lists the words a rewriting may insert: every rotation of
    the cyclically reduced form of each relator and of its inverse, each a
    conjugate of a relator or of its inverse, once, in relator order.  It
    and the Smith form are built on first use.
    """

    def __init__(self, quiver: Quiver, tree: SpanningTree, pairs):
        self.quiver = quiver
        self.tree = tree
        self.base = tree.base
        self.generators = tuple(n for n in quiver.arrow_names if not tree.contains(n))
        self._gen_index = {n: i + 1 for i, n in enumerate(self.generators)}
        relators = []
        for u, v in pairs:
            w = self.word_of_pair(u, v)
            if w:
                relators.append(w)
        self.relators = tuple(relators)

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
        if not word:
            return "1"
        parts = []
        for x in word:
            name = self.generators[abs(x) - 1]
            parts.append(name if x > 0 else f"{name}^-1")
        return "*".join(parts)


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


# ---------- the three-valued decision procedure ----------

class RewriteTrace(NamedTuple):
    """Replayable certificate for "yes": relator insertions down to the unit."""

    start: Word
    steps: tuple[tuple[int, Word], ...]  # (position, inserted relator word)

    def replay(self, presentation: GroupPresentation) -> bool:
        """Redo the insertions; each inserted word must be one of the
        presentation's symmetrized relators."""
        w = self.start
        for pos, rel in self.steps:
            if rel not in presentation.symmetrized or pos < 0 or pos > len(w):
                return False
            w = _free_reduce(w[:pos] + rel + w[pos:])
        return w == ()


class AbelianCertificate(NamedTuple):
    """Certificate for "no": the image misses the relator row span."""

    exponents: tuple[int, ...]
    transformed: tuple[int, ...]
    position: int
    modulus: int  # 0 means the coordinate had to vanish

    def verify(self, presentation: GroupPresentation, word: Word) -> bool:
        """Recompute the Smith coordinates of the word; the modulus must be
        the invariant factor at the position (0 past them), and the
        coordinate must not be a multiple of it."""
        if presentation.exponent_vector(word) != self.exponents:
            return False
        y = presentation.smith_coordinates(self.exponents)
        d, j = presentation.smith[0], self.position
        if y != self.transformed or not 0 <= j < len(y) or self.modulus != (d[j] if j < len(d) else 0):
            return False
        return y[j] != 0 if self.modulus == 0 else y[j] % self.modulus != 0


class Decision(NamedTuple):
    verdict: str  # yes / no / unknown
    certificate: object = None


_WORD_MAX_LEN = 64  # the rewriting search keeps no longer word
SEARCH_MAX_NODES = 100_000  # its default node limit, the one settable limit


class HomotopyOracle:
    """Decides homotopy of parallel paths, and triviality of closed words,
    under one admissible ideal.

    The oracle reads the ideal only through its quiver and its homotopy
    pairs (``pairs``, when the caller already has them), so it decides for
    every ideal with the same pairs; ``ideal`` is the one it was built from.
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
        self.pairs = homotopy_pairs(ideal) if pairs is None else pairs
        self.presentation = GroupPresentation(self.quiver, self.tree, self.pairs)
        self.search_max_nodes = search_max_nodes
        self._decisions: dict[Word, Decision] = {}
        self._pair_words: dict[tuple[Path, Path], Word] = {}

    # -- the abelian "no" side --

    def _abelian_reject(self, word: Word) -> AbelianCertificate | None:
        x = self.presentation.exponent_vector(word)
        y = self.presentation.smith_coordinates(x)
        d = self.presentation.smith[0]
        for j, yj in enumerate(y):
            modulus = d[j] if j < len(d) else 0
            if (yj % modulus if modulus else yj) != 0:
                return AbelianCertificate(x, y, j, modulus)
        return None

    # -- the rewriting "yes" side --

    def _search_trivial(self, word: Word) -> RewriteTrace | None:
        if word == ():
            return RewriteTrace((), ())
        rels = self.presentation.symmetrized
        if not rels:
            return None
        max_nodes = self.search_max_nodes
        parents: dict[Word, tuple[Word, int, Word]] = {word: None}
        queue = deque([word])
        while queue and len(parents) < max_nodes:
            w = queue.popleft()
            for rel in rels:
                for pos in range(len(w) + 1):
                    nw = _free_reduce(w[:pos] + rel + w[pos:])
                    if len(nw) > _WORD_MAX_LEN or nw in parents:
                        continue
                    parents[nw] = (w, pos, rel)
                    if nw == ():
                        steps = []
                        cur = nw
                        while parents[cur] is not None:
                            prev, p, r = parents[cur]
                            steps.append((p, r))
                            cur = prev
                        return RewriteTrace(word, tuple(reversed(steps)))
                    queue.append(nw)
        return None

    # -- public decisions --

    def decide_closed_word(self, word: tuple[int, ...]) -> Decision:
        """Three-valued triviality of a closed word, memoized per freely
        reduced word; a "yes" trace starts from that reduced word."""
        word = _free_reduce(word)
        decision = self._decisions.get(word)
        if decision is None:
            decision = self._decide(word)
            self._decisions[word] = decision
        return decision

    def _decide(self, word: Word) -> Decision:
        cert = self._abelian_reject(word)
        if cert is not None:
            return Decision(NO, cert)
        trace = self._search_trivial(word)
        if trace is not None:
            assert trace.replay(self.presentation)
            return Decision(YES, trace)
        return Decision(UNKNOWN)

    def decide_paths(self, u: Path, v: Path) -> Decision:
        """The decision on the pair's closed word, which is built once per pair."""
        word = self._pair_words.get((u, v))
        if word is None:
            word = self._pair_words[u, v] = self.presentation.word_of_pair(u, v)
        return self.decide_closed_word(word)

    def decide_arrow_path(self, arrow_name: str, path: Path) -> Decision:
        return self.decide_paths(self.quiver.arrow_path(arrow_name), path)

    def same_relation(self, other: "HomotopyOracle") -> Decision:
        """Do the two ideals generate the same homotopy relation?

        Yes iff every generating pair of each relation is homotopic under the
        other; a single certified "no" settles inequality; otherwise unknown.
        """
        if self.quiver is not other.quiver:
            raise ValueError("ideals over different quivers")
        sawunknown = False
        for pairs, judge, side in ((self.pairs, other, "second"), (other.pairs, self, "first")):
            for u, v in pairs:
                d = judge.decide_paths(u, v)
                if d.verdict == NO:
                    return Decision(NO, ((u, v), side))
                if d.verdict == UNKNOWN:
                    sawunknown = True
        return Decision(UNKNOWN if sawunknown else YES)
