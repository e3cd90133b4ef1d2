"""Homotopy of walks in a bound quiver and fundamental-group machinery.

The homotopy relation attached to an admissible ideal is generated by free
cancellation of inverse arrows, context closure, and the support pairs of
the reduced-basis elements (these are minimal relations, so it is enough to
pair up the paths appearing in one basis element).

With a spanning tree fixed, closed walks map onto words over the non-tree
arrows and the fundamental group gets the usual presentation: one generator
per non-tree arrow, one relator per homotopy pair.  On top of that sit:

* abelian invariants via the Smith normal form of the relator matrix,
* the space of additive characters (weight vectors on arrows, zero on the
  tree, equalized along each homotopy pair), computed as a nullspace,
* a sound three-valued decision procedure for homotopy of parallel walks:
  "no" is certified by the abelianization, "yes" by a replayable rewriting
  trace, and anything the bounded search cannot settle stays "unknown".
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .budgets import Budgets, DEFAULT_BUDGETS
from .fields import Field
from .linalg import _clean, nullspace, smith_normal_form
from .pathalg import IdealData
from .quiver import Path, Quiver, SpanningTree, Walk

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


def homotopy_pairs(ideal: IdealData) -> tuple[tuple[Path, Path], ...]:
    """All unordered support pairs of the ideal's reduced-basis elements."""
    q = ideal.quiver
    seen = set()
    out = []
    for elem in ideal.basis:
        support = q.sort_paths(elem)
        for i in range(len(support)):
            for j in range(i + 1, len(support)):
                u, v = support[i], support[j]
                key = (q.path_key(u), q.path_key(v))
                if key not in seen:
                    seen.add(key)
                    out.append((u, v))
    return tuple(out)


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
    conjugate of a relator or of its inverse, once, in relator order.
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
        words: dict[Word, None] = {}
        for r in self.relators:
            c = _cyclic_reduce(r)
            for word in (c, _invert_word(c)):
                for i in range(len(word)):
                    words.setdefault(word[i:] + word[:i])
        self.symmetrized = tuple(words)

    def word_of_walk(self, walk: Walk) -> Word:
        return _free_reduce(eps * self._gen_index[n] for n, eps in walk.steps if n in self._gen_index)

    def word_of_path(self, path: Path) -> Word:
        """A path's letters are all positive, so there is nothing to reduce."""
        return tuple(self._gen_index[n] for n in path.arrows if n in self._gen_index)

    def word_of_pair(self, u: Path, v: Path) -> Word:
        """The word of the closed walk along ``u`` and back along ``v``."""
        if u.source != v.source or u.target != v.target:
            raise ValueError("homotopy pair is not parallel")
        return _free_reduce(self.word_of_path(u) + _invert_word(self.word_of_path(v)))

    def exponent_vector(self, word: Word) -> tuple[int, ...]:
        vec = [0] * len(self.generators)
        for x in word:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(vec)

    def relator_matrix(self) -> list[list[int]]:
        return [list(self.exponent_vector(r)) for r in self.relators]

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


def pi1_presentation(quiver: Quiver, tree: SpanningTree, pairs) -> GroupPresentation:
    return GroupPresentation(quiver, tree, pairs)


@dataclass(frozen=True)
class AbelianInvariants:
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
    g = len(presentation.generators)
    rows = presentation.relator_matrix()
    if not rows:
        return AbelianInvariants((), g)
    d, _, _ = smith_normal_form(rows)
    torsion = tuple(x for x in d if x > 1)
    return AbelianInvariants(torsion, g - len(d))


class HomSpace:
    """Characters of the fundamental group as tree-normalized arrow weights."""

    def __init__(self, quiver: Quiver, tree: SpanningTree, pairs, field: Field):
        self.quiver = quiver
        self.tree = tree
        self.field = field
        self.pairs = tuple(pairs)
        self.arrow_order = quiver.arrow_names
        idx = {n: i for i, n in enumerate(self.arrow_order)}
        # sparse rows: each tree arrow weighs zero, each pair balances
        rows = [{idx[n]: field.one} for n in tree.arrow_names]
        for u, v in pairs:
            count = Counter(u.arrows)
            count.subtract(v.arrows)
            rows.append(_clean(field, {idx[n]: c for n, c in count.items()}))
        self.basis_vectors = nullspace(field, len(self.arrow_order), rows)
        self.basis = [{self.arrow_order[i]: vec[i] for i in sorted(vec)} for vec in self.basis_vectors]

    @property
    def dim(self) -> int:
        return len(self.basis_vectors)

    def weights_from_vector(self, vec: dict) -> dict[str, object]:
        """Arrow weights of a sparse vector ``{arrow position: weight}``."""
        return {self.arrow_order[i]: c for i, c in vec.items()}

    def check_weights(self, weights: dict) -> bool:
        """Do these arrow weights satisfy tree-normalization and all pairs?"""
        f = self.field
        w = {n: f.coerce(weights.get(n, f.zero)) for n in self.arrow_order}
        for n in self.tree.arrow_names:
            if not f.is_zero(w[n]):
                return False
        for u, v in self.pairs:
            su = f.sum(w[a] for a in u.arrows)
            sv = f.sum(w[a] for a in v.arrows)
            if su != sv:
                return False
        return True


def hom_space(quiver: Quiver, tree: SpanningTree, pairs, field: Field) -> HomSpace:
    return HomSpace(quiver, tree, pairs, field)


def weight_of_walk(field: Field, weights: dict, walk: Walk):
    """Signed sum of arrow weights along a walk."""
    acc = field.zero
    for name, eps in walk.steps:
        w = field.coerce(weights.get(name, field.zero))
        acc = field.add(acc, w if eps == 1 else field.neg(w))
    return acc


def weight_of_path(field: Field, weights: dict, path: Path):
    acc = field.zero
    for name in path.arrows:
        acc = field.add(acc, field.coerce(weights.get(name, field.zero)))
    return acc


# ---------- the three-valued decision procedure ----------

@dataclass(frozen=True)
class RewriteTrace:
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


@dataclass(frozen=True)
class AbelianCertificate:
    """Certificate for "no": the image misses the relator row span."""

    exponents: tuple[int, ...]
    transformed: tuple[int, ...]
    position: int
    modulus: int  # 0 means the coordinate had to vanish

    def verify(self, presentation: GroupPresentation, word: Word) -> bool:
        if presentation.exponent_vector(word) != self.exponents:
            return False
        rows = presentation.relator_matrix()
        if not rows:
            y = self.exponents
        else:
            _, _, v = smith_normal_form(rows)
            g = len(self.exponents)
            y = tuple(
                sum(self.exponents[i] * v[i][j] for i in range(g)) for j in range(g)
            )
        if y != self.transformed:
            return False
        val = y[self.position]
        return val != 0 if self.modulus == 0 else val % self.modulus != 0


@dataclass(frozen=True)
class Decision:
    verdict: str  # yes / no / unknown
    certificate: object = None


class HomotopyOracle:
    """Decides homotopy of parallel walks under one admissible ideal.

    The oracle reads the ideal only through its quiver and its homotopy
    pairs (``pairs``, when the caller already has them), so it decides for
    every ideal with the same pairs; ``ideal`` is the one it was built from.
    """

    def __init__(
        self,
        ideal: IdealData,
        tree: SpanningTree | None = None,
        budgets: Budgets = DEFAULT_BUDGETS,
        pairs: tuple[tuple[Path, Path], ...] | None = None,
    ):
        self.ideal = ideal
        self.quiver = ideal.quiver
        self.tree = tree or self.quiver.spanning_tree(self.quiver.vertices[0])
        self.pairs = homotopy_pairs(ideal) if pairs is None else pairs
        self.presentation = GroupPresentation(self.quiver, self.tree, self.pairs)
        self.budgets = budgets
        rows = self.presentation.relator_matrix()
        if rows:
            self._snf = smith_normal_form(rows)
        else:
            self._snf = ((), (), ())
        self._decisions: dict[Word, Decision] = {}
        self._pair_words: dict[tuple[Path, Path], Word] = {}

    # -- the abelian "no" side --

    def _abelian_reject(self, word: Word) -> AbelianCertificate | None:
        g = len(self.presentation.generators)
        x = self.presentation.exponent_vector(word)
        d, _, v = self._snf
        if not self.presentation.relators:
            y = x
        else:
            y = tuple(sum(x[i] * v[i][j] for i in range(g)) for j in range(g))
        for j in range(g):
            if j < len(d):
                if y[j] % d[j] != 0:
                    return AbelianCertificate(x, y, j, d[j])
            else:
                if y[j] != 0:
                    return AbelianCertificate(x, y, j, 0)
        return None

    # -- the rewriting "yes" side --

    def _search_trivial(self, word: Word) -> RewriteTrace | None:
        if word == ():
            return RewriteTrace((), ())
        rels = self.presentation.symmetrized
        if not rels:
            return None
        max_len = self.budgets.word_max_len
        max_nodes = self.budgets.search_max_nodes
        parents: dict[Word, tuple[Word, int, Word]] = {word: None}
        queue = deque([word])
        while queue and len(parents) < max_nodes:
            w = queue.popleft()
            for rel in rels:
                for pos in range(len(w) + 1):
                    nw = _free_reduce(w[:pos] + rel + w[pos:])
                    if len(nw) > max_len or nw in parents:
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

    def decide_closed_word(self, word: Word) -> Decision:
        """Three-valued triviality of a closed word, memoized per word."""
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

    def decide_walks(self, u: Walk, v: Walk) -> Decision:
        if u.source != v.source or u.target != v.target:
            raise ValueError("walks are not parallel")
        closed = self.quiver.concat_walks(v.inverse(), u)
        return self.decide_closed_word(self.presentation.word_of_walk(closed))

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
        for u, v in self.pairs:
            d = other.decide_paths(u, v)
            if d.verdict == NO:
                return Decision(NO, ((u, v), "second"))
            if d.verdict == UNKNOWN:
                sawunknown = True
        for u, v in other.pairs:
            d = self.decide_paths(u, v)
            if d.verdict == NO:
                return Decision(NO, ((u, v), "first"))
            if d.verdict == UNKNOWN:
                sawunknown = True
        return Decision(UNKNOWN if sawunknown else YES)


def decide_homotopic(u: Walk, v: Walk, ideal: IdealData, budgets: Budgets = DEFAULT_BUDGETS) -> Decision:
    return HomotopyOracle(ideal, budgets=budgets).decide_walks(u, v)


def relations_equal(first: IdealData, second: IdealData, budgets: Budgets = DEFAULT_BUDGETS) -> Decision:
    """Do two admissible ideals generate the same homotopy relation?"""
    return HomotopyOracle(first, budgets=budgets).same_relation(HomotopyOracle(second, budgets=budgets))
