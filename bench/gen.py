"""Seeded generator of bquiver documents for the benchmark workloads.

Everything here is a pure function of the workload name and the seed: the
random sources are ``random.Random`` objects seeded with strings (hashed
with SHA-512, so ``PYTHONHASHSEED`` has no effect), and no set or dict
iteration order reaches the output.  The generator does not import bquiver;
the documents are plain text in the input language.

Each workload has three parts:

* named instances: K4 and K5, the golden families of the test suite and the
  known ``verify`` failures;
* a catalogue of random instances drawn from a fixed seed;
* fresh random instances drawn from the run seed, kept small.

The first two are the same for every seed and carry most of a pass's time.
The cost of one instance is erratic: renaming its arrows alone moved single
``gamma`` calls by up to 30x (it changes the path order, so the reduced
bases and the sweep order), and redrawing coefficients by up to 18x.  A
workload drawn wholly from the run seed therefore varied by 0.2 to 0.6 of
its median pass time across seeds; the fixed part keeps that spread small
while the fresh part still gives every seed inputs of its own.

The grammar needs at least one relation per ideal, so a hereditary instance
(the zero ideal) is written as ``0*<length-2 path>``, which parses to the
zero ideal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

PRIMES = (2, 3, 5, 7, 11, 13)
QQ_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3), Fraction(1, 2))
ARROW_NAMES = "abcdefghijklmnopqrstuvwxyz"
SPAN_CAP = 30  # bound on p ** dim HH^1 for random verify-gfp instances
GAMMA_SEARCH_NODES = 2000  # word-search budget written into gamma-oracle documents


@dataclass(frozen=True)
class Instance:
    """One document: a field, an acyclic quiver and one ideal ``I``.

    Vertices are ``1..n`` and every arrow goes from a lower to a higher
    vertex.  A relation is a tuple of terms ``(coefficient, path)`` with the
    path in traversal order; no relations means the zero ideal.
    """

    name: str
    p: int  # 0 for QQ, else the prime
    n: int
    arrows: tuple  # ((name, source, target), ...)
    relations: tuple = ()
    budgets: tuple = ()  # ((key, value), ...)
    tree: tuple = ()  # spanning-tree arrows; empty for the program's default

    @property
    def field_name(self) -> str:
        return "QQ" if self.p == 0 else f"GF({self.p})"

    @property
    def hereditary(self) -> bool:
        return not self.relations

    def paths(self) -> list[tuple]:
        """Every nontrivial path as a tuple of arrow names in traversal order."""
        out = []
        frontier = [(a[0],) for a in self.arrows]
        ends = {a[0]: a[2] for a in self.arrows}
        while frontier:
            out.extend(frontier)
            frontier = [p + (a[0],) for p in frontier for a in self.arrows if a[1] == ends[p[-1]]]
        return out

    def path_count(self, s: int, t: int) -> int:
        """Number of paths from vertex s to vertex t (the trivial one if s == t)."""
        counts = {s: 1}
        for v in range(s + 1, t + 1):
            counts[v] = sum(counts.get(a[1], 0) for a in self.arrows if a[2] == v)
        return counts.get(t, 0)

    def happel_dim(self) -> int:
        """Happel's dim HH^1 of the path algebra: 1 - |Q0| + sum_a #paths(s(a) -> t(a)).

        It also bounds dim HH^1 of every admissible quotient: a derivation
        vanishing on the idempotents is fixed by its arrow images, and the
        idempotents give n - 1 independent inner ones among those.
        """
        return 1 - self.n + sum(self.path_count(a[1], a[2]) for a in self.arrows)

    def algebra_dim_hereditary(self) -> int:
        """Dimension of the path algebra: all paths, trivial ones included."""
        return self.n + len(self.paths())

    def bypass_count(self) -> int:
        return sum(self.path_count(a[1], a[2]) - 1 for a in self.arrows)

    def text(self) -> str:
        lines = [f"# {self.name}", f"field {self.field_name}", "quiver {"]
        lines.append("  vertices " + ", ".join(str(v) for v in range(1, self.n + 1)))
        lines += [f"  arrow {name}: {s} -> {t}" for name, s, t in self.arrows]
        lines.append("}")
        if self.relations:
            lines.append("ideal I { " + " ; ".join(relation_text(r) for r in self.relations) + " }")
        else:
            two = next(p for p in self.paths() if len(p) == 2)
            lines.append("ideal I { 0*" + show(two) + " }")
        if self.tree:
            lines.append("tree { " + ", ".join(self.tree) + " }")
        lines += [f"budget {key} = {value}" for key, value in self.budgets]
        return "\n".join(lines) + "\n"


def show(path: tuple) -> str:
    """Right-to-left notation: traversal (a, c) is written ``c*a``."""
    return "*".join(reversed(path))


def relation_text(terms) -> str:
    out = []
    for i, (c, path) in enumerate(terms):
        c = Fraction(c)
        body = show(path) if abs(c) == 1 else f"{abs(c)}*{show(path)}"
        if i == 0:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out)


def rel(*terms) -> tuple:
    """A relation from ``(coefficient, "c*a")`` terms in written notation."""
    return tuple((c, tuple(reversed(word.split("*")))) for c, word in terms)


# ---------- random pieces ----------

def random_arrows(rng: random.Random, n: int, extra: int, parallel: int = 0) -> tuple:
    """A spanning tree of random back-edges, then ``extra`` forward arrows
    between pairs not joined yet, then ``parallel`` copies of existing arrows;
    named a, b, c, ... in creation order."""
    pairs = [(rng.randrange(1, i), i) for i in range(2, n + 1)]
    free = [(s, t) for s in range(1, n) for t in range(s + 1, n + 1) if (s, t) not in pairs]
    for _ in range(min(extra, len(free))):
        pairs.append(free.pop(rng.randrange(len(free))))
    for _ in range(parallel):
        pairs.append(rng.choice(pairs))
    return tuple((ARROW_NAMES[k], s, t) for k, (s, t) in enumerate(pairs))


def random_coeff(rng: random.Random, p: int):
    return rng.choice(QQ_COEFFS) if p == 0 else rng.randrange(1, p)


def corridors(inst: Instance) -> dict:
    """Paths of length >= 2 grouped by (source, target)."""
    ends = {a[0]: (a[1], a[2]) for a in inst.arrows}
    out: dict = {}
    for path in inst.paths():
        if len(path) >= 2:
            out.setdefault((ends[path[0]][0], ends[path[-1]][1]), []).append(path)
    return out


def random_relations(rng: random.Random, inst: Instance, count: int, binomial: bool) -> tuple:
    """``count`` monomial or binomial relations inside random corridors;
    with ``binomial`` the first one joins two parallel paths."""
    by_ends = corridors(inst)
    keys = sorted(by_ends)
    wide = [k for k in keys if len(by_ends[k]) > 1]
    rels = []
    for i in range(count):
        first = binomial and i == 0
        paths = by_ends[rng.choice(wide if first else keys)]
        p1 = rng.choice(paths)
        terms = [(random_coeff(rng, inst.p), p1)]
        if len(paths) > 1 and (first or rng.random() < 0.6):
            p2 = rng.choice([q for q in paths if q != p1])
            terms.append((random_coeff(rng, inst.p), p2))
        rels.append(tuple(terms))
    return tuple(rels)


def random_instance(rng, name, p, n, extra, relations, max_paths, parallel=0, min_bypasses=0,
                    binomial=False) -> Instance:
    """Draw quivers until one fits: a length-2 path exists, at most
    ``max_paths`` nontrivial paths, at least ``min_bypasses`` bypasses and,
    with ``binomial``, a corridor holding two paths of length >= 2.
    ``p`` is the field, or a function of (rng, quiver) choosing it."""
    for _ in range(10_000):
        inst = Instance(name, 0, n, random_arrows(rng, n, extra, parallel))
        paths = inst.paths()
        if len(paths) > max_paths or inst.bypass_count() < min_bypasses:
            continue
        if not any(len(q) == 2 for q in paths):
            continue
        if binomial and not any(len(v) > 1 for v in corridors(inst).values()):
            continue
        inst = replace(inst, p=p(rng, inst) if callable(p) else p)
        return replace(inst, relations=random_relations(rng, inst, relations, binomial) if relations else ())
    raise ValueError(f"no quiver on {n} vertices fits slot {name}")


# ---------- fixed families ----------

def complete_dag(n: int) -> Instance:
    """K_n: one arrow i -> j for every i < j, with the monomial chain
    relations a_{i+1,i+2} * a_{i,i+1}."""
    arrows = []
    names = {}
    for s in range(1, n + 1):
        for t in range(s + 1, n + 1):
            names[(s, t)] = ARROW_NAMES[len(arrows)]
            arrows.append((names[(s, t)], s, t))
    rels = tuple(((1, (names[(i, i + 1)], names[(i + 1, i + 2)])),) for i in range(1, n - 1))
    return Instance(f"K{n}", 0, n, tuple(arrows), rels)


PARALLEL_PAIR = (("a", 1, 2), ("b", 1, 2), ("c", 2, 3))
TWO_TRIANGLES = (("b", 1, 2), ("a", 1, 3), ("c", 2, 3), ("e", 3, 4), ("d", 3, 5), ("f", 4, 5))
TWO_TRIANGLES_TREE = ("b", "c", "e", "f")


def golden(p: int) -> list[Instance]:
    """The golden families of the test suite over GF(p)."""
    return [
        Instance("parallel_pair_diff", p, 3, PARALLEL_PAIR, (rel((1, "c*a"), (-1, "c*b")),), tree=("a", "c")),
        Instance("parallel_pair_mono", p, 3, PARALLEL_PAIR, (rel((1, "c*a")),), tree=("a", "c")),
        Instance(
            "two_triangles_full", p, 5, TWO_TRIANGLES,
            (rel((1, "d*a")), rel((1, "f*e*c*b")), rel((1, "f*e*a"), (1, "d*c*b"))), tree=TWO_TRIANGLES_TREE,
        ),
        Instance(
            "two_triangles_pair", p, 5, TWO_TRIANGLES,
            (rel((1, "d*a")), rel((1, "f*e*a"), (1, "d*c*b"))), tree=TWO_TRIANGLES_TREE,
        ),
        Instance(
            "commutative_square", p, 4, (("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)),
            (rel((1, "c*a"), (-1, "d*b")),),
        ),
    ]


def known_failures() -> list[Instance]:
    """Random instances on which ``verify`` reports failed checks: seed-7
    #7, #23 and #26 of the test-suite generators (``random.Random(7)``,
    0-based) and seed-11 #62, the last two moved from QQ to GF(7)."""
    return [
        Instance(
            "seed7_07", 2, 7,
            (("a", 1, 2), ("b", 2, 3), ("c", 2, 4), ("d", 4, 5), ("e", 3, 6), ("f", 1, 7),
             ("g", 3, 5), ("h", 5, 6), ("i", 4, 5)),
            (rel((1, "d*c*a"), (1, "i*c*a")),),
        ),
        Instance(
            "seed7_23", 5, 5, (("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 5), ("e", 3, 5)),
            (rel((2, "c*a")), rel((4, "d*b"), (3, "e*b"))),
        ),
        Instance(
            "seed7_26", 7, 3, (("a", 1, 2), ("b", 1, 3), ("c", 2, 3), ("d", 2, 3), ("e", 2, 3)),
            (rel((2, "c*a"), (Fraction(1, 2), "e*a")), rel((2, "d*a"), (3, "e*a"))),
        ),
        Instance(
            "seed11_62", 7, 3, (("a", 1, 2), ("b", 2, 3), ("c", 2, 3), ("e", 2, 3), ("d", 1, 3)),
            (rel((1, "c*a"), (Fraction(-1, 2), "b*a")), rel((1, "e*a"), (1, "b*a"))),
        ),
    ]


# ---------- the workloads ----------

def allowed_prime(rng: random.Random, inst: Instance) -> int:
    """A prime p with p ** min(h, 4) <= SPAN_CAP, h = Happel's number of the
    quiver (a bound on dim HH^1): the brute-force span sweep of ``verify``
    and the maxdiag sweeps grow like p ** dim HH^1."""
    h = min(max(inst.happel_dim(), 1), 4)
    return rng.choice([p for p in PRIMES if p ** h <= SPAN_CAP])


def lie_qq_random(rng, k: int, max_paths: int) -> Instance:
    """Slot k: 3..7 vertices, 0..2 extra arrows, alternately hereditary and
    bound with one or two relations."""
    rels = 0 if k % 2 == 0 else 1 + (k // 2) % 2
    return random_instance(rng, f"lie{k:02d}", 0, 3 + k % 5, (k // 5) % 3, rels, max_paths)


def verify_gfp_random(rng, k: int, max_paths: int) -> Instance:
    """Slot k: 3..6 vertices, 1..3 extra arrows, no parallel arrows, one or
    two relations, at least one bypass."""
    return random_instance(
        rng, f"ver{k:02d}", allowed_prime, 3 + k % 4, 1 + (k // 4) % 3, 1 + k % 2, max_paths, min_bypasses=1
    )


def gamma_oracle_random(rng, k: int, max_paths: int) -> Instance:
    """Slot k: 3..5 vertices with one or two parallel arrows, at least three
    bypasses, a binomial relation, over QQ, GF(2), GF(3) or GF(5)."""
    inst = random_instance(
        rng, f"gam{k:02d}", (0, 2, 3, 5)[k % 4], 3 + k % 3, 1, 1 + k % 2, max_paths,
        parallel=1 + (k // 3) % 2, min_bypasses=3, binomial=True,
    )
    return replace(inst, budgets=(("search_max_nodes", GAMMA_SEARCH_NODES),))


@dataclass(frozen=True)
class Workload:
    commands: tuple
    fixed: tuple  # instances shared by every seed
    draw: object  # (rng, slot, max_paths) -> Instance
    catalogue: int  # slots 0.. drawn from the fixed seed
    catalogue_paths: int
    fresh: tuple  # slots drawn again from the run seed: small shapes only
    fresh_paths: int
    skip: tuple = ()  # (instance name, command) pairs left out

    def instances(self, name: str, seed: int) -> list[Instance]:
        rng = random.Random(f"{name}:catalogue")
        catalogue = [self.draw(rng, k, self.catalogue_paths) for k in range(self.catalogue)]
        rng = random.Random(f"{name}:{seed}")
        fresh = [replace(self.draw(rng, k, self.fresh_paths), name=f"fresh{j}") for j, k in enumerate(self.fresh)]
        return list(self.fixed) + catalogue + fresh


WORKLOADS = {
    # the Fraction path through linalg, hochschild and presentations; K5
    # maxdiag alone takes 10-14 s, so one call would fill half a run and
    # leave no passes to take a median over
    "lie-qq": Workload(
        ("pi1", "homk", "hh1", "theta", "maxdiag"),
        (complete_dag(4), complete_dag(5)),
        lie_qq_random, catalogue=28, catalogue_paths=20, fresh=(0, 1, 2, 6), fresh_paths=10,
        skip=(("K5", "maxdiag"),),
    ),
    # many small mod-p matrices plus the brute-force span sweep
    "verify-gfp": Workload(
        ("gamma", "verify"),
        tuple(inst for p in PRIMES for inst in golden(p)) + tuple(known_failures()),
        verify_gfp_random, catalogue=16, catalogue_paths=20, fresh=(0, 4, 8, 12), fresh_paths=10,
    ),
    # the homotopy oracle: word searches under an explicit node budget
    "gamma-oracle": Workload(
        ("gamma",),
        (),
        gamma_oracle_random, catalogue=80, catalogue_paths=20, fresh=(0, 1, 8, 13), fresh_paths=12,
    ),
}
