"""Shared instance builders (the golden corpus and random desk-scale inputs)
and the dense references the tests compare against."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from bquiver import (
    GF,
    Derivation,
    IdealData,
    QQ,
    Quiver,
    dilatation,
    enumerate_bypasses,
    transvection_of,
)
from bquiver.quiver import _bfs_parents


def combine(field, *terms):
    """sum(c * x for (c, x) in terms) of sparse ``{Path: coeff}`` elements,
    coefficients coerced and zero entries dropped."""
    out = {}
    for c, x in terms:
        c = field.coerce(c)
        for p, y in x.items():
            out[p] = field.add(out.get(p, field.zero), field.mul(c, y))
    return {p: y for p, y in out.items() if not field.is_zero(y)}


def elem(quiver, field, *terms):
    """Build sum of (coeff, arrow-names-in-right-to-left-notation) terms."""
    return combine(field, *((coeff, {path_of(quiver, notation): field.one}) for coeff, notation in terms))


def path_of(quiver, notation):
    return quiver.path(tuple(reversed(notation.split("*"))))


# ---------- golden corpus ----------

def parallel_pair_quiver():
    """Two parallel arrows followed by a third arrow: 1 => 2 -> 3."""
    return Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")])


def parallel_pair(field):
    q = parallel_pair_quiver()
    ideal_mono = IdealData(q, field, [elem(q, field, (1, "c*a"))])
    ideal_diff = IdealData(q, field, [elem(q, field, (1, "c*a"), (-1, "c*b"))])
    tree = q.spanning_tree("1", preferred=["a", "c"])
    return q, ideal_mono, ideal_diff, tree


def kronecker_quiver():
    return Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])


def kronecker(field):
    q = kronecker_quiver()
    return q, IdealData(q, field, ()), q.spanning_tree("1")


def two_triangles_quiver():
    """Five vertices, two chained triangles with long-route shortcuts."""
    return Quiver(
        ["1", "2", "3", "4", "5"],
        [
            ("b", "1", "2"),
            ("a", "1", "3"),
            ("c", "2", "3"),
            ("e", "3", "4"),
            ("d", "3", "5"),
            ("f", "4", "5"),
        ],
    )


def two_triangles_full(field):
    """The three-relation ideal: shortcut products vanish, routes agree."""
    q = two_triangles_quiver()
    gens = [
        elem(q, field, (1, "d*a")),
        elem(q, field, (1, "f*e*c*b")),
        elem(q, field, (1, "f*e*a"), (1, "d*c*b")),
    ]
    tree = q.spanning_tree("1", preferred=["b", "c", "e", "f"])
    return q, IdealData(q, field, gens), tree


def two_triangles_pair(field):
    """The two-relation variant with its twisted partner ideal."""
    q = two_triangles_quiver()
    gens = [
        elem(q, field, (1, "d*a")),
        elem(q, field, (1, "f*e*a"), (1, "d*c*b")),
    ]
    twisted = [
        elem(q, field, (1, "d*a"), (1, "f*e*c*b")),
        elem(q, field, (1, "f*e*a"), (1, "d*c*b")),
    ]
    tree = q.spanning_tree("1", preferred=["b", "c", "e", "f"])
    return q, IdealData(q, field, gens), IdealData(q, field, twisted), tree


def two_triangles_twist(q, field):
    """a -> a + c*b composed with d -> d + f*e."""
    phi_a = transvection_of(q, field, [b for b in enumerate_bypasses(q) if b.arrow == "a"][0], 1)
    phi_d = transvection_of(q, field, [b for b in enumerate_bypasses(q) if b.arrow == "d"][0], 1)
    return phi_a.compose(phi_d)


def commutative_square(field, bound=True):
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"), ("d", "3", "4")],
    )
    if bound:
        ideal = IdealData(q, field, [elem(q, field, (1, "c*a"), (-1, "d*b"))])
    else:
        ideal = IdealData(q, field, ())
    return q, ideal, q.spanning_tree("1")


def bridge(field, with_w=False):
    """x, y leave S and u, v leave S2 for M1, M2; a, b reach T and c, d reach
    T2, under <a*x - b*y, c*x - d*y, a*u - b*v>.  In the groupoid
    u = v*y^-1*x, so c*u ~ d*v, but no pair can be extended (S and S2 have
    no incoming arrows, T and T2 no outgoing ones) and no two joined paths
    share an end arrow, so the congruence closure never joins c*u and d*v.

    "bridge-w" adds w: S2 -> M1 and the relation c*w - d*v; its pi_1 is
    trivial, so w ~ u, which neither the closure nor the word search proves.
    Returns the quiver and the ideal."""
    arrows = [("x", "S", "M1"), ("y", "S", "M2"), ("u", "S2", "M1"), ("v", "S2", "M2"),
              ("a", "M1", "T"), ("b", "M2", "T"), ("c", "M1", "T2"), ("d", "M2", "T2")]
    q = Quiver(["S", "S2", "M1", "M2", "T", "T2"], arrows + [("w", "S2", "M1")] * with_w)
    pairs = [("a*x", "b*y"), ("c*x", "d*y"), ("a*u", "b*v")] + [("c*w", "d*v")] * with_w
    return q, IdealData(q, field, [elem(q, field, (1, p), (-1, r)) for p, r in pairs])


def chain_quiver(n):
    vertices = [str(i + 1) for i in range(n)]
    arrows = [(chr(ord("a") + i), str(i + 1), str(i + 2)) for i in range(n - 1)]
    return Quiver(vertices, arrows)


def tree_steps(quiver, tree, vertex):
    """The tree path from the base to ``vertex`` as signed arrows
    ``(name, +1 or -1)`` (-1 crosses an arrow backwards), read off the
    arrows by which the tree's BFS first reaches each vertex."""
    parents = _bfs_parents(quiver, tree.base, tree.arrow_names)
    steps = []
    while parents[vertex] is not None:
        a = parents[vertex]
        steps.append((a.name, 1) if a.target == vertex else (a.name, -1))
        vertex = a.source if a.target == vertex else a.target
    return tuple(reversed(steps))


def chain_with_monomials(n, field, cuts=()):
    """Oriented line with length-two monomial relations at the given offsets."""
    q = chain_quiver(n)
    gens = []
    for i in cuts:
        first = chr(ord("a") + i)
        second = chr(ord("a") + i + 1)
        gens.append(elem(q, field, (1, f"{second}*{first}")))
    return q, IdealData(q, field, gens), q.spanning_tree("1")


# ---------- random desk-scale instances ----------

NONZERO_RATIONALS = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3), Fraction(1, 2),
)


def random_field(rng):
    return rng.choice([QQ, GF(2), GF(3), GF(5)])


def random_nonzero(rng, field):
    if field is QQ:
        return rng.choice(NONZERO_RATIONALS)
    return rng.randrange(1, field.p)


def random_quiver(rng, max_vertices=6, max_paths=40):
    while True:
        n = rng.randint(2, max_vertices)
        vertices = [str(i + 1) for i in range(n)]
        arrows = []
        for i in range(1, n):
            j = rng.randrange(i)
            arrows.append((chr(ord("a") + len(arrows)), vertices[j], vertices[i]))
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            arrows.append((chr(ord("a") + len(arrows)), vertices[i], vertices[j]))
        q = Quiver(vertices, arrows)
        if len(q.all_paths()) <= max_paths:
            return q


def dag(rng, n, extra):
    """A quiver denser than ``random_quiver``'s (ROADMAP's Dense-7 draws):
    vertices 1..n, one arrow into each vertex i > 1 from an earlier one,
    then ``extra`` arrows forward, named a0, a1, ... in order."""
    ends = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(extra):
        i = rng.randrange(n - 1)
        ends.append((i, rng.randrange(i + 1, n)))
    return Quiver([str(v + 1) for v in range(n)], [(f"a{k}", str(s + 1), str(t + 1)) for k, (s, t) in enumerate(ends)])


def random_admissible_ideal(rng, quiver, field):
    corridors = {}
    for p in quiver.all_paths():
        if p.length >= 2:
            corridors.setdefault((p.source, p.target), []).append(p)
    gens = []
    keys = sorted(corridors, key=quiver.corridor_key)
    for _ in range(rng.randint(0, 2)):
        if not keys:
            break
        key = rng.choice(keys)
        paths = corridors[key]
        p1 = rng.choice(paths)
        g = {p1: random_nonzero(rng, field)}
        if len(paths) > 1 and rng.random() < 0.6:
            p2 = rng.choice([p for p in paths if p != p1])
            g[p2] = random_nonzero(rng, field)
        gens.append(g)
    ideal = IdealData(quiver, field, gens)
    assert ideal.is_admissible()[0]
    return ideal


def random_dilatation(rng, quiver, field):
    return dilatation(
        quiver, field, {n: random_nonzero(rng, field) for n in quiver.arrow_names}
    )


def relabeled(rng, ideal):
    """The same algebra under other names: the arrow names permuted and the
    vertex and arrow declarations shuffled, so the default tree's base
    moves; the ideal's reduced basis is carried along."""
    q = ideal.quiver
    names = list(q.arrow_names)
    rename = dict(zip(names, rng.sample(names, len(names))))
    arrows = [(rename[a.name], a.source, a.target) for a in q.arrows]
    rng.shuffle(arrows)
    q2 = Quiver(rng.sample(q.vertices, len(q.vertices)), arrows)
    gens = [{q2.path(tuple(rename[n] for n in p.arrows)): c for p, c in g.items()} for g in ideal.basis]
    return IdealData(q2, ideal.field, gens)


def random_fixing_automorphism(rng, ideal):
    """An automorphism with the same ideal, composed from fixing transvections."""
    quiver, field = ideal.quiver, ideal.field
    fixers = []
    taus = [1, -1] if field is QQ else list(range(1, field.p))
    for bp in enumerate_bypasses(quiver):
        for tau in taus:
            phi = transvection_of(quiver, field, bp, tau)
            if phi.apply_to_ideal(ideal) == ideal:
                fixers.append(phi)
    rng.shuffle(fixers)
    out = None
    for phi in fixers[: rng.randint(0, 2)]:
        out = phi if out is None else out.compose(phi)
    if out is None:
        from bquiver import identity_automorphism

        out = identity_automorphism(quiver, field)
    assert out.apply_to_ideal(ideal) == ideal
    return out


# ---------- dense references ----------

def sparse_rows(field, rows):
    """Dense rows as the sparse ``{column: coeff}`` rows of a linear system."""
    out = []
    for row in rows:
        coerced = {j: field.coerce(x) for j, x in enumerate(row)}
        out.append({j: x for j, x in coerced.items() if not field.is_zero(x)})
    return out


def columns_of(field, m):
    """The columns of a dense square matrix as sparse ``{row: coeff}`` maps."""
    return sparse_rows(field, [[row[j] for row in m] for j in range(len(m))])


def mat_mul(field, a, b):
    """Dense product of two matrices given as lists of rows."""
    return [
        [field.sum(field.mul(field.coerce(x), field.coerce(b[k][j])) for k, x in enumerate(row)) for j in range(len(b[0]))]
        for row in a
    ]


def mat_inverse(field, m):
    """Dense inverse by Gauss-Jordan elimination on [m | I]."""
    n = len(m)
    work = [[field.coerce(x) for x in row] + [field.one if i == j else field.zero for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pr = next(i for i in range(c, n) if not field.is_zero(work[i][c]))
        work[c], work[pr] = work[pr], work[c]
        inv = field.inv(work[c][c])
        work[c] = [field.mul(inv, x) for x in work[c]]
        for i in range(n):
            if i != c and not field.is_zero(work[i][c]):
                factor = work[i][c]
                work[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(work[i], work[c])]
    return [row[n:] for row in work]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (via rational elimination); for small checks."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("not square")
    det = Fraction(1)
    work = [list(map(Fraction, row)) for row in rows]
    sign = 1
    for c in range(n):
        pr = None
        for i in range(c, n):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            return 0
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            sign = -sign
        det *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    result = det * sign
    assert result.denominator == 1
    return int(result)


def check_smith_form(a, d, v):
    """Assert that ``(d, v)`` is a Smith form of the integer matrix ``a``
    without its row transform: ``v`` is unimodular, column j of ``a * v``
    is a multiple of ``d[j]`` and every column past ``len(d)`` is zero, and
    ``d[0] * ... * d[k-1]`` is the gcd of the k x k minors of ``a`` (which
    is 0 past the rank).  The minors are all listed, so keep ``a`` small."""
    m, n = len(a), len(v)
    assert abs(int_det(v)) == 1
    av = [[sum(row[k] * v[k][j] for k in range(n)) for j in range(n)] for row in a]
    for row in av:
        for j, x in enumerate(row):
            assert (x % d[j] == 0) if j < len(d) else x == 0
    for k in range(1, min(m, n) + 1):
        minors = [
            int_det([[a[r][c] for c in cols] for r in rows])
            for rows in itertools.combinations(range(m), k)
            for cols in itertools.combinations(range(n), k)
        ]
        assert math.gcd(*minors) == (math.prod(d[:k]) if k <= len(d) else 0)


# ---------- sparse references ----------

def derivation_of_coords(algebra, coords):
    """The derivation with coordinates ``{unknown index: coeff}``, built from
    its arrow images through the public constructor."""
    images = {}
    for u, x in coords.items():
        name, path = algebra.derivation_unknowns[u]
        images.setdefault(name, {})[algebra.index[path]] = x
    return Derivation(algebra, images)


def is_constricted(algebra):
    """Every arrow corridor one-dimensional (the arrow itself spans it)."""
    return all(len(r) == 1 for r in algebra.arrow_unknowns.values())
