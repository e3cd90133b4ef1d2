"""Finite acyclic quivers, oriented paths, spanning trees and bypasses.

Conventions used throughout the package:

* Paths compose right to left: the product ``v * u`` means "first traverse
  ``u``, then ``v``".  Internally a path stores its arrows in traversal
  order, so the displayed name ``c*a`` corresponds to the stored tuple
  ``("a", "c")``.
* All enumeration orders are deterministic: vertices by declaration order,
  arrows by name, paths by (length, source index, target index, arrow-name
  sequence).
* A ``Path`` is a named tuple ``(source, target, arrows)``: it hashes and
  compares equal as a tuple, so ``{Path: coeff}`` elements key on it at C
  speed, but it is not orderable.  Sort paths with ``Quiver.path_key``.
"""

from __future__ import annotations

import copy
from typing import Iterable, NamedTuple, Sequence


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Path(NamedTuple):
    """An oriented path; ``arrows`` lists traversed arrow names in order."""

    source: str
    target: str
    arrows: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __str__(self):
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(reversed(self.arrows))

    # paths have no order of their own: sort them with ``Quiver.path_key``
    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__


class QuiverError(ValueError):
    pass


class Quiver:
    """A finite quiver given by named vertices and named arrows."""

    def __init__(self, vertices: Sequence[str], arrows: Iterable[tuple[str, str, str]]):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        arrow_list = []
        seen = set()
        for name, src, tgt in arrows:
            if name in seen:
                raise QuiverError(f"duplicate arrow name {name!r}")
            seen.add(name)
            if src not in self.vertex_index or tgt not in self.vertex_index:
                raise QuiverError(f"arrow {name!r} has an unknown endpoint")
            arrow_list.append(Arrow(str(name), str(src), str(tgt)))
        self.arrows = tuple(arrow_list)
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self.arrow_names = tuple(sorted(self.arrow_by_name))
        self._arrow_paths = {a.name: Path(a.source, a.target, (a.name,)) for a in self.arrows}
        outgoing: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        incident: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for name in self.arrow_names:
            a = self.arrow_by_name[name]
            outgoing[a.source].append(a)
            incident[a.source].append(a)
            if a.target != a.source:
                incident[a.target].append(a)
        self._outgoing = {v: tuple(arrows) for v, arrows in outgoing.items()}
        self._incident = {v: tuple(arrows) for v, arrows in incident.items()}
        self._all_paths: tuple[Path, ...] | None = None
        self._corridors: dict[tuple[str, str], tuple[Path, ...]] = {}
        self._parallel_classes: dict[tuple[str, str], tuple[str, ...]] | None = None
        self._diagnostics = self._diagnose()

    # ---------- basic structure ----------

    def arrow(self, name: str) -> Arrow:
        try:
            return self.arrow_by_name[name]
        except KeyError:
            raise QuiverError(f"unknown arrow {name!r}") from None

    def outgoing(self, vertex: str) -> tuple[Arrow, ...]:
        """The arrows leaving ``vertex``, by name."""
        return self._outgoing.get(vertex, ())

    def _diagnose(self) -> dict:
        """Acyclicity and connectedness, as the diagnostics of ``validate``."""
        # acyclicity by DFS; the cycle witness is the arrows of the DFS path
        # from the back edge's target, then that edge
        done: set[str] = set()
        depth: dict[str, int] = {}  # the vertices on the DFS path, by position
        trail: list[str] = []  # the arrows of the DFS path
        cycle = None
        for root in self.vertices:
            if root in done:
                continue
            depth[root] = 0
            frames = [(root, iter(self.outgoing(root)))]
            while frames and cycle is None:
                v, pending = frames[-1]
                a = next(pending, None)
                if a is None:
                    frames.pop()
                    del depth[v]
                    done.add(v)
                    if frames:
                        trail.pop()
                elif a.target in depth:
                    cycle = trail[depth[a.target]:] + [a.name]
                elif a.target not in done:
                    trail.append(a.name)
                    depth[a.target] = len(frames)
                    frames.append((a.target, iter(self.outgoing(a.target))))
            if cycle is not None:
                break
        # connected components of the underlying graph, by first vertex
        components: list[list[str]] = []
        reached: set[str] = set()
        for v in self.vertices:
            if v not in reached:
                component = _bfs_parents(self, v, self.arrow_names)
                reached.update(component)
                components.append(sorted(component, key=self.vertex_index.get))
        split = len(components) > 1
        return {"ok": cycle is None and not split, "cycle": cycle, "components": components if split else None}

    def validate(self) -> dict:
        """Check acyclicity and connectedness.

        Returns a diagnostics dict with ``ok`` plus a cycle witness or the
        connected components when the corresponding property fails.  A
        quiver never changes, so they are computed once, on construction.
        """
        return copy.deepcopy(self._diagnostics)

    def require_valid(self):
        if not self._diagnostics["ok"]:
            raise QuiverError(f"invalid quiver: {self._diagnostics}")

    # ---------- paths ----------

    def trivial_path(self, vertex: str) -> Path:
        if vertex not in self.vertex_index:
            raise QuiverError(f"unknown vertex {vertex!r}")
        return Path(vertex, vertex, ())

    def path(self, arrow_names: Sequence[str]) -> Path:
        """Path from arrow names in traversal order (first traversed first)."""
        if not arrow_names:
            raise QuiverError("a nontrivial path needs at least one arrow")
        arrows = [self.arrow(n) for n in arrow_names]
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise QuiverError(f"arrows {a.name!r} and {b.name!r} do not compose")
        return Path(arrows[0].source, arrows[-1].target, tuple(a.name for a in arrows))

    def arrow_path(self, name: str) -> Path:
        try:
            return self._arrow_paths[name]
        except KeyError:
            raise QuiverError(f"unknown arrow {name!r}") from None

    def path_key(self, p: Path):
        """The global deterministic path order key: length, endpoints, names."""
        return (len(p.arrows), self.vertex_index[p.source], self.vertex_index[p.target], p.arrows)

    def corridor_key(self, corridor: tuple[str, str]):
        """The corridor order key: (source, target) by vertex position."""
        source, target = corridor
        return (self.vertex_index[source], self.vertex_index[target])

    def parallel_classes(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """Arrow names grouped by (source, target), in corridor order."""
        if self._parallel_classes is None:
            classes: dict[tuple[str, str], list[str]] = {}
            for name in self.arrow_names:
                a = self.arrow_by_name[name]
                classes.setdefault((a.source, a.target), []).append(name)
            self._parallel_classes = {k: tuple(classes[k]) for k in sorted(classes, key=self.corridor_key)}
        return self._parallel_classes

    def sort_paths(self, paths: Iterable[Path]) -> list[Path]:
        return sorted(paths, key=self.path_key)

    def all_paths(self) -> tuple[Path, ...]:
        """Every path of the quiver, trivial ones included, in path order."""
        if self._all_paths is None:
            self.require_valid()
            found = [self.trivial_path(v) for v in self.vertices]
            frontier = [self.arrow_path(n) for n in self.arrow_names]
            while frontier:
                found.extend(frontier)
                nxt = []
                for p in frontier:
                    for a in self.outgoing(p.target):
                        nxt.append(Path(p.source, a.target, p.arrows + (a.name,)))
                frontier = nxt
            self._all_paths = tuple(self.sort_paths(found))
            corridors: dict[tuple[str, str], list[Path]] = {}
            for p in self._all_paths:
                corridors.setdefault((p.source, p.target), []).append(p)
            self._corridors = {k: tuple(ps) for k, ps in corridors.items()}
        return self._all_paths

    def paths_between(self, source: str, target: str) -> list[Path]:
        """The paths from ``source`` to ``target``, in path order."""
        if source not in self.vertex_index or target not in self.vertex_index:
            raise QuiverError("unknown vertex")
        self.all_paths()  # which indexes the paths by corridor as well
        return list(self._corridors.get((source, target), ()))

    # ---------- spanning trees ----------

    def spanning_tree(self, base: str, preferred: Iterable[str] | None = None) -> "SpanningTree":
        self.require_valid()
        if base not in self.vertex_index:
            raise QuiverError(f"unknown base vertex {base!r}")
        if preferred is not None:
            chosen = tuple(sorted(set(preferred)))
            for n in chosen:
                self.arrow(n)
            if len(chosen) != len(self.vertices) - 1:
                raise QuiverError("preferred arrow set has the wrong size for a spanning tree")
            if len(_bfs_parents(self, base, chosen)) != len(self.vertices):
                raise QuiverError("preferred arrow set does not span the quiver")
            return SpanningTree(base, chosen)
        # the tree of the arrows by which the BFS first reaches each vertex
        parents = _bfs_parents(self, base, self.arrow_names)
        return SpanningTree(base, tuple(sorted(a.name for a in parents.values() if a is not None)))


def _bfs_parents(quiver: Quiver, base: str, arrow_names: Iterable[str]) -> dict[str, Arrow | None]:
    """The arrow by which a BFS from ``base`` through the given arrows first
    reaches each vertex (``None`` at the base): vertices in discovery order,
    the arrows at each vertex by name (its incidence list)."""
    allowed = frozenset(arrow_names)
    unknown = sorted(allowed - quiver.arrow_by_name.keys())
    if unknown:
        raise QuiverError(f"unknown arrow {unknown[0]!r}")
    parents: dict[str, Arrow | None] = {base: None}
    order = [base]
    for v in order:  # grows while it is read
        for a in quiver._incident[v]:
            if a.name in allowed:
                other = a.target if a.source == v else a.source
                if other not in parents:
                    parents[other] = a
                    order.append(other)
    return parents


class SpanningTree:
    """A maximal tree of a quiver, by its arrow names, at a base vertex."""

    def __init__(self, base: str, arrow_names: tuple[str, ...]):
        self.base = base
        self.arrow_names = frozenset(arrow_names)

    def contains(self, arrow_name: str) -> bool:
        return arrow_name in self.arrow_names

    def __repr__(self):
        return f"SpanningTree(base={self.base}, arrows={sorted(self.arrow_names)})"


class Bypass(NamedTuple):
    """An arrow together with a distinct parallel oriented path."""

    arrow: str
    path: Path


def enumerate_bypasses(quiver: Quiver) -> list[Bypass]:
    """All pairs (arrow, parallel path distinct from the arrow), in order."""
    quiver.require_valid()
    out = []
    for name in quiver.arrow_names:
        a = quiver.arrow_by_name[name]
        for p in quiver.paths_between(a.source, a.target):
            if p.arrows == (name,):
                continue
            out.append(Bypass(name, p))
    return out


def has_double_bypass(quiver: Quiver) -> tuple[bool, tuple | None]:
    """Whether some bypass (a, u) chains into a bypass (b, v) with b inside u."""
    bypasses = enumerate_bypasses(quiver)
    by_arrow: dict[str, list[Bypass]] = {}
    for bp in bypasses:
        by_arrow.setdefault(bp.arrow, []).append(bp)
    for bp in bypasses:
        for inner in bp.path.arrows:
            for other in by_arrow.get(inner, ()):
                return True, (bp.arrow, bp.path, other.arrow, other.path)
    return False, None
