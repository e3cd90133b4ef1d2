import random
import sys

import pytest

from bquiver import QQ, Path, Quiver, QuiverError, enumerate_bypasses, has_double_bypass
from bquiver.quiver import _bfs_parents

from conftest import (
    chain_quiver,
    commutative_square,
    kronecker_quiver,
    parallel_pair_quiver,
    random_quiver,
    tree_steps,
    two_triangles_quiver,
)


def test_validate_accepts_golden_quivers():
    assert parallel_pair_quiver().validate()["ok"]
    assert two_triangles_quiver().validate()["ok"]
    assert Quiver(["1"], []).validate()["ok"]


def test_validate_rejects_loop_with_witness():
    diag = Quiver(["1"], [("a", "1", "1")]).validate()
    assert not diag["ok"]
    assert diag["cycle"] == ["a"]


def test_validate_rejects_longer_cycle():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    diag = q.validate()
    assert not diag["ok"]
    assert sorted(diag["cycle"]) == ["a", "b"]


def test_validate_reports_components():
    q = Quiver(["1", "2", "3"], [("a", "1", "2")])
    diag = q.validate()
    assert not diag["ok"]
    assert diag["components"] == [["1", "2"], ["3"]]


def test_validate_orders_components_by_first_vertex():
    # components by their first declared vertex, members by declaration
    q = Quiver(["1", "2", "3", "4", "5"], [("a", "4", "1"), ("b", "2", "5"), ("c", "3", "4")])
    diag = q.validate()
    assert diag == {"ok": False, "cycle": None, "components": [["1", "3", "4"], ["2", "5"]]}
    # the diagnostics are a copy: changing them changes no later answer
    diag["components"].clear()
    assert q.validate()["components"] == [["1", "3", "4"], ["2", "5"]]
    with pytest.raises(QuiverError, match="invalid quiver"):
        q.require_valid()


def test_validate_reads_quivers_deeper_than_the_recursion_limit():
    n = 1500
    assert n > sys.getrecursionlimit()
    vertices = [f"v{i}" for i in range(n)]
    chain = Quiver(vertices, [(f"a{i}", vertices[i], vertices[i + 1]) for i in range(n - 1)])
    assert chain.validate() == {"ok": True, "cycle": None, "components": None}
    # the witness of an oriented cycle is all of its arrows, from the first vertex
    cycle = Quiver(vertices, [(f"a{i}", vertices[i], vertices[(i + 1) % n]) for i in range(n)])
    assert cycle.validate() == {"ok": False, "cycle": [f"a{i}" for i in range(n)], "components": None}


def reference_bfs_parents(quiver, base, arrow_names):
    """BFS from ``base`` scanning every allowed arrow name at each vertex:
    the arrow by which it first reaches each vertex, in discovery order."""
    parents = {base: None}
    order = [base]
    for v in order:
        for name in sorted(arrow_names):
            a = quiver.arrow(name)
            other = None
            if a.source == v and a.target not in parents:
                other = a.target
            elif a.target == v and a.source not in parents:
                other = a.source
            if other is not None:
                parents[other] = a
                order.append(other)
    return parents


def test_bfs_parents_and_default_trees_follow_the_reference_bfs():
    rng = random.Random(2311)
    square = commutative_square(QQ, bound=False)[0]
    split = Quiver(["1", "2", "3", "4"], [("b", "3", "4"), ("a", "1", "2")])
    golden = [parallel_pair_quiver(), kronecker_quiver(), two_triangles_quiver(), square, chain_quiver(5), split]
    for q in golden + [random_quiver(rng) for _ in range(12)]:
        subset = [n for n in q.arrow_names if rng.random() < 0.6]
        for base in q.vertices:
            for names in (q.arrow_names, subset, ()):
                parents = _bfs_parents(q, base, names)
                expected = reference_bfs_parents(q, base, names)
                assert parents == expected and list(parents) == list(expected)
            if q.validate()["ok"]:
                # the default tree is the arrows of first discovery
                expected = reference_bfs_parents(q, base, q.arrow_names)
                tree = q.spanning_tree(base)
                assert tree.arrow_names == {a.name for a in expected.values() if a is not None}
                assert list(_bfs_parents(q, base, tree.arrow_names)) == list(expected)
    with pytest.raises(QuiverError, match="unknown arrow 'x'"):
        _bfs_parents(split, "1", ["a", "x", "y"])


def test_a_long_chain_builds_and_gets_its_spanning_tree():
    n = 1500
    vertices = [f"v{i}" for i in range(n)]
    chain = Quiver(vertices, [(f"a{i}", vertices[i], vertices[i + 1]) for i in range(n - 1)])
    tree = chain.spanning_tree(vertices[n // 2])
    assert tree.arrow_names == frozenset(chain.arrow_names)
    assert tree_steps(chain, tree, vertices[0]) == tuple((f"a{i}", -1) for i in reversed(range(n // 2)))
    assert tree_steps(chain, tree, vertices[-1]) == tuple((f"a{i}", 1) for i in range(n // 2, n - 1))


def test_unknown_endpoint_rejected():
    with pytest.raises(QuiverError):
        Quiver(["1"], [("a", "1", "9")])
    with pytest.raises(QuiverError):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "1", "2")])


def test_paths_between_parallel_pair():
    q = parallel_pair_quiver()
    assert [str(p) for p in q.paths_between("1", "3")] == ["c*a", "c*b"]
    assert [str(p) for p in q.paths_between("2", "2")] == ["e_2"]


def test_paths_between_two_triangles_dfs_oracle():
    q = two_triangles_quiver()

    def dfs(v, target):
        if v == target:
            return [()]
        out = []
        for a in q.outgoing(v):
            out.extend([(a.name,) + rest for rest in dfs(a.target, target)])
        return out

    oracle = sorted(dfs("1", "5"))
    got = sorted(p.arrows for p in q.paths_between("1", "5"))
    assert got == oracle
    assert sorted(str(p) for p in q.paths_between("1", "5")) == [
        "d*a",
        "d*c*b",
        "f*e*a",
        "f*e*c*b",
    ]


def test_path_composability_enforced():
    q = parallel_pair_quiver()
    with pytest.raises(QuiverError):
        q.path(["c", "a"])  # c ends at 3, a starts at 1
    p = q.path(["a", "c"])
    assert str(p) == "c*a"
    assert (p.source, p.target, p.length) == ("1", "3", 2)


def test_spanning_tree_two_triangles_preferred():
    q = two_triangles_quiver()
    tree = q.spanning_tree("1", preferred=["b", "c", "e", "f"])
    assert tree_steps(q, tree, "5") == (("b", 1), ("c", 1), ("e", 1), ("f", 1))
    for v in q.vertices:
        # a tree path crosses each of its arrows once, all of them tree arrows
        names = [name for name, _ in tree_steps(q, tree, v)]
        assert len(set(names)) == len(names) and set(names) <= tree.arrow_names


def test_spanning_tree_chain_is_whole_quiver():
    q = chain_quiver(3)
    tree = q.spanning_tree("1")
    assert tree.arrow_names == frozenset({"a", "b"})


def test_spanning_tree_parallel_pair_preferred():
    q = parallel_pair_quiver()
    tree = q.spanning_tree("1", preferred=["a", "c"])
    assert tree_steps(q, tree, "2") == (("a", 1),)
    assert tree_steps(q, tree, "3") == (("a", 1), ("c", 1))


def test_spanning_tree_rejects_bad_preferred():
    q = parallel_pair_quiver()
    with pytest.raises(QuiverError):
        q.spanning_tree("1", preferred=["a", "b"])  # does not reach vertex 3
    with pytest.raises(QuiverError):
        q.spanning_tree("1", preferred=["a"])


def test_bypasses_parallel_pair():
    got = [(bp.arrow, str(bp.path)) for bp in enumerate_bypasses(parallel_pair_quiver())]
    assert got == [("a", "b"), ("b", "a")]


def test_bypasses_two_triangles():
    got = [(bp.arrow, str(bp.path)) for bp in enumerate_bypasses(two_triangles_quiver())]
    assert got == [("a", "c*b"), ("d", "f*e")]


def test_bypasses_chain_empty():
    assert enumerate_bypasses(chain_quiver(4)) == []


def test_all_paths_recompose():
    rng = random.Random(77)
    for _ in range(8):
        q = random_quiver(rng)
        for p in q.all_paths():
            if p.is_trivial:
                continue
            rebuilt = q.path(p.arrows)
            assert rebuilt == p


def test_double_bypass_cases():
    found, witness = has_double_bypass(parallel_pair_quiver())
    assert found
    # the bypass pair oracle: (a, b) chains into (b, a) since b lies on the path b
    assert (witness[0], str(witness[1]), witness[2], str(witness[3])) == ("a", "b", "b", "a")
    assert not has_double_bypass(two_triangles_quiver())[0]
    assert not has_double_bypass(chain_quiver(3))[0]


def test_path_hashes_and_compares_as_a_tuple():
    # {Path: coeff} elements key on paths everywhere: their hash and
    # equality are tuple's own, with no Python-level call
    assert Path.__hash__ is tuple.__hash__
    assert Path.__eq__ is tuple.__eq__
    p = Path("1", "3", ("a", "c"))
    assert repr(p) == "Path(source='1', target='3', arrows=('a', 'c'))"
    assert str(p) == "c*a" and p.length == 2 and not p.is_trivial
    e = Path("2", "2", ())
    assert repr(e) == "Path(source='2', target='2', arrows=())"
    assert str(e) == "e_2" and e.length == 0 and e.is_trivial


def test_paths_are_not_orderable():
    a, b = Path("1", "2", ("a",)), Path("1", "2", ("b",))
    for compare in (a.__lt__, a.__le__, a.__gt__, a.__ge__):
        assert compare(b) is NotImplemented
    with pytest.raises(TypeError):
        a < b
    with pytest.raises(TypeError):
        sorted([b, a])
    assert parallel_pair_quiver().sort_paths([b, a]) == [a, b]


def test_quiver_constants_match_their_definitions():
    rng = random.Random(2207)
    square = commutative_square(QQ, bound=False)[0]
    golden = [parallel_pair_quiver(), kronecker_quiver(), two_triangles_quiver(), square, chain_quiver(5)]
    for q in golden + [random_quiver(rng) for _ in range(12)]:
        paths = q.all_paths()
        for p in paths:
            assert q.path_key(p) == (len(p.arrows), q.vertex_index[p.source], q.vertex_index[p.target], p.arrows)
        for s in q.vertices:
            for t in q.vertices:
                corridor = q.paths_between(s, t)
                assert corridor == [p for p in paths if p.source == s and p.target == t]
                corridor.append(Path(s, t, ("x",)))
                assert q.paths_between(s, t) == corridor[:-1]
        for name in q.arrow_names:
            a = q.arrow(name)
            assert q.arrow_path(name) == Path(a.source, a.target, (name,))
        with pytest.raises(QuiverError, match="unknown arrow"):
            q.arrow_path("no such arrow")
