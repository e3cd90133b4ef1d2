"""Tests of the benchmark's own parts: generator, output checks, tracing."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

import bquiver  # noqa: E402
from bquiver import cli  # noqa: E402
from bquiver.dsl import parse_input  # noqa: E402


def all_documents(seed: int) -> list[str]:
    return [inst.text() for name, spec in gen.WORKLOADS.items() for inst in spec.instances(name, seed)]


def test_generator_ignores_hash_seed():
    script = (
        "import hashlib, sys; sys.path.insert(0, sys.argv[1]); import test_bench; "
        "print(hashlib.sha256(''.join(test_bench.all_documents(5)).encode()).hexdigest())"
    )
    digests = set()
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", script, str(HERE)], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        digests.add(out.stdout.strip())
    assert digests == {hashlib.sha256("".join(all_documents(5)).encode()).hexdigest()}


def test_seeds_share_the_catalogue_and_differ_in_fresh_instances():
    for name, spec in gen.WORKLOADS.items():
        a, b = spec.instances(name, 1), spec.instances(name, 2)
        shared = len(spec.fixed) + spec.catalogue
        assert a[:shared] == b[:shared]
        assert a[shared:] != b[shared:]


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_documents_parse_and_are_admissible(seed):
    for name, spec in gen.WORKLOADS.items():
        for inst in spec.instances(name, seed):
            doc = parse_input(inst.text())
            assert doc.quiver.validate()["ok"], inst.name
            ideal = doc.ideal("I")
            assert ideal.is_admissible()[0], inst.name
            assert (not ideal.basis) == inst.hereditary, inst.name
            assert repr(doc.field) == inst.field_name


def test_prime_is_bounded_by_happel_number():
    spec = gen.WORKLOADS["verify-gfp"]
    for inst in spec.instances("verify-gfp", 3)[len(spec.fixed):]:
        assert inst.p ** min(inst.happel_dim(), 4) <= gen.SPAN_CAP


def run_cli(cmd: str, inst, tmp_path) -> tuple[int, str]:
    path = tmp_path / f"{inst.name}.bq"
    path.write_text(inst.text())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([cmd, str(path), "--json"])
    return code, buf.getvalue()


HEREDITARY = gen.Instance("chain", 0, 3, (("a", 1, 2), ("b", 2, 3), ("c", 1, 3)))
BOUND = gen.golden(3)[2]  # two_triangles_full over GF(3)


def corrupt(output: str, edit) -> str:
    report = json.loads(output)
    edit(report)
    return json.dumps(report)


CORRUPTIONS = [
    ("hh1", HEREDITARY, lambda r: r.update(dim=r["dim"] + 1)),
    ("hh1", HEREDITARY, lambda r: r.update(dim=r["dim"] + 1, derivation_dim=r["derivation_dim"] + 1)),
    ("hh1", HEREDITARY, lambda r: r.update(algebra_dim=r["algebra_dim"] + 1)),
    ("homk", HEREDITARY, lambda r: r.update(dim=r["dim"] + 1)),
    ("theta", HEREDITARY, lambda r: r.update(hom_dim=r["hom_dim"] + 1)),
    ("theta", HEREDITARY, lambda r: r.update(image_dim=r["hom_dim"] + 1)),
    ("maxdiag", HEREDITARY, lambda r: r.update(verdict="no")),
    ("gamma", BOUND, lambda r: r["sources"].update(sources=[])),
    ("gamma", BOUND, lambda r: r["arrows"].append([0, r["vertices"], "a", "b", 1])),
    ("gamma", BOUND, lambda r: r["arrows"].extend([[0, 1, "a", "b", 1], [1, 0, "a", "b", 1]])),
    ("verify", BOUND, lambda r: r["statuses"].update(fail=1)),
]


@pytest.mark.parametrize("cmd, inst, edit", CORRUPTIONS)
def test_checker_flags_a_corrupted_report(cmd, inst, edit, tmp_path):
    ctx = checks.Context()
    for before in ("pi1", "homk"):
        if before != cmd:
            code, out = run_cli(before, inst, tmp_path)
            assert checks.judge(before, inst, code, out, ctx)[0] == checks.OK
    code, out = run_cli(cmd, inst, tmp_path)
    assert checks.judge(cmd, inst, code, out, ctx)[0] == checks.OK
    assert checks.judge(cmd, inst, code, corrupt(out, edit), ctx)[0] == checks.FAIL


def test_judge_fails_errors_and_counts_unknowns():
    ctx = checks.Context()
    assert checks.judge("hh1", HEREDITARY, 2, "", ctx)[0] == checks.FAIL
    assert checks.judge("hh1", HEREDITARY, "ValueError: boom", "", ctx)[0] == checks.FAIL
    assert checks.judge("hh1", HEREDITARY, 0, "not json", ctx)[0] == checks.FAIL
    assert checks.judge("hh1", HEREDITARY, 0, "{}", ctx)[0] == checks.FAIL
    assert checks.judge("maxdiag", BOUND, 3, json.dumps({"verdict": "unknown"}), ctx)[0] == checks.UNKNOWN
    assert checks.judge("maxdiag", BOUND, 1, json.dumps({"verdict": "no"}), ctx)[0] == checks.OK


def test_homk_check_counts_torsion_divisible_by_p():
    ctx = checks.Context()
    pi1 = {"abelian_invariants": {"free_rank": 1, "torsion": [2, 3]}}
    inst = gen.Instance("x", 3, 2, (("a", 1, 2),))
    assert checks.judge("pi1", inst, 0, json.dumps(pi1), ctx)[0] == checks.OK
    assert checks.judge("homk", inst, 0, json.dumps({"dim": 2}), ctx)[0] == checks.OK
    assert checks.judge("homk", inst, 0, json.dumps({"dim": 1}), ctx)[0] == checks.FAIL


def test_self_time_on_a_toy_call_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["f", 1.0, 4.0, 0, 0],
        ["g", 5.0, 9.0, 0, 0],
        ["f", 6.0, 7.0, 2, 0],
        ["f", 6.2, 6.5, 3, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 0.7, 0.3])
    stats = tracing.aggregate(spans)
    assert stats["f"]["calls"] == 3
    assert stats["f"]["total_s"] == pytest.approx(4.0)  # the nested f is inside f
    assert stats["f"]["self_s"] == pytest.approx(4.0)
    assert stats["root"]["total_s"] == pytest.approx(10.0)


def test_install_traces_imported_names_and_uninstall_restores(tmp_path):
    original = bquiver.relquiver.is_diagonalizable_set
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, bquiver)
    try:
        assert bquiver.relquiver.is_diagonalizable_set is not original
        assert bquiver.presentations.is_diagonalizable_set is bquiver.relquiver.is_diagonalizable_set
        tracer.call_id = 0
        run_cli("verify", BOUND, tmp_path)
    finally:
        tracing.uninstall(patches)
    assert bquiver.relquiver.is_diagonalizable_set is original
    assert bquiver.presentations.is_diagonalizable_set is original
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "relquiver.verify_main_theorem", "presentations.is_diagonalizable_set"} <= names
    assert all(s[2] >= s[1] and s[4] == 0 for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["relquiver.enumerate_spans.spans"][0] > 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    layer = tracing.layer_metrics([], tracing.Counter())
    names = list(layer) + ["trace.overhead_s", "trace.spans"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [m["unit"] for m in spec["per_layer"][: len(layer)]] == [u for _, u in layer.values()]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb"
    }
