import json
from fractions import Fraction

import pytest

from bquiver import InputError, parse_input, render_document
from bquiver.cli import main, build_arg_parser, resolve_budgets
from bquiver.pathalg import _render

PARALLEL_PAIR_DOC = """\
# two routes into a third arrow
field QQ
quiver {
  vertices 1, 2, 3
  arrow a: 1 -> 2
  arrow b: 1 -> 2
  arrow c: 2 -> 3
}
ideal I { c*a }
ideal J { c*a - c*b }
tree { a, c }
"""

TWO_TRIANGLES_DOC = """\
field GF(2)
quiver {
  vertices 1, 2, 3, 4, 5
  arrow b: 1 -> 2
  arrow a: 1 -> 3
  arrow c: 2 -> 3
  arrow e: 3 -> 4
  arrow d: 3 -> 5
  arrow f: 4 -> 5
}
# the twisted partner substitutes a -> a + c*b and d -> d + f*e
# (f*e is the composable parallel path 3 -> 5)
ideal I { d*a ; f*e*a + d*c*b }
ideal K { d*a + f*e*c*b ; f*e*a + d*c*b }
tree { b, c, e, f }
"""

KRONECKER_DOC = """\
field QQ
quiver {
  vertices 1, 2
  arrow a: 1 -> 2
  arrow b: 1 -> 2
}
ideal Z { 0*a }
"""


def write(tmp_path, text, name="doc.bq"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_golden_document():
    doc = parse_input(PARALLEL_PAIR_DOC)
    assert repr(doc.field) == "QQ"
    assert doc.quiver.arrow_names == ("a", "b", "c")
    assert doc.ideal_order == ["I", "J"]
    assert doc.tree_arrows == ("a", "c")
    ideal = doc.ideal("I")
    assert [_render(doc.quiver, doc.field, e) for e in ideal.basis] == ["c*a"]


def test_parse_errors_are_positioned():
    with pytest.raises(InputError) as err:
        parse_input(PARALLEL_PAIR_DOC.replace("ideal I { c*a }", "ideal I { a*c }"))
    assert "compose" in str(err.value)
    assert "line" in str(err.value)
    with pytest.raises(InputError):
        parse_input(PARALLEL_PAIR_DOC.replace("c*a }", "z*a }"))  # unknown arrow
    with pytest.raises(InputError):
        parse_input(PARALLEL_PAIR_DOC.replace("field QQ", "field GF(4)"))
    with pytest.raises(InputError):
        parse_input(PARALLEL_PAIR_DOC + "ideal I { c*b }")  # duplicate name
    with pytest.raises(InputError):
        parse_input(PARALLEL_PAIR_DOC.replace("tree { a, c }", "tree { a, b }"))
        parse_input(PARALLEL_PAIR_DOC.replace("tree { a, c }", "tree { a, b }")).spanning_tree()


def test_tree_setting_must_span():
    doc = parse_input(PARALLEL_PAIR_DOC.replace("tree { a, c }", "tree { a, b }"))
    with pytest.raises(InputError):
        doc.spanning_tree()


def test_parse_render_parse_is_stable():
    # an empty body (no generators) and zero generators, alone or next to a
    # nonzero one, keep their generator lists
    hereditary = KRONECKER_DOC.replace("0*a", "")
    with_zero = PARALLEL_PAIR_DOC.replace("ideal I { c*a }", "ideal I { c*a ; 0*a }")
    for text in (PARALLEL_PAIR_DOC, TWO_TRIANGLES_DOC, KRONECKER_DOC, hereditary, with_zero):
        doc1 = parse_input(text)
        rendered = render_document(doc1)
        doc2 = parse_input(rendered)
        assert render_document(doc2) == rendered
        assert doc2.ideal_order == doc1.ideal_order
        assert doc2.ideal_generators == doc1.ideal_generators
        assert doc2.quiver.vertices == doc1.quiver.vertices
        # rendering lists arrows in canonical name order
        key = lambda a: a.name
        assert sorted(doc2.quiver.arrows, key=key) == sorted(doc1.quiver.arrows, key=key)
        for name in doc1.ideal_order:
            # documents carry distinct quiver objects, so compare canonically
            assert [_render(doc1.quiver, doc1.field, e) for e in doc1.ideal(name).basis] == [
                _render(doc2.quiver, doc2.field, e) for e in doc2.ideal(name).basis
            ]


def test_cli_pi1_and_homk(tmp_path, capsys):
    path = write(tmp_path, PARALLEL_PAIR_DOC)
    assert main(["pi1", path, "--ideal", "I", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["abelian_invariants"] == {"free_rank": 1, "torsion": []}
    assert main(["pi1", path, "--ideal", "J", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["abelian_invariants"] == {"free_rank": 0, "torsion": []}
    assert main(["homk", path, "--ideal", "I", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 1


def test_cli_homk_two_triangles_basis(tmp_path, capsys):
    path = write(tmp_path, TWO_TRIANGLES_DOC)
    assert main(["homk", path, "--ideal", "K", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == 1
    assert report["basis"] == [{"a": 1, "d": 1}]


def test_cli_hh1_kronecker(tmp_path, capsys):
    path = write(tmp_path, KRONECKER_DOC)
    assert main(["hh1", path, "--ideal", "Z", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dim"] == 3
    assert report["algebra_dim"] == 4


def test_cli_theta_and_maxdiag(tmp_path, capsys):
    path = write(tmp_path, KRONECKER_DOC)
    assert main(["theta", path, "--ideal", "Z", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["hom_dim"], report["image_dim"], report["cohomology_dim"]) == (1, 1, 3)
    assert report["diagonalizable"] is True
    assert main(["maxdiag", path, "--ideal", "Z", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "yes"


def test_cli_gamma_golden(tmp_path, capsys):
    path = write(tmp_path, PARALLEL_PAIR_DOC)
    assert main(["gamma", path, "--ideal", "I", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["vertices"] == 2
    assert report["arrow_count"] == 1
    assert report["sources"]["unique_source"] is True


def test_cli_verify_gf3(tmp_path, capsys):
    path = write(tmp_path, PARALLEL_PAIR_DOC.replace("field QQ", "field GF(3)"))
    assert main(["verify", path, "--ideal", "I", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["statuses"]["fail"] == 0
    assert report["statuses"]["unknown"] == 0


def test_cli_validate_reports_failures(tmp_path, capsys):
    bad = """\
field QQ
quiver {
  vertices 1
  arrow a: 1 -> 1
}
ideal I { a }
"""
    path = write(tmp_path, bad)
    assert main(["validate", path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["quiver_ok"] is False
    assert report["cycle"] == ["a"]


def test_cli_validate_fractional_coefficients(tmp_path, capsys):
    doc = PARALLEL_PAIR_DOC.replace("ideal J { c*a - c*b }", "ideal J { c*a - 2*c*b }")
    path = write(tmp_path, doc)
    assert main(["validate", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # pivots are monic, so the reduced basis shows the exact rational -1/2
    assert report["ideals"]["J"]["reduced_basis"] == ["-1/2*c*a + c*b"]


def test_cli_input_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, PARALLEL_PAIR_DOC)
    assert main(["pi1", path, "--ideal", "missing"]) == 2
    assert main(["pi1", str(tmp_path / "absent.bq")]) == 2
    assert main(["pi1", write(tmp_path, "field QQ nonsense", "bad.bq")]) == 2


def test_cli_zero_denominator_is_an_input_error(tmp_path, capsys):
    # 1/0 has no value anywhere, and 2 is zero in GF(2)
    for field, coeff in (("QQ", "1/0"), ("GF(2)", "1/2")):
        doc = PARALLEL_PAIR_DOC.replace("field QQ", f"field {field}").replace("{ c*a }", "{ %s*c*a }" % coeff)
        with pytest.raises(InputError) as err:
            parse_input(doc)
        assert (err.value.line, err.value.column) == (9, 13)
        assert main(["validate", write(tmp_path, doc)]) == 2
    assert "line 9, column 13" in capsys.readouterr().err


def test_cli_fraction_maps_into_the_field_before_it_divides(tmp_path, capsys):
    def with_coefficient(field, coeff):
        return PARALLEL_PAIR_DOC.replace("field QQ", f"field {field}").replace("{ c*a }", "{ %s*c*a }" % coeff)

    # 2 is zero in GF(2), so 2/2 and 4/2 have no value there, although they
    # cancel over QQ
    for coeff in ("2/2", "4/2"):
        doc = with_coefficient("GF(2)", coeff)
        with pytest.raises(InputError) as err:
            parse_input(doc)
        assert (err.value.line, err.value.column) == (9, 13)
        assert main(["validate", write(tmp_path, doc)]) == 2
    assert "line 9, column 13" in capsys.readouterr().err
    for field, value in (("GF(3)", 2), ("QQ", Fraction(2))):
        parsed = parse_input(with_coefficient(field, "4/2"))
        assert parsed.ideal_generators["I"] == [{parsed.quiver.path(("a", "c")): value}]


def test_cli_budget_exhaustion_reports_unknowns(tmp_path, capsys):
    path = write(tmp_path, PARALLEL_PAIR_DOC)
    code = main(["gamma", path, "--ideal", "I", "--json", "--search-max-nodes", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["unknown_candidates"] > 0
    assert report["status"]["unknowns"]


def test_cli_budget_document_and_env(tmp_path, monkeypatch, capsys):
    doc = PARALLEL_PAIR_DOC + "budget search_max_nodes = 77\n"
    parsed = parse_input(doc)
    args = build_arg_parser().parse_args(["gamma", "x", "--ideal", "I"])
    budgets = resolve_budgets(parsed, vars(args))
    assert budgets.search_max_nodes == 77
    monkeypatch.setenv("BQUIVER_WORD_MAX_LEN", "9")
    budgets = resolve_budgets(parsed, vars(args))
    assert budgets.word_max_len == 9
    # flags outrank the document
    args2 = build_arg_parser().parse_args(["gamma", "x", "--ideal", "I", "--search-max-nodes", "5"])
    budgets2 = resolve_budgets(parsed, vars(args2))
    assert budgets2.search_max_nodes == 5
    with pytest.raises(InputError):
        resolve_budgets(parse_input(doc.replace("search_max_nodes", "bogus_key")), vars(args))


def test_cli_validate_flags_inadmissible_ideal(tmp_path, capsys):
    doc = PARALLEL_PAIR_DOC.replace("ideal I { c*a }", "ideal I { c*a ; 1*a }")
    path = write(tmp_path, doc)
    assert main(["validate", path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["quiver_ok"] is True
    assert report["ideals"]["I"]["admissible"] is False
    assert report["ideals"]["I"]["violations"]


def test_cli_base_flag_changes_the_tree(tmp_path, capsys):
    doc = PARALLEL_PAIR_DOC.replace("tree { a, c }\n", "")
    path = write(tmp_path, doc)
    assert main(["pi1", path, "--ideal", "I", "--base", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["base"] == "3"
    assert report["abelian_invariants"] == {"free_rank": 1, "torsion": []}
    assert main(["pi1", path, "--ideal", "I", "--base", "9"]) == 2


def test_cli_text_mode_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, PARALLEL_PAIR_DOC)
    outputs = []
    for _ in range(2):
        assert main(["theta", path, "--ideal", "I"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "image_dim: 1" in outputs[0]


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = write(tmp_path, TWO_TRIANGLES_DOC)
    outputs = []
    for _ in range(2):
        assert main(["verify", path, "--ideal", "I", "--json"]) in (0, 3)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for cmd in ("pi1", "homk", "hh1", "theta", "gamma"):
        first = None
        for _ in range(2):
            main([cmd, path, "--ideal", "K", "--json"])
            out = capsys.readouterr().out
            if first is None:
                first = out
            assert out == first
