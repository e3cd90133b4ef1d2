import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bquiver
from bquiver import GF, QQ, InputDocument, InputError, parse_input, relquiver, render_document
from bquiver import cli
from bquiver.cli import main, _parse_args
from bquiver.pathalg import _render

from conftest import random_admissible_ideal, random_quiver

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


# conftest.bridge with w: pi_1 is trivial, so w ~ u, but neither the closure
# nor the word search proves it
BRIDGE_W_DOC = """\
field GF(2)
quiver {
  vertices S, S2, M1, M2, T, T2
  arrow x: S -> M1
  arrow y: S -> M2
  arrow u: S2 -> M1
  arrow v: S2 -> M2
  arrow a: M1 -> T
  arrow b: M2 -> T
  arrow c: M1 -> T2
  arrow d: M2 -> T2
  arrow w: S2 -> M1
}
ideal I { a*x - b*y ; c*x - d*y ; a*u - b*v ; c*w - d*v }
"""


def write(tmp_path, text, name="doc.bq"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_golden_document():
    doc = parse_input(PARALLEL_PAIR_DOC)
    assert repr(doc.field) == "QQ"
    assert doc.quiver.arrow_names == ("a", "b", "c")
    assert list(doc.ideal_generators) == ["I", "J"]
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
    # and seeded draws, with rational and mod-p coefficients
    rng = random.Random(30)
    drawn = []
    for field in (QQ, GF(2), GF(3), GF(5)) * 4:
        q = random_quiver(rng, 6, 30)
        ideal = random_admissible_ideal(rng, q, field)
        drawn.append(render_document(InputDocument(field, q, {"I": list(ideal.basis), "Z": []})))
    for text in (PARALLEL_PAIR_DOC, TWO_TRIANGLES_DOC, KRONECKER_DOC, hereditary, with_zero, *drawn):
        doc1 = parse_input(text)
        rendered = render_document(doc1)
        doc2 = parse_input(rendered)
        assert render_document(doc2) == rendered
        assert list(doc2.ideal_generators) == list(doc1.ideal_generators)
        assert doc2.ideal_generators == doc1.ideal_generators
        assert doc2.quiver.vertices == doc1.quiver.vertices
        # rendering lists arrows in canonical name order
        key = lambda a: a.name
        assert sorted(doc2.quiver.arrows, key=key) == sorted(doc1.quiver.arrows, key=key)
        for name in doc1.ideal_generators:
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


# HH^1 has dimension 4; the brute force lists its diagonalizable spans when
# the field is small enough
BYPASS_PAIR_DOC = """\
field GF(19)
quiver {
  vertices 1, 2, 3
  arrow a: 1 -> 2
  arrow c: 2 -> 3
  arrow e: 1 -> 3
  arrow f: 1 -> 3
}
ideal I { c*a }
"""


def test_cli_verify_skips_brute_force_beyond_the_span_cap(tmp_path, capsys):
    # GF(29)^4 has 25260 lines, more than the maximality sweep may try, so
    # the brute force is off as for dimension 5 and up
    path = write(tmp_path, BYPASS_PAIR_DOC.replace("GF(19)", "GF(29)"))
    assert main(["verify", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cohomology_dim"] == 4
    assert report["brute_force"] == {"enabled": False}
    assert report["statuses"] == {"fail": 0, "pass": 2, "unknown": 0}


def test_cli_verify_pins_a_one_source_brute_force_report(tmp_path, capsys):
    # over GF(7) the sweep runs: 28 maximal subalgebras, all realized over
    # the one source's kernel, so each is carried onto its image
    path = write(tmp_path, BYPASS_PAIR_DOC.replace("GF(19)", "GF(7)"))
    assert main(["verify", path, "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["brute_force"] == {
        "enabled": True,
        "diagonalizable_count": 226,
        "maximal_count": 28,
        "conjugated_onto_source": 28,
    }
    assert report["statuses"] == {"fail": 0, "pass": 60, "unknown": 0}
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "45f0ecbd47dbc3a832f3a48242308e7c46541d009273dad4c4a875296bd3e937"


def test_cli_verify_pins_a_larger_brute_force_report(tmp_path, capsys):
    # over GF(13): 91 maximal subalgebras over one kernel, 91 conjugacy records
    path = write(tmp_path, BYPASS_PAIR_DOC.replace("GF(19)", "GF(13)"))
    assert main(["verify", path, "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["brute_force"] == {
        "enabled": True,
        "diagonalizable_count": 1276,
        "maximal_count": 91,
        "conjugated_onto_source": 91,
    }
    assert report["statuses"] == {"fail": 0, "pass": 186, "unknown": 0}
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "3a1613d93aabbfe2d0f3f6b3b24972762f91d854ef7446dc03f4fbc30fa4968a"


# a double bypass over GF(2): two of the four maximal subalgebras realize
# over kernels that no source presentation has
FOREIGN_KERNEL_DOC = """\
field GF(2)
quiver {
  vertices 1, 2, 3
  arrow a: 1 -> 2
  arrow b: 2 -> 3
  arrow c: 2 -> 3
  arrow d: 1 -> 3
}
ideal I { b*a + c*a }
"""


def test_cli_verify_conjugacy_is_unknown_without_a_source_kernel(tmp_path, capsys):
    path = write(tmp_path, FOREIGN_KERNEL_DOC)
    main(["verify", path, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["brute_force"]["maximal_count"] == 4
    assert report["brute_force"]["conjugated_onto_source"] == 2
    conjugacy = [c for c in report["checks"] if c["name"] == "maximal subalgebra conjugate onto a source image"]
    assert [c["status"] for c in conjugacy].count("pass") == 2
    unknown = [c for c in conjugacy if c["status"] == "unknown"]
    assert [c["detail"] for c in unknown] == ["no source presentation has its kernel"] * 2


BUDGETED_SOURCES_DOC = """\
field GF(2)
quiver {
  vertices 1, 2, 3, 4
  arrow a: 1 -> 2
  arrow d: 1 -> 2
  arrow b: 1 -> 3
  arrow c: 2 -> 4
  arrow e: 3 -> 4
}
ideal I { c*a + e*b ; c*a + c*d }
"""


def test_cli_verify_source_relation_is_unknown_while_the_budget_runs_out(tmp_path, capsys):
    # on bridge-w the word search runs out of its 1000 words, so Gamma keeps
    # 2 vertices, 3 unknown candidates and an ambiguous vertex, and no source
    # is known to share or to miss the maximal subalgebra's relation; the
    # closure decides every candidate of the other document, so there the
    # checks pass even when the search may keep no word
    name = "maximal subalgebra realizes over a source relation"
    for doc, gamma, checks in (
        (
            BRIDGE_W_DOC + "budget search_max_nodes = 1000\n",
            {"vertex_count": 2, "arrow_count": 0, "unknown_candidates": 3},
            [("unknown", "unknown candidates; ambiguous vertex 1")],
        ),
        (
            BUDGETED_SOURCES_DOC + "budget search_max_nodes = 0\n",
            {"vertex_count": 3, "arrow_count": 2, "unknown_candidates": 0},
            [("pass", None), ("pass", None)],
        ),
    ):
        main(["verify", write(tmp_path, doc), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert {k: report["gamma"][k] for k in gamma} == gamma
        assert [(c["status"], c["detail"]) for c in report["checks"] if c["name"] == name] == checks


# Dense-7 #55 over GF(3): the word search this oracle replaced left one of
# its 61 vertices ambiguous and 63 outcomes unknown
DENSE_55_DOC = """\
field GF(3)
quiver {
  vertices 1, 2, 3, 4, 5, 6, 7
  arrow a0: 1 -> 2
  arrow a1: 2 -> 3
  arrow a2: 3 -> 4
  arrow a3: 4 -> 5
  arrow a4: 4 -> 6
  arrow a5: 5 -> 7
  arrow a6: 5 -> 7
  arrow a7: 4 -> 5
  arrow a8: 5 -> 7
  arrow a9: 4 -> 5
  arrow a10: 5 -> 7
}
ideal I { a6*a3*a2; a7*a2*a1*a0 }
"""


def test_cli_verify_decides_every_homotopy_on_dense_55(tmp_path, capsys):
    assert main(["verify", write(tmp_path, DENSE_55_DOC), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gamma"]["vertex_count"] == 60 and report["gamma"]["unknown_candidates"] == 0
    assert report["sources"]["complete"] and report["sources"]["sources"] == [0]
    assert report["statuses"] == {"pass": 120, "fail": 0, "unknown": 0}
    assert report["status"] == {"ok": True, "unknowns": []}


def test_cli_verify_is_unknown_where_gamma_is_truncated(tmp_path, capsys, monkeypatch):
    # at the default vertex limit the report is as pinned; cut at its first
    # vertex, the graph's one source need not be Gamma's, so every check that
    # reads the sources is unknown and names the truncation, and none fails
    path = write(tmp_path, BUDGETED_SOURCES_DOC)
    assert main(["verify", path, "--json"]) == 1
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "b056d609a5ee8f3f5820f962ecc8a70af5c504c9b736be7ae2a21984a05ff48c"
    monkeypatch.setattr(relquiver, "_GRAPH_MAX_VERTICES", 0)
    assert main(["verify", path, "--json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["gamma"]["truncated"] and not report["sources"]["complete"]
    unknown = [c for c in report["checks"] if c["status"] == "unknown"]
    assert len(unknown) == 7 and {c["detail"] for c in unknown} == {"Γ truncated"}
    # the truncation itself is the eighth unknown
    assert report["statuses"] == {"pass": 1, "fail": 0, "unknown": 8}


def test_cli_verify_conjugacy_check_fails_on_a_wrong_conjugation(tmp_path, capsys, monkeypatch):
    # conjugating every class to zero must fail every maximal subalgebra
    # that is carried onto a source image
    monkeypatch.setattr(relquiver, "conjugate_class", lambda space, rho, classes: [space.zero_class() for _ in classes])
    path = write(tmp_path, BYPASS_PAIR_DOC.replace("GF(19)", "GF(7)"))
    assert main(["verify", path, "--json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert len(failed) == 28
    assert {c["name"] for c in failed} == {"maximal subalgebra conjugate onto a source image"}


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


def test_cli_unreadable_input_is_an_input_error(tmp_path, capsys):
    # a directory, and a file that is not UTF-8 (a UTF-16 byte-order mark)
    utf16 = tmp_path / "utf16.bq"
    utf16.write_bytes(b"\xff\xfe" + PARALLEL_PAIR_DOC.encode("utf-16-le"))
    for path in (str(tmp_path), str(utf16)):
        assert main(["hh1", path, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_cli_zero_denominator_is_an_input_error(tmp_path, capsys):
    # 1/0 has no value anywhere, and 2 is zero in GF(2)
    for field, coeff in (("QQ", "1/0"), ("GF(2)", "1/2")):
        doc = PARALLEL_PAIR_DOC.replace("field QQ", f"field {field}").replace("{ c*a }", "{ %s*c*a }" % coeff)
        with pytest.raises(InputError) as err:
            parse_input(doc)
        assert (err.value.line, err.value.column) == (9, 13)
        assert main(["validate", write(tmp_path, doc)]) == 2
    assert "line 9, column 13" in capsys.readouterr().err


def test_parse_errors_carry_line_and_column():
    # a carriage return and a tab are one column each; a comment is skipped
    cases = (
        ("field QQ\r\n# note\nquiver {\n\tvertices 1, 2\n  arrow a: 1 -> 2 @\n}\n",
         "unexpected character '@'", (5, 19)),
        ("field QQ\nquiver {\n  vertices 1, 2\n  arrow a: 1 -> 2\n", "expected '}', found ''", (5, 1)),
        # a form feed, a vertical tab and a no-break space are not whitespace here
        ("field QQ\n\fquiver {\n", "unexpected character '\\x0c'", (2, 1)),
        ("field\vQQ\n", "unexpected character '\\x0b'", (1, 6)),
        ("field QQ\nquiver {\n  vertices\xa01, 2\n", "unexpected character '\\xa0'", (3, 11)),
    )
    for text, message, (line, column) in cases:
        with pytest.raises(InputError) as err:
            parse_input(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"{message} (line {line}, column {column})"


def _reference_tokens(text):
    """(offset, token, line, column) of each token of an ASCII document, by a
    scan of each line that shares nothing with the parser's."""
    out = []
    start = 0
    for line_no, line in enumerate(text.split("\n"), 1):
        code = line.split("#", 1)[0]
        col = 0
        while col < len(code):
            end = col + 1
            if code[col].isalnum() or code[col] == "_":
                while end < len(code) and (code[end].isalnum() or code[end] == "_"):
                    end += 1
            elif code.startswith("->", col):
                end = col + 2
            if not code[col].isspace():
                out.append((start + col, code[col:end], line_no, col + 1))
            col = end
        start += len(line) + 1
    return out


@pytest.mark.parametrize(
    "text", [PARALLEL_PAIR_DOC, TWO_TRIANGLES_DOC, KRONECKER_DOC], ids=["pair", "triangles", "kronecker"]
)
def test_an_error_in_place_of_any_token_points_at_it(text):
    tokens = _reference_tokens(text)
    assert "".join(t for _, t, _, _ in tokens) == "".join(
        line.split("#", 1)[0] for line in text.split("\n")
    ).translate({ord(c): None for c in " \t\r"})
    named = 0
    for offset, token, line, column in tokens:
        with pytest.raises(InputError) as err:
            parse_input(text[:offset] + "@" + text[offset + len(token):])
        assert str(err.value) == f"unexpected character '@' (line {line}, column {column})", token
        # a symbol out of place is an error at that token, when it is one
        try:
            parse_input(text[:offset] + "=" + text[offset + len(token):])
        except InputError as exc:
            if "'='" in str(exc):
                named += 1
                assert (exc.line, exc.column) == (line, column), (token, str(exc))
    assert named > len(tokens) // 2


def test_a_bad_character_is_the_error_wherever_it_stands():
    # after an earlier error, and where a number is read: other scripts'
    # digits are not digits here
    last_line = PARALLEL_PAIR_DOC.count("\n") + 1
    cases = (
        (PARALLEL_PAIR_DOC.replace("field QQ", "field FOO") + "@", "'@'", (last_line, 1)),
        (PARALLEL_PAIR_DOC.replace("{ c*a }", "{ \u0663*c*a }"), "'\u0663'", (9, 11)),
        (PARALLEL_PAIR_DOC + "budget search_max_nodes = \u00b2\n", "'\xb2'", (last_line, 27)),
        (PARALLEL_PAIR_DOC.replace("field QQ", "field GF(\u0663)"), "'\u0663'", (2, 10)),
    )
    for text, shown, (line, column) in cases:
        with pytest.raises(InputError) as err:
            parse_input(text)
        assert str(err.value) == f"unexpected character {shown} (line {line}, column {column})"


def test_cli_crlf_input_errors_match_their_lf_copies(tmp_path, capsys):
    for text in (
        ONE_IDEAL_DOC.replace("2 -> 3", "2 -> 4"),
        ONE_IDEAL_DOC + "tree { a, z }\n",
        ONE_IDEAL_DOC.replace("arrow c: 2 -> 3", "arrow c: 2 -> 3 @"),
        "field QQ\nquiver {\n  vertices 1, 2\n  arrow a: 1 -> 2\n",
    ):
        errors = []
        for newline in ("\n", "\r\n"):
            path = tmp_path / "doc.bq"
            path.write_bytes(text.replace("\n", newline).encode())
            assert main(["gamma", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1] and "(line " in errors[0]


def test_cli_reads_a_document_as_text_mode_does(tmp_path, capsys):
    # the CLI reads bytes and maps the newlines itself, as text mode's
    # universal newlines do, so an error is placed as on a text-mode read
    text = ONE_IDEAL_DOC + "tree { a, z }\n"
    path = tmp_path / "doc.bq"
    for newline in ("\r", "\r\n", "\n\r", "\r\r\n"):
        path.write_bytes(text.replace("\n", newline).encode())
        with pytest.raises(InputError) as err:
            parse_input(path.read_text(encoding="utf-8"))
        assert main(["gamma", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {err.value}\n")
    path.write_bytes(b"field QQ \xff\n")
    assert main(["gamma", str(path)]) == 2
    assert "can't decode byte 0xff" in capsys.readouterr().err


def test_cli_runs_as_a_process(tmp_path, capsys):
    path = write(tmp_path, KRONECKER_DOC)
    src = str(Path(bquiver.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "bquiver.cli", "hh1", path, "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code = main(["hh1", path, "--json"])
    out = capsys.readouterr().out
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
    assert json.loads(out)["dim"] == 3


def test_blank_lines_tabs_and_crlf_parse_like_plain_text():
    spaced = (
        PARALLEL_PAIR_DOC.replace("\n", "\r\n\r\n").replace("  ", "\t").replace(" ", " \t ")
        .replace("*", "\t*\t").replace("->", "\r\n->\t")
    )
    plain, parsed = parse_input(PARALLEL_PAIR_DOC), parse_input("\n\t \r\n" + spaced)
    assert render_document(parsed) == render_document(plain)
    assert parsed.ideal_generators == plain.ideal_generators


ONE_IDEAL_DOC = PARALLEL_PAIR_DOC.replace("ideal J { c*a - c*b }\n", "").replace("tree { a, c }\n", "")


@pytest.mark.parametrize(
    "text, argv, message, position",
    [
        (ONE_IDEAL_DOC.replace("field QQ", "field FOO"), [], "unknown field 'FOO'", (2, 7)),
        (ONE_IDEAL_DOC.replace("field QQ", "field GF(x)"), [], "expected a prime number", (2, 10)),
        ("field QQ\nquiver {\n  vertices 1, 2\n}\n", [], "a quiver needs at least one arrow declaration", (4, 1)),
        (ONE_IDEAL_DOC.replace("vertices 1, 2, 3", "vertices 1, 2, 2"), [], "duplicate vertex names", (4, 18)),
        (ONE_IDEAL_DOC.replace("arrow b", "arrow a"), [], "duplicate arrow name 'a'", (6, 9)),
        (ONE_IDEAL_DOC.replace("2 -> 3", "2 -> 4"), [], "arrow 'c' has an unknown endpoint", (7, 17)),
        (ONE_IDEAL_DOC + "ideal I { c*b }\n", [], "ideal 'I' declared twice", (10, 7)),
        (ONE_IDEAL_DOC.replace("{ c*a }", "{ 1/x*c*a }"), [], "expected a denominator", (9, 13)),
        (ONE_IDEAL_DOC + "tree { a, z }\n", [], "unknown arrow 'z' in tree", (10, 11)),
        (ONE_IDEAL_DOC + "tree { a, c }\ntree { b, c }\n", [], "tree declared twice", (11, 1)),
        (ONE_IDEAL_DOC + "tree { a, c, c }\n", [], "duplicate arrow 'c' in tree", (10, 14)),
        (
            ONE_IDEAL_DOC + "budget search_max_nodes = 5\nbudget search_max_nodes = 7\n",
            [],
            "budget search_max_nodes declared twice",
            (11, 1),
        ),
        (ONE_IDEAL_DOC + "budget bogus_key = 5\n", [], "unknown budget keys ['bogus_key']", (10, 8)),
        (PARALLEL_PAIR_DOC, ["--ideal", "K"], "unknown ideal 'K'", None),
        (PARALLEL_PAIR_DOC, [], "this command needs --ideal NAME", None),
        (ONE_IDEAL_DOC, ["--ideal="], "unknown ideal ''", None),
        (ONE_IDEAL_DOC, ["--base="], "unknown base vertex ''", None),
        (ONE_IDEAL_DOC.replace("{ c*a }", "{ a }"), [], 'ideal \'I\' is not admissible: [[0, "a"]]', None),
    ],
    ids=[
        "unknown-field", "non-numeric-prime", "no-arrow", "duplicate-vertex", "duplicate-arrow",
        "unknown-endpoint", "ideal-twice",
        "non-numeric-denominator", "unknown-tree-arrow", "tree-twice", "duplicate-tree-arrow", "budget-twice",
        "unknown-budget-key", "unknown-ideal", "no-ideal-flag", "empty-ideal-flag", "empty-base-flag", "not-admissible",
    ],
)
def test_cli_input_errors_exit_2_with_their_message(tmp_path, capsys, text, argv, message, position):
    assert main(["gamma", write(tmp_path, text)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where = f" (line {position[0]}, column {position[1]})" if position else ""
    assert captured.err == f"error: {message}{where}\n"


def test_render_parse_keeps_the_tree_and_budget_lines():
    doc1 = parse_input(PARALLEL_PAIR_DOC + "budget search_max_nodes = 77\n")
    rendered = render_document(doc1)
    assert rendered.endswith("tree { a, c }\nbudget search_max_nodes = 77\n")
    doc2 = parse_input(rendered)
    assert (doc2.tree_arrows, doc2.search_max_nodes) == (("a", "c"), 77)
    assert render_document(doc2) == rendered


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
    for limit in (0, 1000):
        path = write(tmp_path, BRIDGE_W_DOC + f"budget search_max_nodes = {limit}\n")
        code = main(["gamma", path, "--ideal", "I", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert (report["vertices"], report["arrow_count"], report["unknown_candidates"]) == (2, 0, 3)
        assert report["status"]["unknowns"] == ["unknown_candidates=3"]


def test_cli_zero_node_limit_still_decides_by_the_closure(tmp_path, capsys):
    # the node limit caps the word search alone: with no word to keep, the
    # closure and the abelianization decide every candidate of the pair
    path = write(tmp_path, PARALLEL_PAIR_DOC + "budget search_max_nodes = 0\n")
    assert main(["gamma", path, "--ideal", "I", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["vertices"], report["arrow_count"], report["unknown_candidates"]) == (2, 1, 0)
    assert report["sources"]["complete"] and not report["truncated"]


def test_cli_budget_document_and_flags(tmp_path, monkeypatch, capsys):
    doc = PARALLEL_PAIR_DOC + "budget search_max_nodes = 77\n"
    # the node limit gamma and verify build under, as the sweep receives it
    limits = []

    def build(ideal, tree, search_max_nodes):
        limits.append(search_max_nodes)
        return relquiver.build_relation_quiver(ideal, tree, search_max_nodes)

    monkeypatch.setattr(cli, "build_relation_quiver", build)
    for text in (PARALLEL_PAIR_DOC, doc):
        assert main(["gamma", write(tmp_path, text), "--ideal", "I"]) == 0
    assert limits == [100_000, 77]
    # the environment is no source of budgets
    monkeypatch.setenv("BQUIVER_SEARCH_MAX_NODES", "9")
    assert main(["gamma", write(tmp_path, doc), "--ideal", "I"]) == 0
    assert limits[-1] == 77
    # nor is the command line: the document is the one place that sets it
    with pytest.raises(SystemExit) as exited:
        _parse_args(["gamma", "x", "--ideal", "I", "--search-max-nodes", "5"])
    assert exited.value.code == 2
    capsys.readouterr()
    # a key that is no budget is rejected on every surface; the fixed
    # limits are no budgets
    removed = ("word_max_len", "graph_max_vertices", "graph_max_candidates", "maxdiag_max_candidates")
    for key in ("bogus_key", "factor_max_nodes") + removed:
        with pytest.raises(InputError, match="unknown budget keys"):
            parse_input(doc.replace("search_max_nodes", key))
    for key in ("factor_max_nodes",) + removed:
        with pytest.raises(SystemExit) as exited:
            _parse_args(["gamma", "x", f"--{key.replace('_', '-')}", "5"])
        assert exited.value.code == 2


def test_cli_negative_budget_is_an_input_error(tmp_path, capsys):
    # the document line is refused by the parser; zero stays a budget
    for value in ("-5", "x"):
        doc = PARALLEL_PAIR_DOC + f"budget search_max_nodes = {value}\n"
        assert main(["gamma", write(tmp_path, doc, "neg.bq"), "--ideal", "I"]) == 2
        err = capsys.readouterr().err
        assert "line 12" in err and "budget values are nonnegative integers" in err
    doc = BRIDGE_W_DOC + "budget search_max_nodes = 0\n"
    assert main(["gamma", write(tmp_path, doc, "zero.bq"), "--ideal", "I"]) == 3


def test_cli_budget_line_takes_ascii_digits_only(tmp_path, capsys):
    # other Unicode digits are no budget: each is an input error at its
    # position, and the command line offers no other way in
    for value in ("\u0663", "\u00b2"):
        doc = PARALLEL_PAIR_DOC + f"budget search_max_nodes = {value}\n"
        assert main(["gamma", write(tmp_path, doc), "--ideal", "I"]) == 2
        assert capsys.readouterr().err == f"error: unexpected character {value!r} (line 12, column 27)\n"
        with pytest.raises(SystemExit) as exited:
            main(["gamma", write(tmp_path, PARALLEL_PAIR_DOC), "--ideal", "I", "--search-max-nodes", value])
        assert exited.value.code == 2
        assert capsys.readouterr().err.endswith("unrecognized arguments: --search-max-nodes\n")


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


COMMANDS = ("validate", "pi1", "homk", "hh1", "theta", "gamma", "maxdiag", "verify")


def test_every_command_rejects_an_unknown_base_or_ideal(tmp_path, capsys):
    # a command that does not use the flag still checks the name it gives
    path = write(tmp_path, ONE_IDEAL_DOC)
    for cmd in COMMANDS:
        for flags, message in ((["--base", "9"], "unknown base vertex '9'"), (["--ideal", "J"], "unknown ideal 'J'")):
            assert main([cmd, path] + flags) == 2, (cmd, flags)
            assert capsys.readouterr() == ("", f"error: {message}\n"), (cmd, flags)


@pytest.mark.parametrize(
    "argv, outcome",
    [
        # a good line: (command, file, ideal, base, json)
        (["gamma", "x", "--ideal", "I"], ("gamma", "x", "I", None, False)),
        (["gamma", "x", "--ideal=I"], ("gamma", "x", "I", None, False)),
        (["--json", "--ideal", "I", "gamma", "x"], ("gamma", "x", "I", None, True)),
        (["--base=3", "pi1", "--json", "x"], ("pi1", "x", None, "3", True)),
        (["hh1", "x", "--base", "1", "--base=2", "--ideal="], ("hh1", "x", "", "2", False)),
        # help: exit 0
        (["-h"], 0),
        (["gamma", "x", "--help"], 0),
        # a malformed line: exit 2
        (["gamma", "x", "--bogus"], 2),
        (["gamma", "x", "-x"], 2),
        (["gamma", "x", "--sea", "5"], 2),
        (["gamma", "x", "--ideal"], 2),
        (["gamma", "x", "--base", "--json"], 2),
        (["gamma", "x", "--json=yes"], 2),
        (["gamma", "x", "--search-max-nodes", "5"], 2),
        ([], 2),
        (["--json"], 2),
        (["gamma"], 2),
        (["gamma", "x", "y"], 2),
        (["frobnicate", "x"], 2),
        # an item that starts with "-" is a flag, a negative number too
        (["gamma", "x", "--base", "-1"], 2),
        (["gamma", "-5", "x"], 2),
    ],
)
def test_the_command_line_parser(capsys, argv, outcome):
    if isinstance(outcome, tuple):
        assert tuple(_parse_args(argv)) == outcome
        return
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == outcome
    out, err = capsys.readouterr()
    if outcome == 0:
        assert err == "" and all(cmd in out for cmd in COMMANDS)
    else:
        assert out == "" and err.startswith("usage: bquiver ") and err.splitlines()[-1].startswith("bquiver: error: ")


def test_cli_text_mode_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, PARALLEL_PAIR_DOC)
    outputs = []
    for _ in range(2):
        assert main(["theta", path, "--ideal", "I"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "image_dim: 1" in outputs[0]


def test_cli_text_mode_reports_are_pinned(tmp_path, capsys):
    # the sha256 of text-mode stdout: a QQ image, a GF(3) graph and a verify report
    from test_golden_digests import FRACTIONS_DOC, GF3_DOC

    pins = (
        ("theta", FRACTIONS_DOC, "R", "488fb76667ba359a9b3aa19ecf4060cab8f2fdf55b92851eaa718531a3f8c8e3"),
        ("gamma", GF3_DOC, "I", "e965c12d542340aea816d6475b9b17359152fcc6d3e7e7d01ba535ec92ee0b12"),
        ("verify", TWO_TRIANGLES_DOC, "I", "afb80b3010322bf2aaa2d6996eaee0a7ccf3b3b88deb4ef3505270c813d6d45f"),
    )
    for cmd, text, ideal, digest in pins:
        assert main([cmd, write(tmp_path, text, f"{cmd}.bq"), "--ideal", ideal]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, cmd


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


def test_cli_prints_every_rational_scalar_as_a_string(tmp_path, capsys):
    """A QQ scalar that leaked out of the field as an int would print as a
    JSON number; on random QQ instances every printed scalar is a string."""
    rng = random.Random(25)
    seen = {"homk": [], "theta": [], "maxdiag": []}
    for k in range(24):
        q = random_quiver(rng, 5, 30)
        ideal = random_admissible_ideal(rng, q, QQ)
        doc = InputDocument(QQ, q, {"I": list(ideal.basis)})
        path = write(tmp_path, render_document(doc), f"doc{k}.bq")
        for cmd, key in (("homk", "basis"), ("theta", "image_basis"), ("maxdiag", "witness")):
            main([cmd, path, "--json"])
            value = json.loads(capsys.readouterr().out)[key]
            rows = [] if value is None else [value] if cmd == "maxdiag" else value
            for row in rows:
                scalars = list(row.values()) if isinstance(row, dict) else row
                assert all(isinstance(x, str) for x in scalars), (cmd, scalars)
                seen[cmd].extend(scalars)
    # every key printed a scalar on some instance, and nonzero ones among them
    assert all(any(Fraction(x) for x in scalars) for scalars in seen.values())
