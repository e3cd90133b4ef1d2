"""Command dispatch and report emission; the package's external surface.

Commands operate on a document file and print a deterministic report, either
human-readable or as canonical JSON (sorted keys, exact rationals rendered
as strings).  Exit codes: 0 ok, 1 a check failed, 2 input error (a malformed
command line among them), 3 some outcome stayed unknown (a homotopy
decision, an incomplete graph).
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple

from . import __version__
from .dsl import InputDocument, InputError, parse_input
from .hochschild import CohomologySpace, FDAlgebra
from .homotopy import SEARCH_MAX_NODES, GroupPresentation, abelian_invariants, homotopy_pairs
from .pathalg import _render
from .presentations import (
    Presentation,
    is_diagonalizable_set,
    is_maximal_diagonalizable,
)
from .quiver import QuiverError
from .relquiver import build_relation_quiver, sources_report, verify_main_theorem


def _node_limit(document: InputDocument) -> int:
    """The homotopy decision's node limit: the document's ``budget`` line,
    else the default."""
    return SEARCH_MAX_NODES if document.search_max_nodes is None else document.search_max_nodes


def _collect_unknowns(obj, found: list, trail: str = ""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{trail}.{k}" if trail else str(k)
            if (k == "status" or k == "verdict") and v == "unknown":
                found.append(key)
            elif k == "unknown" and isinstance(v, int) and v > 0:
                found.append(f"{key}={v}")
            elif k == "unknown_candidates" and isinstance(v, int) and v > 0:
                found.append(f"{key}={v}")
            elif k == "truncated" and v is True:
                found.append(key)
            else:
                _collect_unknowns(v, found, key)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _collect_unknowns(v, found, f"{trail}[{i}]")


# ---------- command payloads ----------

def _cmd_validate(document: InputDocument, args) -> tuple[dict, bool]:
    diag = document.quiver.validate()
    payload = {
        "quiver_ok": diag["ok"],
        "cycle": diag["cycle"],
        "components": diag["components"],
        "ideals": {},
    }
    ok = diag["ok"]
    if diag["ok"]:
        for name in document.ideal_generators:
            ideal = document.ideal(name)
            admissible, violations = ideal.is_admissible()
            payload["ideals"][name] = {
                "admissible": admissible,
                "violations": _violations(violations),
                "reduced_basis": [_render(ideal.quiver, ideal.field, e) for e in ideal.basis],
                "monomial": ideal.is_monomial(),
            }
            ok = ok and admissible
    return payload, ok


def _violations(violations) -> list:
    """Admissibility violations as the reports print them."""
    return [[i, str(p)] for i, p in violations]


def _admissible_ideal(document: InputDocument, args):
    name = args.ideal
    if name is None:
        if len(document.ideal_generators) != 1:
            raise InputError("this command needs --ideal NAME")
        [name] = document.ideal_generators
    ideal = document.ideal(name)
    admissible, violations = ideal.is_admissible()
    if not admissible:
        raise InputError(f"ideal {name!r} is not admissible: {json.dumps(_violations(violations))}")
    return name, ideal


def _cmd_pi1(document: InputDocument, args) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    pairs = homotopy_pairs(ideal)
    pres = GroupPresentation(document.quiver, tree, pairs)
    inv = abelian_invariants(pres)
    payload = {
        "ideal": name,
        "base": tree.base,
        "tree": sorted(tree.arrow_names),
        "generators": list(pres.generators),
        "relators": [pres.show_word(r) for r in pres.relators],
        "abelian_invariants": {"free_rank": inv.free_rank, "torsion": list(inv.torsion)},
        "abelian_name": str(inv),
    }
    return payload, True


def _cmd_homk(document: InputDocument, args) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    basis = GroupPresentation(document.quiver, tree, homotopy_pairs(ideal)).characters(document.field)
    payload = {
        "ideal": name,
        "dim": len(basis),
        "basis": [dict(sorted(w.items())) for w in basis],
    }
    return payload, True


def _cmd_hh1(document: InputDocument, args) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    space = CohomologySpace(FDAlgebra(ideal))
    payload = {
        "ideal": name,
        "dim": space.dim,
        "derivation_dim": len(space.der_basis),
        "inner_dim": len(space.inner_basis),
        "algebra_dim": space.algebra.dim,
    }
    return payload, True


def _class_vector(cls) -> list:
    """A class's coordinates as the dense list the reports print."""
    zero = cls.space.field.zero
    return [cls.coords.get(j, zero) for j in range(len(cls.space.der_basis))]


def _cmd_theta(document: InputDocument, args) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    space = CohomologySpace(FDAlgebra(ideal))
    pres = Presentation.natural(space, tree)
    image = pres.character_image()
    payload = {
        "ideal": name,
        "hom_dim": len(pres.hom),
        "image_dim": image.dim,
        "cohomology_dim": space.dim,
        "image_basis": [_class_vector(c) for c in image.basis_classes()],
        "diagonalizable": is_diagonalizable_set(image.basis_classes(), pres),
    }
    return payload, True


def _cmd_gamma(document: InputDocument, args) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    rq = build_relation_quiver(ideal, tree, _node_limit(document))
    report = sources_report(rq)
    payload = {
        "ideal": name,
        "vertices": len(rq.vertices),
        "arrows": [[a.source, a.target, a.bypass.arrow, str(a.bypass.path), a.tau] for a in rq.arrows],
        "arrow_count": len(rq.arrows),
        "vertex_ideals": [str(v.ideal) for v in rq.vertices],
        "unknown_candidates": len(rq.unknown_candidates),
        "truncated": rq.truncated,
        "exhaustive_taus": rq.exhaustive_taus,
        "sources": report,
    }
    # undecided homotopy surfaces through the unknown/truncated markers
    return payload, True


def _cmd_maxdiag(document: InputDocument, args) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    space = CohomologySpace(FDAlgebra(ideal))
    pres = Presentation.natural(space, tree)
    image = pres.character_image()
    verdict, witness = is_maximal_diagonalizable(image, pres)
    payload = {
        "ideal": name,
        "image_dim": image.dim,
        "cohomology_dim": space.dim,
        "verdict": verdict,
        "witness": None if witness is None else _class_vector(witness),
    }
    return payload, verdict != "no"


def _cmd_verify(document: InputDocument, args) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    report = verify_main_theorem(ideal, tree, _node_limit(document))
    report["ideal"] = name
    return report, report["statuses"]["fail"] == 0


_COMMANDS = {
    "validate": _cmd_validate,
    "pi1": _cmd_pi1,
    "homk": _cmd_homk,
    "hh1": _cmd_hh1,
    "theta": _cmd_theta,
    "gamma": _cmd_gamma,
    "maxdiag": _cmd_maxdiag,
    "verify": _cmd_verify,
}


def run(command: str, document: InputDocument, args) -> tuple[dict, int]:
    """Dispatch one command; returns the report and the exit code."""
    handler = _COMMANDS.get(command)
    if handler is None:
        raise InputError(f"unknown command {command!r}")
    # every command checks the names the flags give, used or not
    if args.ideal is not None and args.ideal not in document.ideal_generators:
        raise InputError(f"unknown ideal {args.ideal!r}")
    if args.base is not None and args.base not in document.quiver.vertex_index:
        raise InputError(f"unknown base vertex {args.base!r}")
    payload, ok = handler(document, args)
    report = {
        "command": command,
        "field": repr(document.field),
        "version": __version__,
    }
    report.update(payload)
    unknowns: list = []
    _collect_unknowns(report, unknowns)
    report["status"] = {"ok": bool(ok), "unknowns": unknowns}
    if not ok:
        code = 1
    elif unknowns:
        code = 3
    else:
        code = 0
    return report, code


def emit(report: dict, json_mode: bool) -> str:
    if json_mode:
        return json.dumps(report, sort_keys=True, separators=(",", ":"), default=str) + "\n"
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v if v != [] and v != {} else '-'}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(report)
    return "\n".join(lines) + "\n"


_USAGE = (
    "usage: bquiver {" + ",".join(sorted(_COMMANDS)) + "} FILE"
    " [--ideal NAME] [--base VERTEX] [--json]"
)

_HELP = f"""{_USAGE}

Exact invariants of a bound quiver algebra: fundamental groups of
presentations, character spaces, first Hochschild cohomology,
character-image subalgebras, and the succession graph of homotopy relations.

  FILE           input document (see the package README for the grammar); its
                 `budget` line sets the homotopy node limit (default {SEARCH_MAX_NODES})
  --ideal NAME   ideal name the command operates on
  --base VERTEX  base vertex for trees and fundamental groups
  --json         emit canonical JSON
  -h, --help     print this help and exit
"""

# the flags that take a value, by the field they set
_VALUE_FLAGS = {"--ideal": "ideal", "--base": "base"}


class Arguments(NamedTuple):
    """A parsed command line."""

    command: str
    file: str
    ideal: str | None = None
    base: str | None = None
    json: bool = False


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}\nbquiver: error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv) -> Arguments:
    """The command line: a command and a file, with the flags before, between
    or after them, each value as ``--flag VALUE`` or ``--flag=VALUE``; an
    item that starts with ``-`` is a flag, so no value does.

    ``-h`` or ``--help`` prints the help and exits 0.  Any other malformed
    line (an unknown flag or command, a missing value, a missing or extra
    positional) prints the usage and the error to stderr and exits 2.
    """
    positionals = []
    values: dict = {}
    items = iter(argv)
    for item in items:
        if not item.startswith("-"):
            positionals.append(item)
            continue
        flag, eq, value = item.partition("=")
        if flag in ("-h", "--help") and not eq:
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        if flag == "--json":
            if eq:
                _usage_error(f"argument --json: ignored explicit argument {value!r}")
            values["json"] = True
        elif flag in _VALUE_FLAGS:
            if not eq:
                value = next(items, None)
                if value is None or value.startswith("-"):
                    _usage_error(f"argument {flag}: expected one argument")
            values[_VALUE_FLAGS[flag]] = value
        else:
            _usage_error(f"unrecognized arguments: {item}")
    if positionals and positionals[0] not in _COMMANDS:
        choices = ", ".join(repr(c) for c in sorted(_COMMANDS))
        _usage_error(f"argument command: invalid choice: {positionals[0]!r} (choose from {choices})")
    if len(positionals) < 2:
        _usage_error("the following arguments are required: " + ", ".join(["command", "file"][len(positionals):]))
    if len(positionals) > 2:
        _usage_error("unrecognized arguments: " + " ".join(positionals[2:]))
    return Arguments(*positionals, **values)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
        # the newlines a text-mode read gives: \r\n, then a lone \r, read as \n
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        document = parse_input(text)
        report, code = run(args.command, document, args)
    except (InputError, QuiverError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit(report, args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
