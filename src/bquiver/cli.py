"""Command dispatch and report emission; the package's external surface.

Commands operate on a document file and print a deterministic report, either
human-readable or as canonical JSON (sorted keys, exact rationals rendered
as strings).  Exit codes: 0 ok, 1 a check failed, 2 input error, 3 a search
stopped at its limit, leaving unknown outcomes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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

def resolve_search_max_nodes(document: InputDocument, args) -> int:
    """The word search's node limit: the flag, else the document's
    ``budget`` line, else the default."""
    if args.search_max_nodes is not None:
        return args.search_max_nodes
    if document.search_max_nodes is not None:
        return document.search_max_nodes
    return SEARCH_MAX_NODES


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
    rq = build_relation_quiver(ideal, tree, resolve_search_max_nodes(document, args))
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
    # budget exhaustion surfaces through the unknown/truncated markers
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
    report = verify_main_theorem(ideal, tree, resolve_search_max_nodes(document, args))
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


def _budget_value(text: str) -> int:
    """A budget flag's value: a nonnegative integer, as on a ``budget`` line."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"budget values are nonnegative integers, not {text!r}")
    return int(text)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged, so every call shares it)."""
    parser = argparse.ArgumentParser(
        prog="bquiver",
        description=(
            "Exact invariants of a bound quiver algebra: fundamental groups of "
            "presentations, character spaces, first Hochschild cohomology, "
            "character-image subalgebras, and the succession graph of homotopy "
            "relations."
        ),
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("file", help="input document (see the package README for the grammar)")
    parser.add_argument("--ideal", help="ideal name the command operates on")
    parser.add_argument("--base", help="base vertex for trees and fundamental groups")
    parser.add_argument("--json", action="store_true", help="emit canonical JSON")
    parser.add_argument("--search-max-nodes", type=_budget_value, help=f"word-search node limit (default {SEARCH_MAX_NODES})")
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        document = parse_input(text)
        report, code = run(args.command, document, args)
    except (InputError, QuiverError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit(report, args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
