"""Command dispatch and report emission; the package's external surface.

Commands operate on a document file and print a deterministic report, either
human-readable or as canonical JSON (sorted keys, exact rationals rendered
as strings).  Exit codes: 0 ok, 1 a check failed, 2 input error, 3 budgets
ran out leaving unknown outcomes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .budgets import DEFAULT_BUDGETS, Budgets
from .dsl import InputDocument, InputError, parse_input
from .hochschild import CohomologySpace, FDAlgebra
from .homotopy import (
    abelian_invariants,
    hom_space,
    homotopy_pairs,
    pi1_presentation,
)
from .pathalg import _render
from .presentations import (
    Presentation,
    is_diagonalizable_set,
    is_maximal_diagonalizable,
)
from .quiver import QuiverError
from .relquiver import build_relation_quiver, sources_report, verify_main_theorem

_BUDGET_KEYS = (
    "word_max_len",
    "search_max_nodes",
    "graph_max_vertices",
    "graph_max_candidates",
    "maxdiag_max_candidates",
    "factor_max_nodes",
)

_ENV_PREFIX = "BQUIVER_"


def _env_budgets() -> dict:
    out = {}
    for key in _BUDGET_KEYS:
        raw = os.environ.get(_ENV_PREFIX + key.upper())
        if raw is not None:
            try:
                out[key] = int(raw)
            except ValueError:
                raise InputError(f"environment budget {key} must be an integer, got {raw!r}")
    return out


def resolve_budgets(document: InputDocument, flag_values: dict) -> Budgets:
    """Defaults, then environment, then document settings, then flags."""
    budgets = DEFAULT_BUDGETS
    budgets = budgets.with_overrides(**_env_budgets())
    unknown = set(document.budget_settings) - set(_BUDGET_KEYS)
    if unknown:
        raise InputError(f"unknown budget keys {sorted(unknown)}")
    budgets = budgets.with_overrides(**document.budget_settings)
    budgets = budgets.with_overrides(**{k: v for k, v in flag_values.items() if k in _BUDGET_KEYS})
    return budgets


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    return str(obj)


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

def _cmd_validate(document: InputDocument, args, budgets) -> tuple[dict, bool]:
    diag = document.quiver.validate()
    payload = {
        "quiver_ok": diag["ok"],
        "cycle": diag["cycle"],
        "components": diag["components"],
        "ideals": {},
    }
    ok = diag["ok"]
    if diag["ok"]:
        for name in document.ideal_order:
            ideal = document.ideal(name)
            admissible, violations = ideal.is_admissible()
            payload["ideals"][name] = {
                "admissible": admissible,
                "violations": [[i, str(p)] for i, p in violations],
                "reduced_basis": [_render(ideal.quiver, ideal.field, e) for e in ideal.basis],
                "monomial": ideal.is_monomial(),
            }
            ok = ok and admissible
    return payload, ok


def _require_ideal(document: InputDocument, args) -> str:
    if not args.ideal:
        if len(document.ideal_order) == 1:
            return document.ideal_order[0]
        raise InputError("this command needs --ideal NAME")
    if args.ideal not in document.ideal_generators:
        raise InputError(f"unknown ideal {args.ideal!r}")
    return args.ideal


def _admissible_ideal(document: InputDocument, args):
    name = _require_ideal(document, args)
    ideal = document.ideal(name)
    admissible, violations = ideal.is_admissible()
    if not admissible:
        raise InputError(f"ideal {name!r} is not admissible: {violations}")
    return name, ideal


def _cmd_pi1(document: InputDocument, args, budgets) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    pairs = homotopy_pairs(ideal)
    pres = pi1_presentation(document.quiver, tree, pairs)
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


def _cmd_homk(document: InputDocument, args, budgets) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    hs = hom_space(document.quiver, tree, homotopy_pairs(ideal), document.field)
    payload = {
        "ideal": name,
        "dim": hs.dim,
        "basis": [dict(sorted(w.items())) for w in hs.basis],
    }
    return payload, True


def _cmd_hh1(document: InputDocument, args, budgets) -> tuple[dict, bool]:
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


def _cmd_theta(document: InputDocument, args, budgets) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    space = CohomologySpace(FDAlgebra(ideal))
    pres = Presentation.natural(space, tree)
    image = pres.character_image()
    payload = {
        "ideal": name,
        "hom_dim": pres.hom.dim,
        "image_dim": image.dim,
        "cohomology_dim": space.dim,
        "image_basis": [_class_vector(c) for c in image.basis_classes()],
        "diagonalizable": is_diagonalizable_set(image.basis_classes(), pres.adapted_basis_blocks()),
    }
    return payload, True


def _cmd_gamma(document: InputDocument, args, budgets) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    rq = build_relation_quiver(ideal, tree, budgets)
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


def _cmd_maxdiag(document: InputDocument, args, budgets) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    space = CohomologySpace(FDAlgebra(ideal))
    pres = Presentation.natural(space, tree)
    image = pres.character_image()
    verdict, witness = is_maximal_diagonalizable(image, budgets, pres.adapted_basis_blocks())
    payload = {
        "ideal": name,
        "image_dim": image.dim,
        "cohomology_dim": space.dim,
        "verdict": verdict,
        "witness": None if witness is None else _class_vector(witness),
    }
    return payload, verdict != "no"


def _cmd_verify(document: InputDocument, args, budgets) -> tuple[dict, bool]:
    name, ideal = _admissible_ideal(document, args)
    tree = document.spanning_tree(args.base)
    report = verify_main_theorem(ideal, tree, budgets)
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


def run(command: str, document: InputDocument, args, budgets: Budgets) -> tuple[dict, int]:
    """Dispatch one command; returns the report and the exit code."""
    handler = _COMMANDS.get(command)
    if handler is None:
        raise InputError(f"unknown command {command!r}")
    payload, ok = handler(document, args, budgets)
    report = {
        "command": command,
        "field": repr(document.field),
        "version": __version__,
    }
    report.update(_jsonable(payload))
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
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
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
        epilog=(
            "Budget environment overrides (lowest precedence after defaults): "
            + ", ".join(_ENV_PREFIX + k.upper() for k in _BUDGET_KEYS)
        ),
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("file", help="input document (see the package README for the grammar)")
    parser.add_argument("--ideal", help="ideal name the command operates on")
    parser.add_argument("--base", help="base vertex for trees and fundamental groups")
    parser.add_argument("--json", action="store_true", help="emit canonical JSON")
    for key in _BUDGET_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", type=int, dest=key)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        document = parse_input(text)
        budgets = resolve_budgets(document, vars(args))
        report, code = run(args.command, document, args, budgets)
    except (InputError, QuiverError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit(report, args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
