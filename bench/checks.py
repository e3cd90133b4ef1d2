"""Output checks for one CLI call, judged from the report and the quiver alone.

Each check returns ``(outcome, reason)`` with outcome ``ok``, ``unknown``
(a budget ran out: exit code 3 or a maxdiag ``unknown`` verdict) or ``fail``.
A call fails when it raises, exits with code 2, prints no parseable report,
or breaks one of the invariants below.  Failures of ``verify``'s own theorem
checks are tagged ``theorem``: they are findings of the program's
verification harness, not malformed output (see README.md).
"""

from __future__ import annotations

import json

OK, UNKNOWN, FAIL = "ok", "unknown", "fail"


class Context:
    """Reports of earlier calls on the same document, for cross-checks."""

    def __init__(self):
        self.pi1: dict = {}
        self.homk: dict = {}


def _expected_homk_dim(pi1: dict, p: int) -> int:
    inv = pi1["abelian_invariants"]
    return inv["free_rank"] + (sum(1 for t in inv["torsion"] if t % p == 0) if p else 0)


def check_hh1(inst, r, ctx):
    if r["dim"] != r["derivation_dim"] - r["inner_dim"]:
        return FAIL, "dim != derivation_dim - inner_dim"
    if inst.hereditary:
        if r["dim"] != inst.happel_dim():
            return FAIL, f"dim {r['dim']} != Happel {inst.happel_dim()}"
        if r["algebra_dim"] != inst.algebra_dim_hereditary():
            return FAIL, "algebra_dim != number of paths"
    return OK, ""


def check_pi1(inst, r, ctx):
    ctx.pi1[inst] = r
    return OK, ""


def check_homk(inst, r, ctx):
    ctx.homk[inst] = r
    pi1 = ctx.pi1.get(inst)
    if pi1 is not None and r["dim"] != _expected_homk_dim(pi1, inst.p):
        return FAIL, "dim disagrees with the abelianized fundamental group"
    return OK, ""


def check_theta(inst, r, ctx):
    homk = ctx.homk.get(inst)
    if homk is not None and r["hom_dim"] != homk["dim"]:
        return FAIL, "hom_dim != homk dim"
    if r["image_dim"] > r["hom_dim"]:
        return FAIL, "image_dim > hom_dim"
    return OK, ""


def check_maxdiag(inst, r, ctx):
    verdict = r["verdict"]
    if verdict == "unknown":
        return UNKNOWN, "maxdiag unknown"
    if inst.hereditary and verdict != "yes":
        return FAIL, "hereditary instance: Gamma is one source vertex, so maxdiag must say yes"
    return OK, ""


def check_gamma(inst, r, ctx):
    n = r["vertices"]
    edges = [(a[0], a[1]) for a in r["arrows"]]
    if any(not (0 <= s < n and 0 <= t < n) for s, t in edges):
        return FAIL, "arrow endpoint out of range"
    if not r["sources"]["sources"]:
        return FAIL, "no source"
    indeg = [0] * n
    for _, t in edges:
        indeg[t] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for s, t in edges:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
    if seen != n:
        return FAIL, "arrows form a cycle"
    return OK, ""


def check_verify(inst, r, ctx):
    fails = r["statuses"]["fail"]
    if fails:
        names = sorted({c["name"] for c in r["checks"] if c["status"] == "fail"})
        return FAIL, f"theorem: {fails} failed checks: " + "; ".join(names)
    return OK, ""


CHECKS = {
    "pi1": check_pi1,
    "homk": check_homk,
    "hh1": check_hh1,
    "theta": check_theta,
    "maxdiag": check_maxdiag,
    "gamma": check_gamma,
    "verify": check_verify,
}

# exit codes the CLI may return for a well-formed report of each command
ALLOWED_CODES = {"maxdiag": (0, 1, 3), "verify": (0, 1, 3), "gamma": (0, 3)}


def judge(cmd: str, inst, code, output: str, ctx: Context) -> tuple[str, str]:
    """Outcome of one call from its exit code (or exception text) and stdout."""
    if not isinstance(code, int):
        return FAIL, f"raised {code}"
    if code == 2:
        return FAIL, "exit code 2 (input error)"
    if code not in ALLOWED_CODES.get(cmd, (0,)):
        return FAIL, f"unexpected exit code {code}"
    try:
        report = json.loads(output)
    except ValueError:
        return FAIL, "no JSON report"
    try:
        outcome, reason = CHECKS[cmd](inst, report, ctx)
    except (KeyError, TypeError, IndexError) as exc:
        return FAIL, f"malformed report: {exc!r}"
    if outcome == OK and code == 3:
        return UNKNOWN, "exit code 3 (a budget ran out)"
    return outcome, reason
