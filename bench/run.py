"""Benchmark of the bquiver command line on seeded, generated documents.

Run from the repository root::

    python3 bench/run.py --workload lie-qq --seed 1 --seconds 30 --trace 0

The workloads are defined in ``gen.py`` and described in README.md.  One
process serves one workload with a single caller in a closed loop: each
``bquiver.cli.main([cmd, file, "--json"])`` call starts when the previous
one returns, with stdout captured.  A pass runs the workload's whole call
list; passes repeat while the next one still fits in ``--seconds``.

Every output is checked (``checks.py``).  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
the run times untraced passes for half of ``--seconds``, then one traced
pass (``tracing.py``), and reports the per-layer metrics and the tracing
overhead.
Lines above the last one give the details: tail percentile and sample
count, failure and unknown shares, the report digest and each failed call.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import gen
import tracing

SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
OUT_DIR = ".bench_out"
# Times are reported in reference seconds: measured seconds times
# REFERENCE_S over the time the calibration loop took around them.  The
# shared host this was built on switches between two speeds 1.8x apart in
# phases of seconds to minutes, which moved raw times of identical work by
# 0.1 to 0.3 of their median across 30-second runs; scaling cut most of
# that.  Raw seconds are printed above the result line.
REFERENCE_S = 0.001


def load_package(root: Path):
    """Import bquiver afresh from ``root/src``; refuse any other copy."""
    for name in [m for m in sys.modules if m == "bquiver" or m.startswith("bquiver.")]:
        del sys.modules[name]
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    package = importlib.import_module("bquiver")
    importlib.import_module("bquiver.cli")
    if Path(package.__file__).resolve().parent != (root / "src" / "bquiver").resolve():
        raise ImportError(f"bquiver imported from {package.__file__}, not from {src}")
    return package


def setup(root: Path, workload: str, seed: int, docdir: Path):
    """Import, generate and write the documents; returns (package, calls).

    A call is ``(command, instance, file, repeat)``; the first call of each
    command is repeated at once (``repeat`` True) to check determinism.
    """
    package = load_package(root)
    spec = gen.WORKLOADS[workload]
    shutil.rmtree(docdir, ignore_errors=True)
    docdir.mkdir(parents=True)
    calls = []
    for i, inst in enumerate(spec.instances(workload, seed)):
        path = docdir / f"{i:03d}-{inst.name}-{inst.field_name}.bq"
        path.write_text(inst.text(), encoding="utf-8")
        for cmd in spec.commands:
            if (inst.name, cmd) in spec.skip:
                continue
            calls.append((cmd, inst, str(path), False))
            if i == 0:
                calls.append((cmd, inst, str(path), True))
    return package, calls


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop mixing the operations
    bquiver spends its time on: Fraction and modular arithmetic, tuples and
    dicts.  It does not touch the program, so it measures the machine."""
    t0 = time.perf_counter()
    acc, table, word = Fraction(0), {}, ()
    for i in range(1, 160):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[(i % 13, i % 7)] = (table.get((i % 11, i % 7), 1) * 31 + i) % 13
        word = (word + (i % 5,))[-8:]
    return time.perf_counter() - t0


def local_scales(calibrations: list) -> list[float]:
    """Factor turning each call's measured seconds into reference seconds.

    ``calibrations[i]`` ran just before call i and the last one after the
    final call; call i uses the median of the loops from before call i - 1
    to after call i + 1, so a scale follows the host through a pass.
    """
    n = len(calibrations) - 1
    return [REFERENCE_S / statistics.median(calibrations[max(0, i - 1): i + 3]) for i in range(n)]


def run_pass(cli, calls, tracer=None):
    """One pass over the call list: (seconds, latencies, codes, outputs, scales).

    The seconds are the sum of the call latencies.  A garbage collection and
    the calibration loop run between calls, outside the timed calls;
    ``scales`` come from the loop.
    """
    latencies, codes, outputs, calibrations = [], [], [], []
    sink = io.StringIO()
    clock = time.perf_counter
    for i, (cmd, _inst, path, _repeat) in enumerate(calls):
        # start each call from a collected heap, as a fresh CLI process
        # would, so the collector runs at the same points in every pass
        gc.collect()
        calibrations.append(calibration_loop())
        if tracer is not None:
            tracer.call_id = i
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(sink):
                code = cli.main([cmd, path, "--json"])
        except Exception as exc:  # a raising call is a failed call, not a crash
            code = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        codes.append(code)
        outputs.append(buf.getvalue())
    calibrations.append(calibration_loop())
    return sum(latencies), latencies, codes, outputs, local_scales(calibrations)


def timed_passes(run_one, budget: float) -> list:
    """Run passes while the next one (at the median pass time) fits."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_one())
        pass_s = statistics.median(r[0] for r in results)
        if time.perf_counter() - start + pass_s > budget:
            return results


def judge(calls, passes):
    """Outcome of every call of every pass: [(outcome, reason, call index)]."""
    _, _, codes, outputs, _ = passes[0]
    ctx = checks.Context()
    first = {}
    verdicts = []
    for i, (cmd, inst, path, repeat) in enumerate(calls):
        if repeat:
            j = first[cmd]
            same = (codes[i], outputs[i]) == (codes[j], outputs[j])
            verdicts.append(verdicts[j][:2] + (i,) if same else (checks.FAIL, "repeated call gave different bytes", i))
            continue
        first.setdefault(cmd, i)
        outcome, reason = checks.judge(cmd, inst, codes[i], outputs[i], ctx)
        verdicts.append((outcome, reason, i))
    out = list(verdicts)
    for _, _, codes_k, outputs_k, _ in passes[1:]:
        for i, v in enumerate(verdicts):
            if (codes_k[i], outputs_k[i]) != (codes[i], outputs[i]):
                out.append((checks.FAIL, "later pass gave different bytes", i))
            else:
                out.append(v)
    return out


def digest(calls, outputs) -> str:
    h = hashlib.sha256()
    for (cmd, _inst, path, repeat), out in zip(calls, outputs):
        if not repeat:
            h.update(f"{cmd} {Path(path).name}\n".encode())
            h.update(out.encode())
    return h.hexdigest()


def tail(values: list) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond its nearest-rank value."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 0.0, ordered[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    out_dir = root / OUT_DIR
    docdir = out_dir / f"docs-{args.workload}-{args.seed}"
    try:
        load_package(root)
    except ImportError as exc:
        print(f"error: cannot import bquiver from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = [calibration_loop() for _ in range(3)]
            t0 = time.perf_counter()
            package, calls = setup(root, args.workload, args.seed, docdir)
            seconds = time.perf_counter() - t0
            calibration = statistics.median(before + [calibration_loop() for _ in range(3)])
            setups.append((seconds, REFERENCE_S / calibration))
        cli = package.cli

        budget = args.seconds / 2 if args.trace else args.seconds
        passes = timed_passes(lambda: run_pass(cli, calls), budget)
        traced = []
        if args.trace:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer, package)
            try:
                traced = [run_pass(cli, calls, tracer)]
            finally:
                tracing.uninstall(patches)
    finally:
        shutil.rmtree(docdir, ignore_errors=True)

    verdicts = judge(calls, passes + traced)
    fails = [v for v in verdicts if v[0] == checks.FAIL]
    unknowns = [v for v in verdicts if v[0] == checks.UNKNOWN]
    # verify's theorem-check failures are the program's own findings (known
    # defects, see README.md); anything else means wrong or unstable output
    correct = all(reason.startswith("theorem:") for _, reason, _ in fails)
    attempted = len(verdicts)

    def summary(scaled: bool):
        """(setup_s, wall_s, per-call latencies), in reference or raw seconds."""
        setup_s = statistics.median(t * sc if scaled else t for t, sc in setups)
        lat = [[t * sc if scaled else t for t, sc in zip(p[1], p[4])] for p in passes]
        wall = statistics.median(sum(pass_lat) for pass_lat in lat)
        per_call = [statistics.median(pass_lat[i] for pass_lat in lat) for i in range(len(calls))]
        return setup_s, wall, per_call

    setup_s, wall_s, per_call = summary(scaled=True)
    pct, tail_s = tail(per_call)
    raw_setup, raw_wall, raw_calls = summary(scaled=False)

    print(f"workload {args.workload} seed {args.seed}: {len(calls)} calls per pass, "
          f"{len(passes)} untraced and {len(traced)} traced passes, closed loop, 1 caller")
    print("pass seconds: " + " ".join(f"{p[0]:.3f}" for p in passes + traced))
    print(f"raw seconds: setup_s {raw_setup:.4f} wall_s {raw_wall:.4f} "
          f"latency_p50_s {statistics.median(raw_calls):.5f} latency_tail_s {tail(raw_calls)[1]:.5f}; "
          f"reference seconds per measured second, median by pass: "
          + " ".join(f"{statistics.median(p[4]):.3f}" for p in passes + traced))
    print(f"digest sha256 {digest(calls, passes[0][3])}")
    print(f"latency_tail_s is p{pct:g} of n={len(per_call)} per-call latencies "
          f"(each the median over {len(passes)} passes)")
    print(f"fail_share {len(fails) / attempted:.4f} ({len(fails)}/{attempted}), "
          f"unknown_share {len(unknowns) / attempted:.4f} ({len(unknowns)}/{attempted})")
    for _, reason, i in sorted(set(fails), key=lambda v: v[2]):
        cmd, inst, path, _ = calls[i]
        print(f"  failed: {cmd} {Path(path).name} [{inst.field_name}]: {reason}")

    if args.trace:
        spans = tracer.spans
        out_dir.mkdir(exist_ok=True)
        tracing.write(out_dir / f"trace-{args.workload}-{args.seed}.json.gz", spans)
        layer = tracing.layer_metrics(spans, tracer.counters)
        scale = statistics.median(traced[0][4])
        metrics = {
            name: {"value": value * scale if unit == "s" else value, "unit": unit}
            for name, (value, unit) in layer.items()
        }
        overhead = sum(t * sc for t, sc in zip(traced[0][1], traced[0][4])) - wall_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.spans"] = {"value": len(spans), "unit": "count"}
        print(f"tracing overhead {overhead:.4f} s per pass "
              f"(traced {wall_s + overhead:.4f} s vs untraced {wall_s:.4f} s)")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "latency_p50_s": {"value": statistics.median(per_call), "unit": "s"},
            "latency_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(fails), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
