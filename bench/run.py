"""Benchmark of the dqwalk command line: four workloads, each a fixed-size grid.

Run from the repository root; it imports the package from ``src/`` of the
same tree, so no install step is needed:

    python3 bench/run.py --workload carpet --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

One caller drives ``dqwalk.cli.main(argv)`` in a closed loop: the next
invocation starts when the previous one has returned, always with
``--jobs 1`` and one BLAS thread, so a run uses one core.  Every CSV an
invocation writes is read back and checked against references that do not
use the production route (``bench/oracles.py``); an invocation that exits
non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics: the median warm wall time
of one invocation, rows written per second, the peak RSS of a fresh
process making one invocation, and the set-up time (``import dqwalk.cli``
plus ``build_parser()``) of fresh interpreters.  ``--trace 1`` alternates
untraced and traced invocations and reports per-layer self times and
counts from wrappers around the package's functions (``bench/spans.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--workload all``
prints a report for every workload instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FRESH = Path(__file__).resolve().parent / "fresh.py"

#: BLAS threads for the parent and every child; held fixed so that the
#: eigensolves of the entropy workload compare like with like.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_SAMPLES = 3
#: fresh interpreters per run that only import and build the parser
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150

WORKLOADS = ("carpet", "wigner", "entropy", "profile_wide")

END_TO_END_UNITS = {"wall_s": "s", "values_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

#: layers whose self time the traced run reports, in print order
SELF_TIMED = (
    "bessel.j_orders",
    "bessel.i_scaled_orders",
    "bessel.truncation_order",
    "core.probability_profile",
    "wigner.wigner_row",
    "wigner.wigner_grid",
    "spectral.window_half_width",
    "spectral.build_window",
    "spectral.eigen_spectrum",
    "spectral.entropy",
    "cli.write_csv",
    "cli.main",
)
#: counts derived from array shapes; they repeat exactly between runs
COUNTS = {
    "bessel.j_orders.calls": "count",
    "bessel.j_orders.elements": "count",
    "bessel.j_orders.bytes_computed": "B",
    "bessel.truncation_order.n_max_max": "count",
    "core.probability_profile.calls": "count",
    "core.probability_profile.cells": "count",
    "wigner.wigner_row.calls": "count",
    "spectral.build_window.dim_sum": "count",
    "spectral.eigen_spectrum.flops_computed": "flop",
    "cli.write_csv.bytes": "B",
    "cli.rows": "count",
}


@dataclass
class Case:
    """One workload instance: CLI arguments (without ``--out``/``--jobs``),
    the number of CSV data rows it writes, and its output check."""

    argv: list[str]
    rows: int
    check: Callable[[Path], dict]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    worst: dict = field(default_factory=dict)

    def record(self, ok: bool, residuals: dict) -> None:
        self.attempted += 1
        self.failed += not ok
        for name, value in residuals.items():
            self.worst[name] = max(self.worst.get(name, 0.0), value)


def _num(v: float) -> str:
    return format(v, ".10g")


def _grid(a: float, b: float, step: float) -> tuple[str, list[float]]:
    """'a:b:step' text and the node values the CLI parses from it."""
    text = f"{_num(a)}:{_num(b)}:{_num(step)}"
    a, b, step = (float(x) for x in text.split(":"))
    count = int(round((b - a) / step)) + 1
    return text, [a + step * i for i in range(count)]


def make_case(name: str, seed: int) -> Case:
    """Inputs for a workload.  Seed 0 is the grid in BENCHMARK.json's
    ``why``; other seeds shift the parameters by small offsets and keep
    every grid size, so the work per invocation stays the same."""
    from oracles import check_entropy, check_profiles, check_wigner, wigner_reference

    rng = random.Random(seed)
    u = [rng.random() if seed else 0.0 for _ in range(4)]
    if name == "carpet":
        r_d = 0.5 + 5e-4 * u[0]
        t_text, t_values = _grid(0.125 * u[1], 100 + 0.125 * u[1], 0.25)
        argv = ["carpet", "--rd", _num(r_d), "--t-grid", t_text, "--s-range=-150:150"]
        return Case(argv, len(t_values) * 301,
                    lambda out: check_profiles(out, t_values, [float(_num(r_d))], -150, 150))
    if name == "wigner":
        import numpy as np

        tprime = float(_num(30.0 + 0.3 * u[0]))
        r_d = float(_num(10.0 * (1.0 + 0.01 * u[1])))
        k_nodes = np.linspace(-math.pi, math.pi, 256)
        picks = [(0, 0), (0, 200), (3, 64), (-40, 100), (75, 170), (-120, 30)]
        ref_values = wigner_reference(
            tprime, r_d, [(s, float(k_nodes[j])) for s, j in picks]
        )
        reference = {(s + 149, j): v for (s, j), v in zip(picks, ref_values)}
        argv = ["wigner", "--tprime", _num(tprime), "--rd", _num(r_d), "--s-range=-149:149"]
        return Case(argv, 299 * 256,
                    lambda out: check_wigner(out, tprime, r_d, -149, 149, k_nodes, reference))
    if name == "entropy":
        t_text, t_values = _grid(5 + 2.5 * u[0], 200 + 2.5 * u[0], 5)
        rds = [float(_num(r + 5e-4 * ui)) for r, ui in zip((0.01, 0.1, 1.0), u[1:])]
        argv = ["entropy", "--t-grid", t_text, "--rd-list", ",".join(map(_num, rds))]
        return Case(argv, len(t_values) * len(rds),
                    lambda out: check_entropy(out, t_values, rds))
    if name == "profile_wide":
        tprime = float(_num(2000.0 + 10.0 * u[0]))
        rds = [float(_num(r + 5e-4 * ui)) for r, ui in zip((0.0, 0.1, 0.5), u[1:])]
        argv = ["prob", "--tprime", _num(tprime), "--rd-list", ",".join(map(_num, rds)),
                "--s-range=-2600:2600"]
        return Case(argv, len(rds) * 5201,
                    lambda out: check_profiles(out, [tprime], rds, -2600, 2600))
    raise ValueError(f"unknown workload {name!r}")


def verify(case: Case, out: Path) -> tuple[bool, dict]:
    from oracles import failures

    try:
        residuals = case.check(out)
    except (ValueError, OSError, IndexError) as exc:
        print(f"  output check raised: {exc}", file=sys.stderr)
        return False, {}
    bad = failures(residuals)
    if bad:
        print(f"  output check failed: {', '.join(bad)}", file=sys.stderr)
    return not bad, residuals


def invoke(main, case: Case, out: Path, tally: Tally) -> float:
    """One closed-loop invocation; returns its wall time (CSV write included).
    The previous CSV is removed first, so a run that writes none fails."""
    argv = case.argv + ["--jobs", "1", "--out", str(out)]
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    rc = main(argv)
    wall = time.perf_counter() - start
    ok, residuals = verify(case, out) if rc == 0 else (False, {})
    tally.record(ok, residuals)
    return wall


def fresh(argv: list[str]) -> dict:
    """Run ``bench/fresh.py`` in a new interpreter and return its report."""
    proc = subprocess.run(
        [sys.executable, str(FRESH), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(cli, case: Case, name: str, seconds: float, tally: Tally) -> dict:
    out = OUT / f"{name}.csv"
    invoke(cli.main, case, out, tally)  # warm-up: lazy imports, page cache
    walls: list[float] = []
    setup: list[float] = []
    while len(walls) < MIN_SAMPLES or sum(walls) < seconds:
        walls.append(invoke(cli.main, case, out, tally))
        # spread the fresh interpreters over the loop: the host's speed
        # drifts over tens of seconds, and a burst at the end would see
        # only one moment of it
        while len(setup) < SETUP_SAMPLES * min(sum(walls) / seconds, 1.0):
            setup.append(fresh([])["setup_s"])
    setup += [fresh([])["setup_s"] for _ in range(SETUP_SAMPLES - len(setup))]
    out_fresh = OUT / f"{name}-fresh.csv"
    out_fresh.unlink(missing_ok=True)
    report = fresh(case.argv + ["--jobs", "1", "--out", str(out_fresh)])
    setup.append(report["setup_s"])
    ok, residuals = verify(case, out_fresh) if report["rc"] == 0 else (False, {})
    tally.record(ok, residuals)

    wall = statistics.median(walls)
    print(f"  {len(walls)} timed invocations: min {min(walls):.4f} s, "
          f"max {max(walls):.4f} s; {len(setup)} fresh interpreters")
    return {
        "wall_s": wall,
        "values_per_s": case.rows / wall,
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
    }


def run_traced(cli, modules: dict, case: Case, name: str, seconds: float,
               tally: Tally, spans_path: Path) -> dict:
    from spans import Tracer, self_times

    out = OUT / f"{name}.csv"
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    invoke(cli.main, case, out, tally)  # warm-up
    plain, traced, selves, counts = [], [], [], []

    def plain_once():
        plain.append(invoke(cli.main, case, out, tally))

    def traced_once():
        tracer.counts.clear()
        lo = len(tracer.spans)
        with tracer.install(modules):
            traced.append(invoke(traced_main, case, out, tally))
        selves.append(self_times(tracer.spans, lo))
        counts.append(dict(tracer.counts))

    while len(traced) < MIN_SAMPLES or sum(plain) + sum(traced) < seconds:
        # alternate which side goes first so drift hits both equally
        pair = (plain_once, traced_once) if len(traced) % 2 == 0 else (traced_once, plain_once)
        for once in pair:
            once()
    spans_path.write_text(json.dumps(tracer.spans))

    metrics = {}
    for layer in SELF_TIMED:
        metrics[layer + ".self_s"] = statistics.median(s.get(layer, 0.0) for s in selves)
    for key in COUNTS:
        metrics[key] = statistics.median(c.get(key, 0.0) for c in counts)
    for layer in SELF_TIMED:
        metrics[layer + ".share"] = statistics.median(
            s.get(layer, 0.0) / w for s, w in zip(selves, traced)
        )
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    metrics["trace.coverage"] = statistics.median(
        (sum(s.values()) - s.get("cli.main", 0.0)) / w for s, w in zip(selves, traced)
    )
    print(f"  {len(traced)} traced and {len(plain)} untraced invocations")
    return metrics


def per_layer_units() -> dict:
    units = {layer + ".self_s": "s" for layer in SELF_TIMED}
    units.update(COUNTS)
    units.update({layer + ".share": "ratio" for layer in SELF_TIMED})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio"})
    return units


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "dqwalk").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    from dqwalk import bessel, cli, core, spectral, wigner

    modules = {"bessel": bessel, "core": core, "wigner": wigner,
               "spectral": spectral, "cli": cli}
    case = make_case(name, seed)
    tally = Tally()
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    print(f"{name} (seed {seed}, trace {int(trace)}): dqwalk {' '.join(case.argv)}")
    if trace:
        metrics = run_traced(cli, modules, case, name, seconds, tally,
                             OUT / f"{stem}-spans.json")
        units = per_layer_units()
    else:
        metrics = run_untraced(cli, case, name, seconds, tally)
        units = END_TO_END_UNITS
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} invocations)")
    print("  worst residuals: " + ", ".join(f"{k} {v:.2e}" for k, v in tally.worst.items()))
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  residuals=tally.worst, environment=env)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dqwalk" / "__init__.py").is_file():
        print(f"error: no dqwalk sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads, inherited by children
    sys.path.insert(0, str(SRC))
    import dqwalk

    if Path(dqwalk.__file__).resolve().parent != (SRC / "dqwalk").resolve():
        print(f"error: dqwalk imported from {dqwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env))

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)
        print(json.dumps(result))
        return 0
    report = {
        name: {f"trace{t}": run_workload(name, args.seed, args.seconds, bool(t), env)
               for t in (0, 1)}
        for name in WORKLOADS
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
