"""Command-line front end: observable grids, CSV/JSON emitters.

Rows are generated in (r_d, t, s, k) order (r_D lists are sorted, time,
site and momentum grids ascend) and floats printed with 17 significant
digits, so identical invocations produce byte-identical files.
Every CSV output gets a manifest JSON alongside recording the invocation.
Each subcommand accepts only the flags it reads; each tunable flag defaults
to the library constant.  CSV commands return ``(header, rows, settings)``
and :func:`main` writes the file and its manifest.
Exit codes: 0 success, 1 invalid input (usage errors included),
2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__, bessel, core, fourier, spectral, validate, wigner
from .core import ModelParams
from .exceptions import BracketError, NumericalError, QuadratureLimitError

#: library function behind each scalar command; it is called with ``p=`` and
#: with the command's own flags (``eps_tail`` or ``xi``) as keywords
SCALAR_OBSERVABLES = {
    "purity": core.purity,
    "entropy": spectral.entropy,
    "variance": core.variance,
    "cf": core.characteristic_function,
}

#: most nodes a time grid may have; the largest benchmark grid has 401
MAX_GRID_NODES = 10**6

#: printf-style format of every float cell: 17 significant digits round-trip
FLOAT_FMT = "%.17g"

#: rows formatted per ``%`` operation in :func:`_write_csv`
CSV_BLOCK_ROWS = 4096


def _fmt(value: float) -> str:
    return FLOAT_FMT % value


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'a:b:step' into an inclusive grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'a:b:step', got {text!r}")
    a, b, step = (float(x) for x in parts)
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise ValueError(f"grid bounds must be finite, got {text!r}")
    if step <= 0 or b < a:
        raise ValueError(f"bad grid {text!r}")
    span = (b - a) / step
    if not span + 1 <= MAX_GRID_NODES:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_NODES} nodes")
    return a + step * np.arange(int(round(span)) + 1)


def _parse_range(text: str) -> tuple[int, int]:
    """Parse 'lo:hi' into an integer site range."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must be 'lo:hi', got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _parse_list(text: str) -> list[float]:
    """Parse a comma-separated r_D list into sorted values; empty is an error."""
    values = sorted(float(x) for x in text.split(",") if x.strip())
    if not values:
        raise ValueError("empty --rd-list")
    return values


def _physical_given(args) -> bool:
    return any(v is not None for v in (args.omega_over_hbar, args.d_coeff, args.t))


def _params_from_args(args) -> ModelParams:
    if _physical_given(args):
        if args.tprime is not None or args.rd is not None:
            raise ValueError(
                "give --tprime/--rd or --omega-over-hbar/--d-coeff/--t, not both"
            )
        if args.omega_over_hbar is None or args.d_coeff is None or args.t is None:
            raise ValueError("--omega-over-hbar, --d-coeff and --t go together")
        return ModelParams.from_physical(args.omega_over_hbar, args.d_coeff, args.t)
    if args.tprime is None or args.rd is None:
        raise ValueError("provide --tprime/--rd or --omega-over-hbar/--d-coeff/--t")
    return ModelParams(tprime=args.tprime, r_d=args.rd)


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    """Write ``rows`` under ``header``; float columns as FLOAT_FMT, others as
    integers, with column types taken from the first row.

    Each block of CSV_BLOCK_ROWS rows is formatted by one ``%`` operation;
    the block bound keeps the formatted text small next to ``rows``.
    """
    out = Path(path)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if not rows:
            return
        line = ",".join(FLOAT_FMT if isinstance(v, float) else "%d" for v in rows[0]) + "\n"
        for lo in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[lo : lo + CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(chain.from_iterable(block)))


def _write_json(out_path: str | None, payload: dict) -> None:
    """Write ``payload`` as indented JSON to ``out_path``, or to stdout."""
    text = json.dumps(payload, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def _profile_rows(t_values, rd_values, s_lo: int, s_hi: int, eps_tail: float) -> list[tuple]:
    """Rows (t, r_d, s, P_s) over r_D (outer) and t (inner)."""
    sites = np.arange(s_lo, s_hi + 1)
    site_list = sites.tolist()
    rows = []
    for r_d in rd_values:
        for t in t_values:
            p = ModelParams(tprime=float(t), r_d=float(r_d))
            probs = core.probability_profile(sites, p, core.truncation_for(p, eps_tail))
            rows += zip(repeat(p.tprime), repeat(p.r_d), site_list, probs.tolist())
    return rows


def cmd_prob(args):
    s_lo, s_hi = _parse_range(args.s_range)
    if args.rd_list is not None:
        if args.rd is not None or _physical_given(args):
            raise ValueError("--rd-list replaces --rd and the physical-unit flags")
        if args.tprime is None:
            raise ValueError("--rd-list requires --tprime")
        tprime, rd_values = args.tprime, _parse_list(args.rd_list)
    else:
        p = _params_from_args(args)
        tprime, rd_values = p.tprime, [p.r_d]
    rows = _profile_rows([tprime], rd_values, s_lo, s_hi, args.eps_tail)
    settings = {"s_range": args.s_range, "rd_list": rd_values, "tprime": tprime,
                "eps_tail": args.eps_tail}
    return ["t", "r_d", "s", "p"], rows, settings


def cmd_carpet(args):
    s_lo, s_hi = _parse_range(args.s_range)
    rows = _profile_rows(_parse_grid(args.t_grid), [args.rd], s_lo, s_hi, args.eps_tail)
    settings = {"t_grid": args.t_grid, "rd": args.rd, "s_range": args.s_range,
                "eps_tail": args.eps_tail}
    return ["t", "r_d", "s", "p"], rows, settings


def cmd_wigner(args):
    s_lo, s_hi = _parse_range(args.s_range)
    p = _params_from_args(args)
    trunc = core.truncation_for(p, args.eps_tail)
    grid = wigner.wigner_grid(s_lo, s_hi, p, wigner.k_grid(args.k_nodes), trunc)
    w_max = float(grid.values.max())
    k_nodes = grid.k_nodes.tolist()
    rows = [
        (p.tprime, p.r_d, s, k, w, w / w_max)
        for s, w_row in zip(grid.sites.tolist(), grid.values.tolist())
        for k, w in zip(k_nodes, w_row)
    ]
    settings = {"s_range": args.s_range, "k_nodes": args.k_nodes, "tprime": p.tprime,
                "rd": p.r_d, "eps_tail": args.eps_tail}
    return ["t", "r_d", "s", "k", "w", "w_normalized"], rows, settings


def cmd_scalar(args):
    t_values = _parse_grid(args.t_grid)
    rd_values = _parse_list(args.rd_list)
    flags = {key: getattr(args, key) for key in ("eps_tail", "xi") if hasattr(args, key)}
    value = partial(SCALAR_OBSERVABLES[args.command], **flags)
    rows = [
        (float(t), float(r), value(p=ModelParams(tprime=float(t), r_d=float(r))))
        for r in rd_values
        for t in t_values
    ]
    return ["t", "r_d", "value"], rows, {"t_grid": args.t_grid, "rd_list": rd_values, **flags}


def cmd_critical_rd(args) -> int:
    value = wigner.critical_rd(args.t_star, args.lo, args.hi, args.tol)
    _write_json(args.out, {"r_d_c": value, "t_star": args.t_star, "tol": args.tol})
    return 0


def cmd_validate(args) -> int:
    report = validate.run_checks(args.level, quad_nodes=args.quad_nodes)
    _write_json(args.out, report)
    return 0 if report["passed"] else 2


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: exit code 2 means numerical failure here.

    Prefixes are not expanded, so ``purity --rd`` is rejected instead of
    being read as ``--rd-list``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _one_job(text: str) -> int:
    if text.strip() != "1":
        raise argparse.ArgumentTypeError(
            f"only 1 is accepted, got {text!r}: every command runs in one process"
        )
    return 1


def _add_param_flags(parser) -> None:
    parser.add_argument("--tprime", type=float, help="dimensionless time t'")
    parser.add_argument("--rd", type=float, help="dissipation ratio r_D")
    parser.add_argument("--omega-over-hbar", type=float, help="hopping rate Omega/hbar")
    parser.add_argument("--d-coeff", type=float, help="diffusion constant D")
    parser.add_argument("--t", type=float, help="physical time t")


def _add_series_flags(parser) -> None:
    """Flags of the commands that truncate a Bessel series."""
    parser.add_argument("--eps-tail", type=float, default=bessel.EPS_TAIL_DEFAULT,
                        help="series tail tolerance")
    parser.add_argument("--jobs", type=_one_job, help="worker processes; only 1")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dqwalk",
        description="Observables of a dissipative quantum walk on a 1D lattice",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="site probability profile")
    _add_param_flags(p)
    p.add_argument("--rd-list", help="comma-separated r_D values, with --tprime")
    p.add_argument("--s-range", dest="s_range", required=True, help="lo:hi")
    _add_series_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(run=cmd_prob)

    p = sub.add_parser("carpet", help="probability over a time grid")
    p.add_argument("--rd", type=float, required=True, help="dissipation ratio r_D")
    p.add_argument("--t-grid", dest="t_grid", required=True, help="a:b:step")
    p.add_argument("--s-range", dest="s_range", required=True, help="lo:hi")
    _add_series_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(run=cmd_carpet)

    p = sub.add_parser("wigner", help="Wigner phase-space grid")
    _add_param_flags(p)
    p.add_argument("--s-range", dest="s_range", required=True, help="lo:hi")
    p.add_argument("--k-nodes", dest="k_nodes", type=int, default=wigner.K_NODES_DEFAULT,
                   help="momentum nodes")
    _add_series_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(run=cmd_wigner)

    for name in SCALAR_OBSERVABLES:
        p = sub.add_parser(name, help=f"{name} over a (t', r_D) grid")
        p.add_argument("--t-grid", dest="t_grid", required=True, help="a:b:step")
        p.add_argument("--rd-list", dest="rd_list", required=True)
        if name == "cf":
            p.add_argument("--xi", type=float, default=1.0, help="cf argument xi")
        if name == "entropy":
            _add_series_flags(p)
        p.add_argument("--out", required=True, help="output CSV path")
        p.set_defaults(run=cmd_scalar)

    p = sub.add_parser("critical-rd", help="quantum-classical threshold by bisection")
    p.add_argument("--t-star", dest="t_star", type=float, default=1.9)
    p.add_argument("--lo", type=float, default=0.1)
    p.add_argument("--hi", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(run=cmd_critical_rd)

    p = sub.add_parser("validate", help="run the self-validation suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--out", help="write JSON report here instead of stdout")
    p.add_argument("--quad-nodes", type=int, default=fourier.NODES_DEFAULT,
                   help="quadrature nodes per axis")
    p.set_defaults(run=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        start = time.perf_counter()
        result = args.run(args)
        if isinstance(result, int):  # a JSON command's exit code
            return result
        header, rows, settings = result
        _write_csv(args.out, header, rows)
        manifest = {
            "command": args.command,
            "settings": settings,
            "outputs": [args.out],
            "tool_version": __version__,
            "wall_clock_seconds": time.perf_counter() - start,
        }
        _write_json(args.out + ".manifest.json", manifest)
        return 0
    except (BracketError, NumericalError, QuadratureLimitError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
