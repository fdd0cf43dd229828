"""Command-line front end: observable grids, CSV/JSON emitters.

Rows are generated in (r_d, t, s, k) order (r_D lists are sorted, time,
site and momentum grids ascend) and floats printed with 17 significant
digits, so identical invocations produce byte-identical files.
Every CSV output gets a manifest JSON alongside recording the invocation.
Each subcommand accepts only the flags it reads; each tunable flag defaults
to the library constant.  CSV commands return ``(header, columns,
settings)``, the columns as a :class:`Table`, and :func:`main` writes the
file and its manifest.  The writer formats each cell that repeats across
rows once per block (t and r_D of a profile, t, r_D and s of a Wigner site
row) and each column every block shares once per command (sites, k nodes,
t nodes); only the value columns are formatted row by row.
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
from pathlib import Path

import numpy as np

from . import __version__, bessel, core, spectral, validate, wigner
from .core import ModelParams
from .exceptions import NumericalError

#: (module, function name) behind each scalar command, looked up when the
#: command runs; the function is called with ``p=`` and with the command's
#: own flags (``eps_tail`` or ``xi``) as keywords
SCALAR_OBSERVABLES = {
    "purity": (core, "purity"),
    "entropy": (spectral, "entropy"),
    "variance": (core, "variance"),
    "cf": (core, "characteristic_function"),
}

#: how every CSV was computed, recorded in its manifest
NUMERICS = {"bessel": "miller-recurrence", "numpy": np.__version__}

#: most nodes a time grid may have; the largest benchmark grid has 401
MAX_GRID_NODES = 10**6

#: most rows a CSV may have, checked before any array is built.  Peak memory
#: above the imported CLI, per row of a 0.5-2 M-row CSV: 11 B on carpet, 32 B
#: on wigner, 47 B on a scalar series and 63 B on a single profile (its site
#: list and Bessel correlation; the writer adds only the key text), so under
#: 1 GB; the largest benchmark CSV has 120,701
MAX_ROWS = 10**7

#: printf-style format of every float cell: 17 significant digits round-trip
FLOAT_FMT = "%.17g"

#: rows formatted per ``%`` operation in :func:`_write_csv`
CSV_BLOCK_ROWS = 4096


def _fmt(value: float) -> str:
    """One cell as FLOAT_FMT; the per-value oracle of ``_write_csv`` in its tests."""
    return FLOAT_FMT % value


def _check_rows(*axes: int) -> None:
    """Reject an output of more than MAX_ROWS rows, the product of its axes."""
    if (rows := math.prod(axes)) > MAX_ROWS:
        raise ValueError(f"output would have {rows} rows, above {MAX_ROWS}")


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
    # floor, so no node lies past b; the 1e-8 keeps b when the text rounds it
    return a + step * np.arange(math.floor(span * (1.0 + 1e-8)) + 1)


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


class Table:
    """Rows of a CSV in column form.

    Row i of a block ``(lead, values)`` is ``(*lead, *key cells i,
    *values[i])``: ``lead`` holds the cells every row of the block shares,
    ``key`` the columns every block repeats (sites, k nodes or t nodes),
    and ``values`` is a float array of shape (rows, value columns).
    ``len`` counts the rows and iterating yields them as tuples.
    """

    def __init__(self, key: tuple, blocks: list[tuple[tuple, np.ndarray]]):
        self.key = key
        self.blocks = blocks

    @classmethod
    def from_rows(cls, rows: list[tuple]) -> "Table":
        """All cells of plain row tuples as key columns of one block."""
        if not rows:
            return cls((), [])
        return cls(tuple(zip(*rows)), [((), np.empty((len(rows), 0)))])

    def __len__(self) -> int:
        return sum(len(values) for _, values in self.blocks)

    def __iter__(self):
        key_rows = list(zip(*self.key))
        for lead, values in self.blocks:
            for cells, vals in zip(key_rows, values.tolist()):
                yield (*lead, *cells, *vals)


def _cell_fmt(value) -> str:
    return FLOAT_FMT if isinstance(value, float) else "%d"


def _write_csv(path: str, header: list[str], rows: Table | list[tuple]) -> None:
    """Write ``rows`` under ``header``; float cells as FLOAT_FMT, others as
    integers, with each key column's type taken from its first cell.

    A plain list of row tuples is written as one block of key columns.
    Key cells are formatted once per table, CSV_BLOCK_ROWS rows at a time
    into one text per slice with the rows joined by NUL (no formatted cell
    holds one), and lead cells once per block.  Each block splices its
    lead and value cells into a slice with one ``str.replace`` and fills
    the value cells with one ``%`` operation, so the text held is the key
    text plus one slice.
    """
    table = rows if isinstance(rows, Table) else Table.from_rows(rows)
    fmts = [_cell_fmt(column[0]) for column in table.key]
    key_rows = len(table.key[0]) if table.key else 0
    slices = []
    for lo in range(0, key_rows, CSV_BLOCK_ROWS):
        cells = [[fmt % v for v in column[lo : lo + CSV_BLOCK_ROWS]]
                 for fmt, column in zip(fmts, table.key)]
        slices.append("\x00".join(map(",".join, zip(*cells))))
    out = Path(path)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lead, values in table.blocks:
            prefix = "".join(_cell_fmt(v) % v + "," for v in lead)
            tail = ("," + FLOAT_FMT) * values.shape[1] + "\n"
            for lo, key_text in zip(range(0, key_rows, CSV_BLOCK_ROWS), slices):
                text = prefix + key_text.replace("\x00", tail + prefix) + tail
                fh.write(text % tuple(values[lo : lo + CSV_BLOCK_ROWS].ravel().tolist()))


def _write_json(out_path: str | None, payload: dict) -> None:
    """Write ``payload`` as indented JSON to ``out_path``, or to stdout."""
    text = json.dumps(payload, indent=2)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def _profile_rows(t_values, rd_values, s_lo: int, s_hi: int, eps_tail: float) -> Table:
    """Columns (t, r_d, s, P_s), one block per (r_D, t), r_D outer."""
    _check_rows(len(t_values), len(rd_values), s_hi - s_lo + 1)
    sites = np.arange(s_lo, s_hi + 1)
    blocks = []
    for r_d in rd_values:
        for t in t_values:
            p = ModelParams(tprime=float(t), r_d=float(r_d))
            probs = core.probability_profile(sites, p, core.truncation_for(p, eps_tail))
            blocks.append(((p.tprime, p.r_d), probs[:, None]))
    return Table((sites.tolist(),), blocks)


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
    _check_rows(s_hi - s_lo + 1, args.k_nodes)
    p = _params_from_args(args)
    trunc = core.truncation_for(p, args.eps_tail)
    grid = wigner.wigner_grid(s_lo, s_hi, p, wigner.k_grid(args.k_nodes), trunc)
    w_max = float(grid.values.max())
    if not w_max > 0.0:  # w_normalized would be 0/0, or flip every sign
        raise NumericalError(f"largest W on the grid is {w_max:.3g}, so W cannot be normalized")
    values = np.stack((grid.values, grid.values / w_max), axis=-1)
    rows = Table((grid.k_nodes.tolist(),),
                 [((p.tprime, p.r_d, s), v) for s, v in zip(grid.sites.tolist(), values)])
    settings = {"s_range": args.s_range, "k_nodes": args.k_nodes, "tprime": p.tprime,
                "rd": p.r_d, "eps_tail": args.eps_tail}
    return ["t", "r_d", "s", "k", "w", "w_normalized"], rows, settings


def cmd_scalar(args):
    t_values = _parse_grid(args.t_grid)
    rd_values = _parse_list(args.rd_list)
    _check_rows(t_values.size, len(rd_values))
    flags = {key: getattr(args, key) for key in ("eps_tail", "xi") if hasattr(args, key)}
    module, name = SCALAR_OBSERVABLES[args.command]
    value = partial(getattr(module, name), **flags)
    t_list = t_values.tolist()
    n = len(t_list)
    # columns (r_D, value) of each block, with no per-row tuples
    rows = Table((t_list,), [
        ((), np.column_stack((
            np.full(n, r),
            np.fromiter((value(p=ModelParams(tprime=t, r_d=r)) for t in t_list), float, n),
        )))
        for r in rd_values
    ])
    return ["t", "r_d", "value"], rows, {"t_grid": args.t_grid, "rd_list": rd_values, **flags}


def cmd_critical_rd(args) -> int:
    value = wigner.critical_rd(args.t_star, args.lo, args.hi, args.tol)
    _write_json(args.out, {"r_d_c": value, "t_star": args.t_star, "tol": args.tol})
    return 0


def cmd_validate(args) -> int:
    report = validate.run_checks(args.level)
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
    p.add_argument("--t-star", dest="t_star", type=float, default=wigner.T_STAR_DEFAULT)
    p.add_argument("--lo", type=float, default=wigner.RD_LO_DEFAULT)
    p.add_argument("--hi", type=float, default=wigner.RD_HI_DEFAULT)
    p.add_argument("--tol", type=float, default=wigner.RD_TOL_DEFAULT)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(run=cmd_critical_rd)

    p = sub.add_parser("validate", help="run the self-validation suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--out", help="write JSON report here instead of stdout")
    p.set_defaults(run=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        start = time.perf_counter()
        result = args.run(args)
        if isinstance(result, int):  # a JSON command's exit code
            return result
        computed = time.perf_counter()
        header, rows, settings = result
        _write_csv(args.out, header, rows)
        written = time.perf_counter()
        manifest = {
            "command": args.command,
            "settings": settings,
            "outputs": [args.out],
            "tool_version": __version__,
            "numerics": NUMERICS,
            "timings": {"compute_s": computed - start, "write_s": written - computed},
            "wall_clock_seconds": time.perf_counter() - start,
        }
        _write_json(args.out + ".manifest.json", manifest)
        return 0
    except NumericalError as exc:
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
