import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dqwalk
from dqwalk import cli, core, spectral, wigner
from dqwalk.cli import (
    CSV_BLOCK_ROWS,
    Table,
    _fmt,
    _parse_grid,
    _parse_list,
    _parse_range,
    _write_csv,
    main,
)
from dqwalk.core import ModelParams, probability_profile, purity, truncation_for


def exit_code(argv):
    """Return code of ``main(argv)``; usage errors leave through SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestHelpers:
    def test_fmt_is_17_significant_digits(self):
        assert _fmt(1.0 / 3.0) == "0.33333333333333331"
        assert _fmt(1.0) == "1"

    def test_parse_grid(self):
        assert np.allclose(_parse_grid("0:1:0.25"), [0.0, 0.25, 0.5, 0.75, 1.0])
        # a step that does not divide the span stops short of b, never past it
        assert np.allclose(_parse_grid("0:1:0.28"), [0.0, 0.28, 0.56, 0.84])
        assert np.allclose(_parse_grid("0:0.9:0.6"), [0.0, 0.6])
        assert np.allclose(_parse_grid("0:1:0.3"), [0.0, 0.3, 0.6, 0.9])
        for bad in [
            "0:1", "1:0:0.5", "0:1:0", "0:1:-1", "0:inf:1", "nan:1:1", "0:1:inf",
            "0:1e300:1e-300", "0:1e12:1",
        ]:
            with pytest.raises(ValueError):
                _parse_grid(bad)

    def test_parse_range(self):
        assert _parse_range("-3:3") == (-3, 3)
        with pytest.raises(ValueError):
            _parse_range("3:-3")
        with pytest.raises(ValueError):
            _parse_range("1:2:3")

    def test_parse_list(self):
        assert _parse_list("0, 0.5,2") == [0.0, 0.5, 2.0]


class TestWriteCsv:
    def test_matches_per_value_formatting(self, tmp_path):
        special = [math.nan, -0.0, 5e-324, math.inf, -math.inf, 1.0 / 3.0, 1e300]
        rows = [(float(i), v, i - 7, -v) for i, v in enumerate(special * 1300)]
        assert len(rows) > 2 * CSV_BLOCK_ROWS
        out = tmp_path / "special.csv"
        _write_csv(str(out), ["a", "b", "s", "c"], rows)
        expected = "a,b,s,c\n" + "".join(
            ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows
        )
        assert out.read_text() == expected

    def test_empty_rows_write_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        _write_csv(str(out), ["t", "value"], [])
        assert out.read_text() == "t,value\n"

    def test_table_matches_per_value_formatting(self, tmp_path):
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1.0 / 3.0]
        n = CSV_BLOCK_ROWS + 3  # a block longer than one formatting slice
        values = np.array(special * (2 * n // len(special) + 1))[: 2 * n].reshape(n, 2)
        key = (list(range(-5, n - 5)), [0.25 * i for i in range(n)])
        blocks = [((1.0 / 3.0, -0.0, 7), values), ((1e300, 5e-324, -2), -values[::-1])]
        table = Table(key, blocks)
        rows = list(table)
        assert len(table) == len(rows) == 2 * n
        assert rows[n][:5] == (1e300, 5e-324, -2, -5, 0.0) and len(rows[n]) == 7
        out = tmp_path / "special.csv"
        _write_csv(str(out), ["a", "b", "c", "s", "k", "w", "v"], table)
        # compared line by line: a failing diff of one long string takes minutes
        assert out.read_bytes().decode().split("\n") == ["a,b,c,s,k,w,v"] + [
            ",".join(_fmt(v) if isinstance(v, float) else "%d" % v for v in row)
            for row in rows
        ] + [""]


def run_command(argv):
    """``(header, rows, settings)`` of one CSV command, without writing."""
    args = cli.build_parser().parse_args(argv + ["--out", "unused.csv"])
    return args.run(args)


def profile_rows(t_values, rd_values, s_lo, s_hi):
    sites = range(s_lo, s_hi + 1)
    rows = []
    for r_d in rd_values:
        for t in t_values:
            p = ModelParams(t, r_d)
            probs = probability_profile(np.array(sites), p, truncation_for(p))
            rows += [(t, r_d, s, float(v)) for s, v in zip(sites, probs)]
    return rows


def wigner_rows(tprime, r_d, s_lo, s_hi, k_nodes):
    p = ModelParams(tprime, r_d)
    grid = wigner.wigner_grid(s_lo, s_hi, p, wigner.k_grid(k_nodes), truncation_for(p))
    w_max = float(grid.values.max())
    return [
        (tprime, r_d, s, float(k), float(w), float(w) / w_max)
        for s, w_row in zip(range(s_lo, s_hi + 1), grid.values)
        for k, w in zip(grid.k_nodes, w_row)
    ]


def scalar_rows(value, t_values, rd_values):
    return [(t, r, value(ModelParams(t, r))) for r in rd_values for t in t_values]


#: (argv, the product of its axes, its rows built one by one from the library)
COLUMN_CASES = {
    "prob": (
        ["prob", "--tprime", "3", "--rd-list", "0.5,0", "--s-range=-6:6"], 2 * 13,
        lambda: profile_rows([3.0], [0.0, 0.5], -6, 6),
    ),
    "carpet": (
        ["carpet", "--rd", "0.5", "--t-grid", "0:2:0.5", "--s-range=-8:8"], 5 * 17,
        lambda: profile_rows([0.0, 0.5, 1.0, 1.5, 2.0], [0.5], -8, 8),
    ),
    "wigner": (
        ["wigner", "--tprime", "2", "--rd", "0.3", "--s-range=-4:4", "--k-nodes", "33"], 9 * 33,
        lambda: wigner_rows(2.0, 0.3, -4, 4, 33),
    ),
    "purity": (
        ["purity", "--t-grid", "0:4:1", "--rd-list", "0,0.5,10"], 5 * 3,
        lambda: scalar_rows(purity, [0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.5, 10.0]),
    ),
    "entropy": (
        ["entropy", "--t-grid", "1:3:0.5", "--rd-list", "0.1,1"], 5 * 2,
        lambda: scalar_rows(
            lambda p: spectral.entropy(p), [1.0, 1.5, 2.0, 2.5, 3.0], [0.1, 1.0]
        ),
    ),
    "cf": (
        ["cf", "--xi", "0.7", "--t-grid", "0:4:1", "--rd-list", "0,0.5"], 5 * 2,
        lambda: scalar_rows(
            lambda p: core.characteristic_function(0.7, p), [0.0, 1.0, 2.0, 3.0, 4.0],
            [0.0, 0.5],
        ),
    ),
}


class TestColumns:
    @pytest.mark.parametrize("command", ["prob", "carpet", "wigner", "purity"])
    def test_rows_are_the_product_of_the_axes(self, command):
        argv, count, expected = COLUMN_CASES[command]
        _, rows, _ = run_command(argv)
        assert len(rows) == count
        assert list(rows) == expected()

    @pytest.mark.parametrize("command", ["prob", "carpet", "wigner", "entropy", "cf"])
    def test_csv_bytes_match_row_by_row_formatting(self, command, tmp_path):
        argv, _, expected = COLUMN_CASES[command]
        header, _, _ = run_command(argv)
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 0
        lines = [",".join(header)] + [
            ",".join(_fmt(v) if isinstance(v, float) else "%d" % v for v in row)
            for row in expected()
        ]
        assert out.read_bytes().decode().split("\n") == lines + [""]


EPS_TAIL_ARGV = {
    "prob": ["prob", "--tprime", "3", "--rd", "0.5", "--s-range=-2:2"],
    "carpet": ["carpet", "--rd", "0.5", "--t-grid", "1:2:1", "--s-range=-2:2"],
    "wigner": ["wigner", "--tprime", "3", "--rd", "0.5", "--s-range=-2:2", "--k-nodes", "5"],
    "entropy": ["entropy", "--t-grid", "1:2:1", "--rd-list", "0.5"],
}


class TestEpsTail:
    @pytest.mark.parametrize("command", sorted(EPS_TAIL_ARGV))
    def test_reaches_truncation_and_manifest(self, command, tmp_path, monkeypatch):
        seen = []
        original = core.truncation_order

        def spy(tprime, x, eps_tail=1e-14):
            seen.append(eps_tail)
            return original(tprime, x, eps_tail)

        monkeypatch.setattr(core, "truncation_order", spy)
        monkeypatch.setattr(spectral, "truncation_order", spy)
        out = tmp_path / "out.csv"
        code = main(EPS_TAIL_ARGV[command] + ["--eps-tail", "1e-30", "--out", str(out)])
        assert code == 0
        assert seen and all(eps == 1e-30 for eps in seen)
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["settings"]["eps_tail"] == 1e-30

    @pytest.mark.parametrize("command", sorted(EPS_TAIL_ARGV))
    def test_zero_is_exit_1(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(EPS_TAIL_ARGV[command] + ["--eps-tail", "0", "--out", str(out)]) == 1
        assert "eps_tail" in capsys.readouterr().err


class TestProbCommand:
    def test_profile_matches_library(self, tmp_path):
        out = tmp_path / "prob.csv"
        code = main(
            ["prob", "--tprime", "4", "--rd", "0.5", "--s-range=-10:10", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "r_d", "s", "p"]
        assert len(rows) == 21
        p = ModelParams(4.0, 0.5)
        expected = probability_profile(np.arange(-10, 11), p, truncation_for(p))
        got = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(got - expected)) < 1e-15

    def test_physical_units_route(self, tmp_path):
        out = tmp_path / "phys.csv"
        code = main(
            [
                "prob",
                "--omega-over-hbar", "2", "--d-coeff", "0.5", "--t", "2",
                "--s-range=-5:5", "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        # t' = 4, r_d = 2 D / (Omega/hbar) = 0.5
        assert float(rows[0][0]) == 4.0
        assert float(rows[0][1]) == 0.5

    def test_rd_list_sorted_rows(self, tmp_path):
        out = tmp_path / "multi.csv"
        code = main(
            ["prob", "--tprime", "2", "--rd-list", "1,0.2", "--s-range=0:3", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        rds = [float(r[1]) for r in rows]
        assert rds == sorted(rds)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "prob.csv"
        main(["prob", "--tprime", "1", "--rd", "0", "--s-range=0:1", "--out", str(out)])
        manifest = json.loads((tmp_path / "prob.csv.manifest.json").read_text())
        assert manifest["command"] == "prob"
        assert manifest["outputs"] == [str(out)]
        assert manifest["wall_clock_seconds"] >= 0.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["prob", "--tprime", "3.7", "--rd", "0.9", "--s-range=-8:8"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_params_is_exit_1(self, tmp_path, capsys):
        code = main(["prob", "--s-range=0:1", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCarpetCommand:
    def test_time_grid_rows(self, tmp_path):
        out = tmp_path / "carpet.csv"
        code = main(
            ["carpet", "--rd", "0.3", "--t-grid", "0:2:1", "--s-range=-4:4", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 * 9
        times = [float(r[0]) for r in rows]
        assert times == sorted(times)

    def test_jobs_1_matches_no_flag_and_2_exits_1(self, tmp_path, capsys):
        plain, one = tmp_path / "plain.csv", tmp_path / "one.csv"
        argv = ["carpet", "--rd", "0.5", "--t-grid", "0:3:0.5", "--s-range=-6:6"]
        assert main(argv + ["--out", str(plain)]) == 0
        assert main(argv + ["--out", str(one), "--jobs", "1"]) == 0
        assert plain.read_bytes() == one.read_bytes()
        capsys.readouterr()
        assert exit_code(argv + ["--out", str(tmp_path / "two.csv"), "--jobs", "2"]) == 1
        assert "only 1 is accepted" in capsys.readouterr().err


class TestWignerCommand:
    def test_grid_and_normalized_column(self, tmp_path):
        out = tmp_path / "wig.csv"
        code = main(
            [
                "wigner", "--tprime", "1.9", "--rd", "0",
                "--s-range=-3:3", "--k-nodes", "33", "--out", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "r_d", "s", "k", "w", "w_normalized"]
        assert len(rows) == 7 * 33
        w = np.array([float(r[4]) for r in rows])
        wn = np.array([float(r[5]) for r in rows])
        assert np.isclose(wn.max(), 1.0)
        assert np.allclose(wn, w / w.max())
        # the dissipation-free walk is negative at (0, pi) for t' = 1.9
        assert w.min() < 0.0
        zero = ["wigner", "--tprime", "1.9", "--rd", "0", "--s-range=-3:3", "--k-nodes", "0"]
        assert main(zero + ["--out", str(tmp_path / "zero.csv")]) == 1


class TestScalarCommands:
    def test_purity_values(self, tmp_path):
        out = tmp_path / "pur.csv"
        code = main(
            ["purity", "--t-grid", "0:2:1", "--rd-list", "0.5", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "r_d", "value"]
        got = {float(r[0]): float(r[2]) for r in rows}
        for t in [0.0, 1.0, 2.0]:
            assert got[t] == pytest.approx(purity(ModelParams(t, 0.5)), abs=1e-15)

    def test_cf_uses_xi(self, tmp_path):
        out = tmp_path / "cf.csv"
        main(["cf", "--t-grid", "0:0:1", "--rd-list", "2", "--xi", "1.0", "--out", str(out)])
        _, rows = read_csv(out)
        assert float(rows[0][2]) == pytest.approx(1.0)

    def test_empty_rd_list_is_exit_1(self, tmp_path):
        code = main(["entropy", "--t-grid", "0:1:1", "--rd-list", " ", "--out", str(tmp_path / "e.csv")])
        assert code == 1

    @pytest.mark.parametrize("command,module,name", [
        ("purity", core, "purity"),
        ("entropy", spectral, "entropy"),
        ("variance", core, "variance"),
        ("cf", core, "characteristic_function"),
    ])
    def test_function_looked_up_when_the_command_runs(
        self, command, module, name, tmp_path, monkeypatch
    ):
        # a wrapper installed after import (as a tracer does) is the one called
        seen = []
        original = getattr(module, name)

        def spy(**kwargs):
            seen.append(kwargs["p"])
            return original(**kwargs)

        monkeypatch.setattr(module, name, spy)
        out = tmp_path / "s.csv"
        assert main([command, "--t-grid", "1:2:1", "--rd-list", "0.5", "--out", str(out)]) == 0
        assert [p.tprime for p in seen] == [1.0, 2.0]


class TestCriticalRdCommand:
    def test_json_output(self, tmp_path):
        out = tmp_path / "crit.json"
        code = main(["critical-rd", "--tol", "1e-3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["r_d_c"] - 0.52) < 0.02

    def test_tolerance_below_one_ulp_terminates(self, tmp_path, monkeypatch):
        # bisection from [0.1, 2] reaches adjacent floats in about 55 steps
        wigner_value = wigner.wigner_value
        calls = []

        def counted(*args):
            calls.append(args)
            assert len(calls) < 100, "bisection did not stop at one ulp"
            return wigner_value(*args)

        monkeypatch.setattr(wigner, "wigner_value", counted)
        out = tmp_path / "crit.json"
        assert main(["critical-rd", "--tol", "1e-300", "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["r_d_c"] - 0.52) < 0.02

    def test_bad_bracket_is_exit_2(self, capsys):
        code = main(["critical-rd", "--lo", "1.0", "--hi", "2.0"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err


class TestValidateCommand:
    def test_fast_level_green(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", "--level", "fast", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0
        assert report["passed"]
        assert all(r["value"] < r["tolerance"] for r in report["checks"])

    def test_full_level_green(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["validate", "--level", "full", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0
        assert report["passed"]
        assert all(r["value"] < r["tolerance"] for r in report["checks"])
        entropy_check = [
            r for r in report["checks"] if r["name"].startswith("asymptotic_entropy_agreement")
        ]
        assert len(entropy_check) == 1 and entropy_check[0]["value"] <= 1e-9
        skellam = [r for r in report["checks"] if r["name"].startswith("skellam_spectrum")]
        assert len(skellam) == 1 and skellam[0]["value"] < 1e-12

    def test_quadrature_ceiling_keeps_the_report(self, tmp_path):
        # 16 nodes reach t' = 2; three oracle parameter sets lie past that
        out = tmp_path / "report.json"
        assert main(["validate", "--quad-nodes", "16", "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["passed"] is False
        refused = [r for r in report["checks"] if "reason" in r]
        assert [r["name"] for r in refused] == [
            "oracle_equivalence(t'=4.0,r_d=0.5)",
            "oracle_equivalence(t'=8.0,r_d=2.0)",
            "oracle_equivalence(t'=10.0,r_d=10.0)",
        ]
        for r in refused:
            assert not r["passed"] and r["value"] is None
            assert "exceeds validity ceiling 2.0 for 16 nodes" in r["reason"]
        for prefix in ("normalization", "hermiticity", "wigner_marginal", "wigner_total_mass"):
            found = [r for r in report["checks"] if r["name"].startswith(prefix)]
            assert found and all(r["passed"] for r in found)


#: a valid invocation of every CSV command, without ``--out``
BASE_ARGV = {
    **EPS_TAIL_ARGV,
    **{
        name: [name, "--t-grid", "1:2:1", "--rd-list", "0.5"]
        for name in ("purity", "variance", "cf")
    },
}
PARAM_FLAGS = ("--tprime", "--rd", "--omega-over-hbar", "--d-coeff", "--t")
#: (command, flag) pairs that were accepted and never read
REMOVED_FLAGS = [
    *[(command, "--mass-tol") for command in sorted(BASE_ARGV)],
    *[(command, "--quad-nodes") for command in sorted(BASE_ARGV)],
    *[(command, "--xi") for command in ("purity", "entropy", "variance")],
    *[
        (command, flag)
        for command in ("purity", "variance", "cf")
        for flag in ("--eps-tail", "--config", "--jobs")
    ],
    *[(command, "--config") for command in ("prob", "carpet", "wigner", "entropy")],
    *[("carpet", flag) for flag in PARAM_FLAGS if flag != "--rd"],
    *[
        (command, flag)
        for command in ("purity", "entropy", "variance", "cf")
        for flag in PARAM_FLAGS
    ],
]
USAGE_ERRORS = {
    "sweep": ["sweep", "--observable", "variance", "--t-grid", "0:2:0.5", "--rd-list", "0,1"],
    "jobs-2": EPS_TAIL_ARGV["carpet"] + ["--jobs", "2"],
    "jobs-0": EPS_TAIL_ARGV["entropy"] + ["--jobs", "0"],
    "jobs-neg": EPS_TAIL_ARGV["prob"] + ["--jobs", "-3"],
    "unknown-flag": EPS_TAIL_ARGV["prob"] + ["--bogus", "3"],
    "bad-choice": ["validate", "--level", "nope"],
    "validate-config": ["validate", "--config", "x"],
    "carpet-no-rd": ["carpet", "--t-grid", "1:2:1", "--s-range=-2:2"],
    "prefix": ["carpet", "--rd", "0.5", "--t-gr", "1:2:1", "--s-range=-2:2"],
}
CONFLICTS = {
    "rd-list-and-rd": ["prob", "--tprime", "3", "--rd-list", "0.5", "--rd", "0.5", "--s-range=0:1"],
    "rd-list-and-t": ["prob", "--tprime", "3", "--rd-list", "0.5", "--t", "2", "--s-range=0:1"],
    "empty-rd-list": ["prob", "--tprime", "3", "--rd-list", " ", "--s-range=0:1"],
    "tprime-and-d-coeff": ["prob", "--tprime", "3", "--rd", "0.5", "--d-coeff", "1", "--s-range=0:1"],
    "physical-and-rd": [
        "prob", "--omega-over-hbar", "2", "--d-coeff", "0.5", "--t", "2", "--rd", "0.5",
        "--s-range=0:1",
    ],
    "physical-and-tprime": [
        "wigner", "--omega-over-hbar", "2", "--d-coeff", "0.5", "--t", "2", "--tprime", "4",
        "--s-range=0:1", "--k-nodes", "5",
    ],
}


#: manifest ``settings`` keys of every CSV command
SETTINGS_KEYS = {
    "prob": ["s_range", "rd_list", "tprime", "eps_tail"],
    "carpet": ["t_grid", "rd", "s_range", "eps_tail"],
    "wigner": ["s_range", "k_nodes", "tprime", "rd", "eps_tail"],
    "purity": ["t_grid", "rd_list"],
    "entropy": ["t_grid", "rd_list", "eps_tail"],
    "variance": ["t_grid", "rd_list"],
    "cf": ["t_grid", "rd_list", "xi"],
}


class TestRejectedFlags:
    @pytest.mark.parametrize("command", sorted(BASE_ARGV))
    def test_base_invocation_runs(self, command, tmp_path):
        assert main(BASE_ARGV[command] + ["--out", str(tmp_path / "x.csv")]) == 0

    @pytest.mark.parametrize("command", sorted(BASE_ARGV))
    def test_manifest_settings_and_defaults(self, command, tmp_path):
        argv = [a for a in BASE_ARGV[command] if a not in ("--k-nodes", "5")]  # the default
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        settings = manifest["settings"]
        assert list(settings) == SETTINGS_KEYS[command]
        if "eps_tail" in settings:
            assert settings["eps_tail"] == 1e-14
        if command == "wigner":
            assert settings["k_nodes"] == 256
        assert manifest["numerics"] == {"bessel": "miller-recurrence", "numpy": np.__version__}
        timings = manifest["timings"]
        assert list(timings) == ["compute_s", "write_s"]
        assert min(timings.values()) >= 0.0
        assert sum(timings.values()) <= manifest["wall_clock_seconds"]

    @pytest.mark.parametrize(
        "command,flag", REMOVED_FLAGS, ids=[f"{c}{f}" for c, f in REMOVED_FLAGS]
    )
    def test_removed_flag_exits_1(self, command, flag, tmp_path, capsys):
        argv = BASE_ARGV[command] + [flag, "1", "--out", str(tmp_path / "x.csv")]
        assert exit_code(argv) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_usage_error_exits_1(self, case, tmp_path, capsys):
        assert exit_code(USAGE_ERRORS[case] + ["--out", str(tmp_path / "x.csv")]) == 1
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("case", sorted(CONFLICTS))
    def test_conflicting_parameters_exit_1(self, case, tmp_path, capsys):
        assert main(CONFLICTS[case] + ["--out", str(tmp_path / "x.csv")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestExitCodes:
    def test_quadrature_ceiling_is_exit_2(self, tmp_path, capsys):
        # validate with too few quadrature nodes for its parameter sets
        code = main(["validate", "--quad-nodes", "16"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["wigner", "--tprime", "3", "--rd", "0.5", "--s-range=-2:2", "--k-nodes", "10000000000000"],
        ["prob", "--tprime", "3", "--rd", "0.5", "--s-range=-5000000000000:5000000000000"],
        ["validate", "--quad-nodes", "10000000"],
    ], ids=["wigner-k-nodes", "prob-sites", "validate-quad-nodes"])
    def test_oversize_grid_is_exit_1(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", sorted(BASE_ARGV))
    def test_row_bound_is_inclusive_on_every_csv_command(self, command, tmp_path, monkeypatch):
        out = tmp_path / "x.csv"
        assert main(BASE_ARGV[command] + ["--out", str(out)]) == 0
        rows = len(out.read_text().splitlines()) - 1
        out.unlink()
        monkeypatch.setattr(cli, "MAX_ROWS", rows - 1)
        assert main(BASE_ARGV[command] + ["--out", str(out)]) == 1
        assert not out.exists()
        monkeypatch.setattr(cli, "MAX_ROWS", rows)
        assert main(BASE_ARGV[command] + ["--out", str(out)]) == 0

    def test_unwritable_output_is_exit_3(self, capsys):
        code = main(
            ["prob", "--tprime", "1", "--rd", "0", "--s-range=0:1", "--out", "/proc/no/such/dir/x.csv"]
        )
        assert code == 3
        assert "I/O error" in capsys.readouterr().err


NO_SCIPY_RUN = """
import sys
from dqwalk import cli

out = sys.argv[1]
for argv in [
    ["carpet", "--rd", "0.5", "--t-grid", "0:4:1", "--s-range=-20:20"],
    ["wigner", "--tprime", "5", "--rd", "1", "--s-range=-10:10", "--k-nodes", "9"],
    ["entropy", "--t-grid", "1:3:1", "--rd-list", "0.1,1"],
    ["purity", "--t-grid", "1:3:1", "--rd-list", "0.1,1"],
    ["cf", "--t-grid", "1:3:1", "--rd-list", "0.1,1", "--xi", "0.7"],
    ["validate", "--level", "fast"],
]:
    assert cli.main(argv + ["--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_commands_run_without_scipy(tmp_path):
    """scipy is a test dependency only: a fresh interpreter running the
    commands never imports it."""
    src = str(Path(dqwalk.__file__).resolve().parent.parent)
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
