"""Tests of the benchmark itself: workload inputs, output checks, tracing.

    python3 -m pytest bench -q
"""

import math
import sys

import numpy as np
import pytest

import oracles
import run
import spans

sys.path.insert(0, str(run.SRC))

from dqwalk import bessel, cli, core, spectral, wigner  # noqa: E402

MODULES = {"bessel": bessel, "core": core, "wigner": wigner, "spectral": spectral, "cli": cli}

SMALL_CARPET = ["carpet", "--rd", "0.5", "--t-grid", "0:2:0.5", "--s-range=-30:30"]


def small_carpet_case():
    t_values = [0.0, 0.5, 1.0, 1.5, 2.0]
    return run.Case(SMALL_CARPET, 5 * 61,
                    lambda out: oracles.check_profiles(out, t_values, [0.5], -30, 30))


def test_seed_zero_is_the_stated_grid():
    assert run.make_case("carpet", 0).argv == [
        "carpet", "--rd", "0.5", "--t-grid", "0:100:0.25", "--s-range=-150:150"]
    assert run.make_case("entropy", 0).argv == [
        "entropy", "--t-grid", "5:200:5", "--rd-list", "0.01,0.1,1"]
    assert run.make_case("profile_wide", 0).argv == [
        "prob", "--tprime", "2000", "--rd-list", "0,0.1,0.5", "--s-range=-2600:2600"]
    wig = run.make_case("wigner", 0)
    assert wig.argv == ["wigner", "--tprime", "30", "--rd", "10", "--s-range=-149:149"]
    assert wig.rows == 76544


@pytest.mark.parametrize("name", ["carpet", "entropy", "profile_wide"])
def test_other_seeds_shift_values_but_keep_sizes(name):
    base = run.make_case(name, 0)
    for seed in (1, 2):
        case = run.make_case(name, seed)
        assert case.rows == base.rows
        assert case.argv != base.argv
        assert case.argv == run.make_case(name, seed).argv


def test_corrupted_csv_counts_in_error_rate(tmp_path, monkeypatch):
    case = small_carpet_case()
    out = tmp_path / "carpet.csv"
    tally = run.Tally()
    run.invoke(cli.main, case, out, tally)
    assert (tally.attempted, tally.failed) == (1, 0)

    write_csv = cli._write_csv

    def corrupting(path, header, rows):
        rows = list(rows)
        t, r_d, s, p = rows[4 * 61 + 30]  # t = 2, s = 0
        rows[4 * 61 + 30] = (t, r_d, s, p * 1.001)
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", corrupting)
    run.invoke(cli.main, case, out, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_truncated_csv_and_nonzero_exit_count_as_failed(tmp_path):
    case = small_carpet_case()
    out = tmp_path / "carpet.csv"
    tally = run.Tally()

    def truncating(argv):
        code = cli.main(argv)
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(lines[:-1]))
        return code

    run.invoke(truncating, case, out, tally)
    bad = run.Case(["carpet", "--rd", "0.5", "--t-grid", "0:2:0.5", "--s-range=5:-5"],
                   0, case.check)
    run.invoke(cli.main, bad, out, tally)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_success_without_writing_counts_as_failed(tmp_path):
    case = small_carpet_case()
    out = tmp_path / "carpet.csv"
    tally = run.Tally()
    run.invoke(cli.main, case, out, tally)
    assert out.is_file() and tally.failed == 0

    run.invoke(lambda argv: 0, case, out, tally)  # a correct CSV is left from before
    assert (tally.attempted, tally.failed) == (2, 1)


def test_wigner_and_entropy_checks_pass_on_cli_output(tmp_path):
    out = tmp_path / "w.csv"
    assert cli.main(["wigner", "--tprime", "5", "--rd", "1", "--s-range=-30:30",
                     "--k-nodes", "16", "--out", str(out)]) == 0
    k_nodes = np.linspace(-math.pi, math.pi, 16)
    ref = oracles.wigner_reference(5.0, 1.0, [(0, float(k_nodes[3])), (2, float(k_nodes[9]))])
    res = oracles.check_wigner(out, 5.0, 1.0, -30, 30, k_nodes,
                               {(30, 3): ref[0], (32, 9): ref[1]})
    assert oracles.failures(res) == []
    assert abs(ref[0]) > 1e-3

    out = tmp_path / "s.csv"
    assert cli.main(["entropy", "--t-grid", "1:3:1", "--rd-list", "0.1,1",
                     "--out", str(out)]) == 0
    res = oracles.check_entropy(out, [1.0, 2.0, 3.0], [0.1, 1.0])
    assert oracles.failures(res) == []


def test_self_times_subtract_direct_children():
    recorded = [
        ["cli.main", 0.0, 10.0, None],
        ["core.probability_profile", 1.0, 5.0, 0],
        ["bessel.j_orders", 2.0, 4.0, 1],
        ["cli.write_csv", 6.0, 9.0, 0],
    ]
    assert spans.self_times(recorded) == {
        "cli.main": 3.0, "core.probability_profile": 2.0,
        "bessel.j_orders": 2.0, "cli.write_csv": 3.0}
    assert spans.self_times(recorded, 1) == {
        "core.probability_profile": 2.0, "bessel.j_orders": 2.0, "cli.write_csv": 3.0}


def test_tracer_sees_imported_names_and_restores_them(tmp_path):
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", cli.main)
    with tracer.install(MODULES):
        assert core.bessel_j_orders is not bessel.bessel_j_orders
        assert traced_main(["wigner", "--tprime", "3", "--rd", "0.5", "--s-range=-10:10",
                            "--k-nodes", "8", "--out", str(tmp_path / "w.csv")]) == 0
    assert core.bessel_j_orders is bessel.bessel_j_orders
    assert wigner.wigner_row.__module__ == "dqwalk.wigner"
    assert not hasattr(wigner.wigner_row, "__wrapped__")

    selves = spans.self_times(tracer.spans)
    assert tracer.counts["wigner.wigner_row.calls"] == 8
    assert tracer.counts["bessel.j_orders.calls"] == 8
    assert tracer.counts["cli.rows"] == 21 * 8
    assert "spectral.entropy" not in selves
    root = tracer.spans[0]
    assert sum(selves.values()) == pytest.approx(root[2] - root[1], rel=1e-9)


def test_fresh_peak_rss_excludes_parent_memory():
    held = np.ones(200 * 2**20 // 8)  # 200 MiB resident in this process
    report = run.fresh([])
    assert report["rc"] is None
    assert report["peak_rss_kb"] < 150 * 1024
    assert held[-1] == 1.0
