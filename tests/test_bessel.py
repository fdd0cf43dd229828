import math
import threading

import numpy as np
import pytest

from dqwalk import bessel
from dqwalk.bessel import (
    SeriesTruncation,
    bessel_i_scaled_orders,
    bessel_i_scaled_row,
    bessel_j_orders,
    bessel_j_row,
    check_truncation,
    scaled_i_tail,
    truncation_order,
)
from dqwalk.exceptions import NumericalError, TruncationMismatchError

from series_reference import i_scaled_series, j_series

# frozen from the 40-digit ascending-series reference
J0_1 = 0.76519768655796655145
J1_1 = 0.44005058574493351596
I0S_1 = 0.4657596075936404365


class TestBesselJRow:
    def test_at_zero(self):
        assert bessel_j_row(0, 0.0).tolist() == [1.0]
        assert bessel_j_row(1, 0.0).tolist() == [1.0, 0.0]

    def test_frozen_values_at_one(self):
        row = bessel_j_row(1, 1.0)
        assert row[0] == pytest.approx(J0_1, abs=1e-14)
        assert row[1] == pytest.approx(J1_1, abs=1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.8, 10.0, 31.8, 50.0])
    def test_against_series_reference(self, x):
        row = bessel_j_row(40, x)
        for n in range(0, 41, 5):
            assert abs(row[n] - float(j_series(n, x))) < 1e-13

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bessel_j_row(3, float("nan"))
        with pytest.raises(ValueError):
            bessel_j_row(3, float("inf"))
        with pytest.raises(ValueError):
            bessel_j_row(-1, 1.0)


class TestBesselIScaledRow:
    def test_at_zero(self):
        assert bessel_i_scaled_row(0, 0.0).tolist() == [1.0]
        assert bessel_i_scaled_row(2, 0.0).tolist() == [1.0, 0.0, 0.0]

    def test_frozen_value_at_one(self):
        assert bessel_i_scaled_row(0, 1.0)[0] == pytest.approx(I0S_1, abs=1e-14)

    @pytest.mark.parametrize("x", [0.1, 1.0, 7.5, 20.0, 50.0])
    def test_against_series_reference(self, x):
        row = bessel_i_scaled_row(30, x)
        for n in range(0, 31, 3):
            assert abs(row[n] - float(i_scaled_series(n, x))) < 1e-12

    @pytest.mark.parametrize("x", [0.5, 5.0, 50.0, 400.0])
    def test_entries_bounded_and_monotone(self, x):
        row = bessel_i_scaled_row(60, x)
        assert np.all(row >= 0.0)
        assert np.all(row <= 1.0)
        assert np.all(np.diff(row) <= 1e-15)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            bessel_i_scaled_row(3, -1.0)


class TestParity:
    @pytest.mark.parametrize("x", [0.7, 31.8, 200.0])
    def test_j_parity(self, x):
        n = np.arange(-200, 201)
        vals = bessel_j_orders(n, x)
        flipped = bessel_j_orders(-n, x)
        assert np.array_equal(flipped, vals * (-1.0) ** np.abs(n))

    @pytest.mark.parametrize("x", [0.7, 31.8, 200.0])
    def test_i_symmetry(self, x):
        n = np.arange(-200, 201)
        assert np.array_equal(
            bessel_i_scaled_orders(n, x), bessel_i_scaled_orders(-n, x)
        )


class TestClosureIdentities:
    @pytest.mark.parametrize("x", [0.0, 1.0, 10.0, 31.8, 100.0])
    def test_j_squared_sums_to_one(self, x):
        trunc = truncation_order(x, 0.0)
        n = trunc.orders()
        vals = bessel_j_orders(n, x)
        assert abs(np.sum(vals * vals) - 1.0) < 1e-12

    @pytest.mark.parametrize("x", [0.0, 1.0, 10.0, 100.0, 400.0])
    def test_scaled_i_normalization(self, x):
        trunc = truncation_order(0.0, x)
        vals = bessel_i_scaled_orders(trunc.orders(), x)
        assert abs(np.sum(vals) - 1.0) < trunc.eps_tail

    def test_large_argument_asymptotics(self):
        # e^{-x} I_0(x) sqrt(2 pi x) -> 1, correction ~ 1/(8x)
        x = 100.0
        scaled = bessel_i_scaled_row(0, x)[0]
        assert abs(scaled * math.sqrt(2.0 * math.pi * x) - 1.0) < 2.0 / (8.0 * x)


class TestTruncationOrder:
    def test_heuristic_floor(self):
        trunc = truncation_order(0.0, 0.0, 1e-14)
        assert trunc.n_max == 20

    def test_j_tail_bound(self):
        trunc = truncation_order(10.0, 0.0, 1e-14)
        row = bessel_j_row(trunc.n_max + 10 + 30, 10.0)
        assert np.all(np.abs(row[trunc.n_max + 10 :]) < 1e-14)

    def test_scaled_i_tail_bound(self):
        trunc = truncation_order(0.0, 100.0, 1e-14)
        assert scaled_i_tail(trunc.n_max, 100.0) < 1e-14

    @pytest.mark.parametrize("n_max,x", [(5, 30.0), (20, 7.0), (54, 7.0)])
    def test_scaled_i_tail_against_series_reference(self, n_max, x):
        # (54, 7) is 1.6e-46, far below the 1e-16 floor of 1 - (retained mass)
        ref = 2.0 * float(sum(i_scaled_series(n, x) for n in range(n_max + 1, n_max + 200)))
        assert abs(scaled_i_tail(n_max, x) - ref) < 1e-12 * ref

    def test_eps_below_roundoff_floor_returns(self):
        result = []
        worker = threading.Thread(
            target=lambda: result.append(truncation_order(0.0, 7.0, 1e-17)), daemon=True
        )
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert scaled_i_tail(result[0].n_max, 7.0) < 1e-17

    def test_growth_is_capped(self, monkeypatch):
        monkeypatch.setattr(bessel, "scaled_i_tail", lambda n_max, x: math.nan)
        with pytest.raises(NumericalError):
            truncation_order(3.0, 1.5)

    @pytest.mark.parametrize(
        "tprime,x,n_max",
        [(100.0, 50.0, 167), (30.0, 300.0, 494), (200.0, 200.0, 362), (2000.0, 1000.0, 2146)],
    )
    def test_default_orders_frozen(self, tprime, x, n_max):
        assert truncation_order(tprime, x).n_max == n_max

    def test_records_build_parameters(self):
        trunc = truncation_order(3.0, 1.5)
        assert (trunc.tprime, trunc.x) == (3.0, 1.5)
        check_truncation(trunc, 3.0, 1.5)
        with pytest.raises(TruncationMismatchError):
            check_truncation(trunc, 3.0, 2.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            truncation_order(-1.0, 0.0)
        with pytest.raises(ValueError):
            truncation_order(0.0, 0.0, eps_tail=0.0)
        with pytest.raises(ValueError):
            SeriesTruncation(n_max=-2, eps_tail=1e-14, tprime=0.0, x=0.0)
