import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from dqwalk import bessel
from dqwalk.bessel import (
    SeriesTruncation,
    bessel_i_scaled_orders,
    bessel_i_scaled_row,
    bessel_j_orders,
    bessel_j_row,
    check_truncation,
    truncation_order,
)
from dqwalk.exceptions import NumericalError, TruncationMismatchError

from series_reference import i_scaled_series, j_series

TINY = sys.float_info.min

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
        tail = 2.0 * special.ive(np.arange(trunc.n_max + 1, trunc.n_max + 400), 100.0).sum()
        assert tail < 1e-14

    @pytest.mark.parametrize("n_max,x", [(5, 30.0), (20, 7.0), (54, 7.0)])
    def test_scaled_i_tail_against_series_reference(self, n_max, x):
        # the row's tail, which truncation_order sums, keeps its relative
        # accuracy: (54, 7) is 1.6e-46, far below the 1e-16 floor of
        # 1 - (retained mass)
        tail = 2.0 * bessel_i_scaled_row(n_max + 199, x)[n_max + 1 :].sum()
        ref = 2.0 * float(sum(i_scaled_series(n, x) for n in range(n_max + 1, n_max + 200)))
        assert abs(tail - ref) < 1e-12 * ref

    def test_eps_below_roundoff_floor_returns(self):
        result = []
        worker = threading.Thread(
            target=lambda: result.append(truncation_order(0.0, 7.0, 1e-17)), daemon=True
        )
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        n_max = result[0].n_max
        assert 2.0 * special.ive(np.arange(n_max + 1, n_max + 200), 7.0).sum() < 1e-17

    def test_growth_is_capped(self, monkeypatch):
        # growth stops at the end of the recurrence row, which must be finite
        monkeypatch.setattr(bessel, "_scaled_i_pass", lambda x: np.full(60, math.nan))
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
            SeriesTruncation(n_max=-2, eps_tail=1e-14, tprime=0.0, x=0.0, weights=np.ones(1))
        with pytest.raises(ValueError, match="shape"):
            SeriesTruncation(n_max=1, eps_tail=1e-14, tprime=0.0, x=0.0, weights=np.ones(2))


def j_bound_below_tiny(n, x):
    """Orders whose bound (x/2)^n / n! on |J_n(x)| is below TINY."""
    return n * math.log(0.5 * x) - np.array([math.lgamma(k + 1) for k in n]) < math.log(TINY)


def i_bound_below_tiny(n, x):
    """Orders whose Chernoff bound on e^{-x} I_n(x) is below TINY."""
    return np.hypot(n, x) - x - n * np.arcsinh(n / x) < math.log(TINY)


class TestRecurrenceAgainstScipy:
    """The recurrence rows against scipy.special, an independent implementation."""

    @pytest.mark.parametrize("x", [0.0, 1e-12])
    def test_small_arguments(self, x):
        # scipy flushes values near 1e-292 (J_22(1e-12)) to zero; the rows keep them
        n = np.arange(41)
        np.testing.assert_allclose(bessel_j_row(40, x), special.jv(n, x), rtol=1e-12, atol=1e-290)
        np.testing.assert_allclose(
            bessel_i_scaled_row(40, x), special.ive(n, x), rtol=1e-12, atol=1e-290
        )

    def test_j_row_at_2000_to_order_5000(self):
        x = 2000.0
        n = np.arange(5001)
        row, ref = bessel_j_row(5000, x), special.jv(n, x)
        assert np.abs(row - ref).max() < 1e-12
        # past the turning point the values decay; there they agree relatively
        tail = (n > x + 10.0 * x ** (1.0 / 3.0)) & (np.abs(ref) > 1e-290)
        assert tail.sum() > 800
        assert np.max(np.abs(row - ref)[tail] / np.abs(ref[tail])) < 1e-11

    @pytest.mark.parametrize("x", [0.5, 50.0, 400.0, 1000.0, 1e4])
    def test_scaled_i_rows_up_to_1e4(self, x):
        row, ref = bessel_i_scaled_row(5000, x), special.ive(np.arange(5001), x)
        normal = ref > 1e-290
        assert np.max(np.abs(row - ref)[normal] / ref[normal]) < 1e-11
        assert np.abs(row[~normal]).max(initial=0.0) < 1e-289

    @pytest.mark.parametrize("x", [3.8, 50.0, 300.0])
    def test_rescaling_path(self, x, monkeypatch):
        # at x = 2000 the values grow by about 1e441 and rescale twice on
        # their own; a low threshold makes every row rescale every few orders
        j, i = bessel_j_row(400, x), bessel_i_scaled_row(400, x)
        monkeypatch.setattr(bessel, "RESCALE", 1e3)
        # J changes sign, so near its zeros only the absolute error is small
        np.testing.assert_allclose(bessel_j_row(400, x), j, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(bessel_i_scaled_row(400, x), i, rtol=1e-13, atol=1e-300)
        n = np.arange(401)
        ref = special.jv(n, x)
        assert np.abs(bessel_j_row(400, x) - ref).max() < 1e-13

    @pytest.mark.parametrize("x", [1.0, 10.0, 60.0])
    def test_zero_filled_past_underflow_start(self, x):
        n = np.arange(1200)
        j_zero, i_zero = j_bound_below_tiny(n, x), i_bound_below_tiny(n, x)
        assert j_zero.sum() > 100 and i_zero.sum() > 100
        j_row, i_row = bessel_j_row(1199, x), bessel_i_scaled_row(1199, x)
        assert np.all(j_row[j_zero] == 0.0) and np.all(i_row[i_zero] == 0.0)
        assert np.all(np.abs(special.jv(n[j_zero], x)) < TINY)
        assert np.all(special.ive(n[i_zero], x) < TINY)
        # below the zero-filled orders the rows keep their accuracy
        ref = special.jv(n, x)
        normal = ~j_zero & (np.abs(ref) > 1e-290)
        assert np.max(np.abs(j_row - ref)[normal] / np.abs(ref[normal])) < 1e-11

    @pytest.mark.parametrize("x", [1e10, 1e307, 1.7e308])
    def test_start_order_is_capped(self, x):
        # J starts above order x; I above sqrt(1416 x), near 2.8e9 at the cap
        with pytest.raises(ValueError, match="recurrence"):
            bessel_j_row(0, x)
        with pytest.raises(ValueError, match="recurrence"):
            bessel_i_scaled_row(0, x)
        with pytest.raises(ValueError, match="recurrence"):
            bessel_j_row(0, 2.0 * bessel.MAX_ORDER)

    def test_truncation_order_is_capped(self):
        # x = 0, so only the tprime term of the heuristic is large
        with pytest.raises(ValueError, match="truncation order"):
            truncation_order(2.0 * bessel.MAX_ORDER, 0.0)


def j_row_reaching_past(tprime):
    """Orders far enough past t' that the J row holds all its mass."""
    return bessel_j_row(math.ceil(tprime + 10.0 * tprime ** (1.0 / 3.0)) + 40, tprime)


class TestRecurrenceProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e3))
    def test_j_row_identities(self, tprime):
        row = j_row_reaching_past(tprime)
        assert np.all(np.isfinite(row))
        assert abs(row[0] + 2.0 * row[2::2].sum() - 1.0) < 1e-13
        # not used by the recurrence: sum_n J_n^2 = 1 and sum_n n^2 J_n^2 = t'^2 / 2
        squares = row * row
        assert abs(squares[0] + 2.0 * squares[1:].sum() - 1.0) < 1e-12
        n = np.arange(row.size)
        assert abs(2.0 * (n * n * squares).sum() - 0.5 * tprime**2) <= 1e-11 * max(tprime**2, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e3), st.integers(min_value=0, max_value=3000))
    def test_j_parity(self, tprime, top):
        n = np.arange(top + 1)
        assert np.array_equal(bessel_j_orders(-n, tprime), bessel_j_orders(n, tprime) * (-1.0) ** n)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e4))
    def test_scaled_i_row_identities(self, x):
        trunc = truncation_order(0.0, x)
        w = bessel_i_scaled_row(trunc.n_max, x)
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        assert abs(w[0] + 2.0 * w[1:].sum() - 1.0) < 1e-13
        # not used by the recurrence: the Skellam variance sum_n n^2 w_n = x
        n = np.arange(w.size)
        assert abs(2.0 * (n * n * w).sum() - x) <= 1e-12 * max(x, 1.0)
        np.testing.assert_array_equal(trunc.weights, bessel_i_scaled_orders(trunc.orders(), x))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e4), st.integers(min_value=0, max_value=3000))
    def test_scaled_i_symmetry(self, x, top):
        n = np.arange(top + 1)
        assert np.array_equal(bessel_i_scaled_orders(-n, x), bessel_i_scaled_orders(n, x))
