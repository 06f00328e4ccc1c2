"""Closed-form costs and lower bounds, exact-rational behavior, table emission."""

import csv
import io
import json
from fractions import Fraction

import pytest

from mvcode import RegimeError
from mvcode.bounds import (CSV_COLUMNS, VERDICT_GAIN, VERDICT_NO_HELP, baseline_t,
                           compare_report, cost_baseline, cost_c1, cost_c2,
                           cost_centralized, lb_eq1, lb_eq1_leading, lb_thm3,
                           lb_thm4, lb_thm4_sweep, rows_to_csv, rows_to_json)

K = 1024


class TestClosedForms:
    def test_cost_c1(self):
        assert cost_c1(K, 4) == Fraction(6 * K, 16) == 384
        assert cost_c1(K, 4) < Fraction(2 * K, 5)  # strictly below 2/(c+1) at c=4

    def test_cost_c2(self):
        assert cost_c2(K, 2, 4) == K / 2 == 512
        assert cost_c2(K, 3, 6) == 512
        with pytest.raises(RegimeError):
            cost_c2(K, 3, 4)

    def test_cost_centralized(self):
        assert cost_centralized(K, 4) == 256

    def test_c1_beats_c2_for_two_versions(self):
        for c in range(3, 65):
            assert cost_c1(K, c) < cost_c2(K, 2, c)


class TestBaseline:
    def test_t_values(self):
        assert baseline_t(2, 4) == 3
        assert baseline_t(2, 5) == 3
        assert baseline_t(2, 2) == 2

    def test_costs(self):
        assert cost_baseline(K, 2, 4) == Fraction(5 * K, 12)
        assert cost_baseline(K, 2, 5) == Fraction(K, 3)
        assert cost_baseline(K, 2, 2) == Fraction(3 * K, 4)

    def test_asymptotic_tightness_when_t_matches(self):
        # at c=5, nu=2 the baseline meets the leading term of the lower bound
        assert cost_baseline(K, 2, 5) == lb_eq1_leading(2, 5) * K


class TestLbEq1:
    def test_example_value(self):
        assert lb_eq1(1024, 2, 4) == pytest.approx(408.5356, abs=1e-3)

    def test_single_version(self):
        import math
        assert lb_eq1(K, 1, 4) == pytest.approx(K / 4 - math.log2(4) / 4)

    def test_leading_term_dominates_as_k_grows(self):
        lead = lb_eq1_leading(2, 4)
        for k_bits in (1 << 10, 1 << 20, 1 << 30):
            ratio = lb_eq1(k_bits, 2, 4) / k_bits
            assert abs(ratio - lead) < 8 / k_bits
        assert lead == Fraction(2, 5)


class TestConverses:
    def test_lb_thm3(self):
        assert lb_thm3(K, 4) == Fraction(2 * K, 7)
        assert lb_thm3(K, 1) == 2 * K
        assert lb_thm3(K, 4) <= cost_c1(K, 4)

    def test_lb_thm3_asymptotics(self):
        for c in (10, 100, 1000):
            expansion = K / c + 0.5 * K / (c * c)
            assert float(lb_thm3(K, c)) == pytest.approx(expansion, rel=1e-2)

    def test_lb_thm4_values(self):
        assert lb_thm4(K, 3) == K / 2
        assert lb_thm4(K, 6) == K / 4
        assert lb_thm4(K, 7) == Fraction(K, 5)
        with pytest.raises(RegimeError):
            lb_thm4(K, 2)

    def test_lb_thm4_equals_the_l_sweep(self):
        for c in range(3, 51):
            assert lb_thm4(K, c) == lb_thm4_sweep(K, c), c


class TestOrderingChain:
    def test_chain_in_the_two_version_regime(self):
        for c in range(4, 65):
            central = cost_centralized(K, c)
            t3 = lb_thm3(K, c)
            c1 = cost_c1(K, c)
            c2 = cost_c2(K, 2, c)
            assert central <= t3 <= c1 <= c2
        # the baseline link holds from c=5 (equality at c=5); at c=4 the
        # single-slot scheme is strictly worse than the no-sharing baseline
        for c in range(5, 65):
            assert cost_c2(K, 2, c) <= cost_baseline(K, 2, c), c
        assert cost_c2(K, 2, 4) > cost_baseline(K, 2, 4)


class TestStrictness:
    def test_c1_remark_is_strict_from_c4(self):
        for c in range(4, 65):
            assert cost_c1(K, c) < Fraction(2 * K, c + 1)

    def test_c2_remark_boundary(self):
        # equality at c = 2*nu+1, strict from c = 2*nu+2
        for nu in range(2, 7):
            lead = lb_eq1_leading(nu, 2 * nu + 1) * K
            assert cost_c2(K, nu, 2 * nu + 1) == lead
            for c in range(2 * nu + 2, 65):
                assert cost_c2(K, nu, c) < lb_eq1_leading(nu, c) * K, (nu, c)


class TestCompareReport:
    def test_row_c4(self):
        rows = compare_report(4, 4, 2, K)
        assert len(rows) == 1
        row = rows[0]
        assert row.cost_baseline == Fraction(5 * K, 12)
        assert row.cost_c1 == 384
        assert row.lb_thm3 == Fraction(2 * K, 7)
        assert row.verdict == VERDICT_GAIN

    def test_no_help_at_c3(self):
        row = compare_report(3, 3, 2, K)[0]
        assert row.lb_thm4 == row.cost_baseline == K / 2
        assert row.verdict == VERDICT_NO_HELP

    def test_gain_at_c5(self):
        row = compare_report(5, 5, 2, K)[0]
        assert row.cost_baseline == Fraction(K, 3)
        assert row.cost_c1 == Fraction(7 * K, 25)
        assert row.verdict == VERDICT_GAIN

    def test_range_and_regime_gaps(self):
        rows = compare_report(3, 10, 2, K)
        assert [r.c for r in rows] == list(range(3, 11))
        rows3 = compare_report(5, 12, 3, K)
        assert all(r.cost_c2 is not None for r in rows3)   # c >= 2*nu-1 = 5
        rows3lo = compare_report(4, 4, 3, K)
        assert rows3lo[0].cost_c2 is None

    def test_csv_shape(self):
        rows = compare_report(3, 10, 2, K)
        parsed = list(csv.reader(io.StringIO(rows_to_csv(rows))))
        assert tuple(parsed[0]) == CSV_COLUMNS
        assert len(parsed) == 9
        c3 = parsed[1]
        assert c3[0] == "3" and c3[-1] == VERDICT_NO_HELP

    def test_json_carries_exact_fractions(self):
        doc = json.loads(rows_to_json(compare_report(4, 4, 2, K)))
        assert doc[0]["exact"]["cost_baseline"] == "1280/3"
        assert doc[0]["cost_c1"] == 384.0

    def test_bad_range(self):
        with pytest.raises(ValueError):
            compare_report(5, 3, 2, K)

    @pytest.mark.parametrize("k_bits", [0, -8])
    def test_message_length_below_one_is_refused(self, k_bits):
        # costs scale with K, so K <= 0 would print zero or negative costs
        with pytest.raises(ValueError, match=f"K must be >= 1, got {k_bits}"):
            compare_report(3, 4, 2, k_bits)
