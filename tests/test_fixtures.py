"""Indistinguishability pairs: state construction, blind windows, read sets."""

import pytest

from mvcode import (Params, RegimeError, latest_complete, receivers, side_view)
from mvcode.fixtures import (FixturePair, check_indistinguishable, fixture_thm3,
                             fixture_thm4, make_thm3_params, make_thm4_params,
                             thm3_read_sets, thm4_l_choices, thm4_read_sets)


class TestThm3:
    def test_states_at_n6(self):
        p = make_thm3_params(6, 1024)
        pair = fixture_thm3(p)
        assert pair.s1.to_json() == "[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]"
        assert pair.s2.to_json() == "[[1, 2], [1, 2], [1, 2], [1, 2], [1], []]"
        assert pair.indistinguishable == {1}

    def test_decode_requirements_match_completeness(self):
        p = make_thm3_params(6, 1024)
        pair = fixture_thm3(p)
        assert latest_complete(pair.s1, p) == 2
        assert latest_complete(pair.s2, p) == 1
        assert pair.required_decodes == {"s1": frozenset({2}), "s2": frozenset({1, 2})}

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_blind_server_sees_identical_views(self, n):
        p = make_thm3_params(n, 1024)
        pair = fixture_thm3(p)
        assert check_indistinguishable(pair, p) == []
        blind = n // 2 - 2
        assert pair.indistinguishable == {blind}
        assert side_view(pair.s1, blind, p) == side_view(pair.s2, blind, p)
        # the changed server itself can always tell
        assert side_view(pair.s1, n - 2, p) != side_view(pair.s2, n - 2, p)

    def test_regime_rejections(self):
        with pytest.raises(RegimeError):
            make_thm3_params(7, 1024)
        p_bad_h = Params(n=6, cw=5, cr=5, nu=2, h=1, k_bits=1024)
        with pytest.raises(RegimeError):
            fixture_thm3(p_bad_h)

    @pytest.mark.parametrize("n", [-2, 0, 2, 3, 7])
    def test_params_need_even_n_of_at_least_four(self, n):
        # n=2 gives cw = cr = 1 and overlap c = 0: the pair's rule refuses it before Params
        with pytest.raises(RegimeError, match=rf"^the thm3 pair needs even n >= 4, got {n}$"):
            make_thm3_params(n, 1024)

    def test_read_sets(self):
        p = make_thm3_params(6, 1024)
        r1, r2 = thm3_read_sets(p)
        assert len(r1) == len(r2) == p.cr
        assert {1, 5} <= set(r1)      # n/2-2 and n-1
        assert {1, 4, 5} <= set(r2)   # n/2-2, n-2, n-1


class TestThm4:
    def test_sets_at_n11_c3(self):
        p = make_thm4_params(11, 3, 1024)
        pair = fixture_thm4(p)
        assert receivers(pair.s1, 2) == {0, 1, 2, 5, 6, 7, 8}
        assert receivers(pair.s1, 1) == {0, 1, 2, 3, 4, 9, 10}
        assert receivers(pair.s2, 1) == receivers(pair.s1, 1)
        assert receivers(pair.s2, 2) == {0, 1, 2}
        assert pair.indistinguishable == {0, 1, 2}

    def test_completeness_at_n11_c3(self):
        p = make_thm4_params(11, 3, 1024)
        pair = fixture_thm4(p)
        assert len(receivers(pair.s1, 2)) == p.cw == 7
        assert latest_complete(pair.s1, p) == 2
        assert latest_complete(pair.s2, p) == 1

    @pytest.mark.parametrize("n,c", [(11, 3), (18, 6)])
    def test_indistinguishability(self, n, c):
        p = make_thm4_params(n, c, 1024)
        pair = fixture_thm4(p)
        assert check_indistinguishable(pair, p) == []
        for i in range(c):
            assert side_view(pair.s1, i, p) == side_view(pair.s2, i, p)

    def test_smaller_h_still_blind(self):
        p = make_thm4_params(11, 3, 1024, h=1)
        assert check_indistinguishable(fixture_thm4(p), p) == []

    def test_regime_rejections(self):
        with pytest.raises(RegimeError):
            make_thm4_params(12, 3, 1024)       # (n-c)/4 not an integer
        with pytest.raises(RegimeError):
            fixture_thm4(make_thm4_params(11, 3, 1024, h=3))  # h > (n-c)/4
        with pytest.raises(RegimeError):
            # n too small: needs n >= ceil(7c/3)+4 = 18 for c=6
            fixture_thm4(make_thm4_params(14, 6, 1024))

    def test_read_sets_both_l_choices(self):
        p = make_thm4_params(11, 3, 1024)
        l_hi, l_lo = thm4_l_choices(3)
        assert (l_hi, l_lo) == (1, 1)  # ceil(2)=floor(2)=2 at c=3
        r1, r2 = thm4_read_sets(p, 1)
        assert r1 == (0, 1, 2, 3, 4, 9, 10)
        assert r2 == (0, 1, 3, 5, 6, 7, 8)
        assert len(r1) == len(r2) == p.cr
        with pytest.raises(RegimeError):
            thm4_read_sets(p, 5)

    def test_read_sets_distinct_l_choices_at_c6(self):
        p = make_thm4_params(18, 6, 1024)
        l_hi, l_lo = thm4_l_choices(6)
        assert (l_hi, l_lo) == (3, 3)
        # c not divisible by 3 gives two distinct choices
        assert thm4_l_choices(7) == (4, 3)
        for l in thm4_l_choices(6):
            r1, r2 = thm4_read_sets(p, l)
            assert len(r1) == len(r2) == p.cr


class TestCheckIndistinguishable:
    def test_identical_pair_waives_the_distinguisher(self):
        p = make_thm3_params(6, 1024)
        pair = fixture_thm3(p)
        same = FixturePair(pair.s1, pair.s1, pair.indistinguishable,
                           pair.required_decodes)
        assert check_indistinguishable(same, p) == []

    def test_detects_a_seeing_server(self):
        p = make_thm3_params(6, 1024)
        pair = fixture_thm3(p)
        # server 2 can see server 4 = n-2, so listing it must fail
        bad = FixturePair(pair.s1, pair.s2, frozenset({1, 2}), pair.required_decodes)
        problems = check_indistinguishable(bad, p)
        assert problems and "server 2" in problems[0]
