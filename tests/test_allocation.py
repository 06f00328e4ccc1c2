"""Allocation schemes: budgets, received-only rule, side-view determinism."""

import pytest

from mvcode import (Params, RegimeError, Scheme, SystemState, alloc_c1, alloc_c2,
                    alloc_centralized, allocation_for, alpha_bits, alpha_symbols,
                    enumerate_states, latest_complete, receivers, scheme_granularity,
                    side_view)
from mvcode.fixtures import fixture_thm3, make_thm3_params
from mvcode.model import neighborhood


P6 = make_thm3_params(6, 1024)   # n=6, cw=cr=5, h=2, c=4
P8 = Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024)  # c=6


def view_of(subsets, i, p):
    return side_view(SystemState.of(p, subsets), i, p)


class TestRegimes:
    def test_c1_rejects_odd_n(self):
        with pytest.raises(RegimeError):
            scheme_granularity(Scheme.C1, Params(n=5, cw=4, cr=4, nu=2, h=2, k_bits=64))

    def test_c1_rejects_wrong_radius(self):
        with pytest.raises(RegimeError):
            scheme_granularity(Scheme.C1, Params(n=6, cw=5, cr=5, nu=2, h=1, k_bits=64))

    def test_c2_rejects_small_overlap(self):
        # c = 4 < 2*3-1
        with pytest.raises(RegimeError):
            scheme_granularity(Scheme.C2, Params(n=6, cw=5, cr=5, nu=3, h=2, k_bits=64))

    def test_central_requires_full_information(self):
        with pytest.raises(RegimeError):
            scheme_granularity(Scheme.CENTRAL, P6)

    def test_granularities(self):
        assert scheme_granularity(Scheme.C1, P6).denom == 16
        assert scheme_granularity(Scheme.C2, P6).denom == 2
        assert scheme_granularity(Scheme.C2, P8).denom == 2
        full = Params(n=6, cw=5, cr=5, nu=2, h=3, k_bits=1024)
        assert scheme_granularity(Scheme.CENTRAL, full).denom == 4

    def test_alpha(self):
        assert alpha_symbols(Scheme.C1, P6) == 6
        assert alpha_bits(Scheme.C1, P6) == 384
        assert alpha_bits(Scheme.C2, P6) == 512
        assert alpha_bits(Scheme.C2, P8) == 512


class TestAllocC1:
    def test_threshold_met_splits_budget(self):
        view = view_of([{1, 2}] * 5 + [set()], 0, P6)
        alloc = alloc_c1(view, P6)
        assert dict(alloc.symbols) == {2: 4, 1: 2}
        assert alloc.count(2) == P6.c                       # K/c in symbols of K/c^2
        assert alloc.count(1) == alpha_symbols(Scheme.C1, P6) - P6.c

    def test_threshold_missed_gives_all_to_version_1(self):
        # only three visible receivers of version 2
        view = view_of([{1, 2}, {1, 2}, {1, 2}, {1}, {1}, set()], 0, P6)
        assert view.receiver_count(2) == 3
        alloc = alloc_c1(view, P6)
        assert dict(alloc.symbols) == {1: 6}
        assert alloc.count(1) == alpha_symbols(Scheme.C1, P6)

    def test_received_only_drops_version_1_share(self):
        view = view_of([{2}, {2}, {2}, {2}, {2}, set()], 0, P6)
        alloc = alloc_c1(view, P6)
        assert dict(alloc.symbols) == {2: 4}

    def test_cost_cap_tight_over_all_states(self):
        cap = alpha_symbols(Scheme.C1, P6)
        seen_cap = False
        for S in enumerate_states(P6):
            for i in range(P6.n):
                total = sum(s for _, s in allocation_for(Scheme.C1, S, i, P6).symbols)
                assert total <= cap
                seen_cap = seen_cap or total == cap
        assert seen_cap

    def test_at_most_two_observers_of_an_incomplete_version(self):
        # exactly cw-1 = n-2 receivers of version 2
        threshold = P6.n - 2
        for S in enumerate_states(P6):
            if len(receivers(S, 2)) != P6.cw - 1:
                continue
            observers = [i for i in range(P6.n)
                         if sum(1 for j in neighborhood(i, P6) if 2 in S[j]) >= threshold]
            assert len(observers) <= 2, (S, observers)


class TestAllocC2:
    def test_single_slot_for_local_latest(self):
        S = SystemState.of(P8, [{1, 2, 3}] * 7 + [set()])
        alloc = alloc_c2(side_view(S, 0, P8), P8)
        assert dict(alloc.symbols) == {3: 1}
        assert alloc.count(3) == alpha_symbols(Scheme.C2, P8)

    def test_empty_server_stores_nothing(self):
        S = SystemState.of(P6, [set()] + [{1}] * 5)
        alloc = alloc_c2(side_view(S, 0, P6), P6)
        assert alloc.symbols == ()
        assert alloc.count(1) == alloc.count(2) == 0

    def test_local_latest_from_threshold_count(self):
        S = SystemState.of(P6, [{1}] * 6)
        alloc = alloc_c2(side_view(S, 0, P6), P6)
        assert dict(alloc.symbols) == {1: 1}
        assert alloc.count(1) == alpha_symbols(Scheme.C2, P6)


class TestAllocCentral:
    FULL = Params(n=6, cw=5, cr=5, nu=2, h=3, k_bits=1024)

    def test_one_share_of_the_latest_complete(self):
        S = SystemState.of(self.FULL, [{1, 2}] * 5 + [set()])
        alloc = alloc_centralized(S, 0, self.FULL)
        assert dict(alloc.symbols) == {2: 1}
        assert alloc.count(2) == alpha_symbols(Scheme.CENTRAL, self.FULL)

    def test_empty_when_nothing_complete(self):
        S = SystemState.of(self.FULL, [{1}] * 3 + [set()] * 3)
        assert alloc_centralized(S, 0, self.FULL).symbols == ()

    def test_received_only(self):
        # version 1 is complete but this server only holds version 2
        S = SystemState.of(self.FULL, [{2}] + [{1}] * 5)
        assert latest_complete(S, self.FULL) == 1
        assert alloc_centralized(S, 0, self.FULL).symbols == ()


class TestSideViewDeterminism:
    def test_equal_views_get_equal_allocations(self):
        pair = fixture_thm3(P6)
        blind = next(iter(pair.indistinguishable))
        v1 = side_view(pair.s1, blind, P6)
        v2 = side_view(pair.s2, blind, P6)
        assert v1 == v2
        assert alloc_c1(v1, P6) == alloc_c1(v2, P6)
        assert alloc_c2(v1, P6) == alloc_c2(v2, P6)

