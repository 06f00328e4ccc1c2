"""Allocation schemes: budgets, received-only rule, side-view determinism."""

import pytest

from mvcode import (Params, RegimeError, Scheme, SystemState, alloc_c1, alloc_c2,
                    alloc_centralized, allocation_for, alpha_bits, alpha_symbols,
                    encode_all, latest_complete, receivers, scheme_granularity,
                    server_encode, side_view)
from mvcode import allocation
from mvcode.fixtures import fixture_thm3, make_thm3_params
from mvcode.model import ring_window
from mvcode.verifier import random_payloads
from helpers import all_states


P6 = make_thm3_params(6, 1024)   # n=6, cw=cr=5, h=2, c=4
P8 = Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024)  # c=6
# the smallest regime of each scheme, small enough to walk every state
N4 = {Scheme.C1: Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=64),    # c=2
      Scheme.C2: Params(n=4, cw=3, cr=4, nu=2, h=1, k_bits=64),    # c=3
      Scheme.CENTRAL: Params(n=4, cw=3, cr=3, nu=2, h=2, k_bits=64)}


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
        assert scheme_granularity(Scheme.C1, P6) == 16
        assert scheme_granularity(Scheme.C2, P6) == 2
        assert scheme_granularity(Scheme.C2, P8) == 2
        full = Params(n=6, cw=5, cr=5, nu=2, h=3, k_bits=1024)
        assert scheme_granularity(Scheme.CENTRAL, full) == 4

    def test_alpha(self):
        assert alpha_symbols(Scheme.C1, P6) == 6
        assert alpha_bits(Scheme.C1, P6) == 384
        assert alpha_bits(Scheme.C2, P6) == 512
        assert alpha_bits(Scheme.C2, P8) == 512


class TestAllocC1:
    def test_threshold_met_splits_budget(self):
        view = view_of([{1, 2}] * 5 + [set()], 0, P6)
        alloc = alloc_c1(view, P6)
        assert alloc == {2: 4, 1: 2}
        assert alloc.get(2, 0) == P6.c                 # K/c in symbols of K/c^2
        assert alloc.get(1, 0) == alpha_symbols(Scheme.C1, P6) - P6.c

    def test_threshold_missed_gives_all_to_version_1(self):
        # only three visible receivers of version 2
        view = view_of([{1, 2}, {1, 2}, {1, 2}, {1}, {1}, set()], 0, P6)
        assert view.receiver_count(2) == 3
        alloc = alloc_c1(view, P6)
        assert alloc == {1: 6}
        assert alloc.get(1, 0) == alpha_symbols(Scheme.C1, P6)

    def test_received_only_drops_version_1_share(self):
        view = view_of([{2}, {2}, {2}, {2}, {2}, set()], 0, P6)
        alloc = alloc_c1(view, P6)
        assert alloc == {2: 4}

    def test_cost_cap_tight_over_all_states(self):
        cap = alpha_symbols(Scheme.C1, P6)
        seen_cap = False
        for S in all_states(P6):
            for i in range(P6.n):
                total = sum(allocation_for(Scheme.C1, S, i, P6).values())
                assert total <= cap
                seen_cap = seen_cap or total == cap
        assert seen_cap

    def test_at_most_two_observers_of_an_incomplete_version(self):
        # exactly cw-1 = n-2 receivers of version 2
        threshold = P6.n - 2
        for S in all_states(P6):
            if len(receivers(S, 2)) != P6.cw - 1:
                continue
            observers = [i for i in range(P6.n)
                         if sum(1 for j in ring_window(i, P6.n, P6.h) if 2 in S[j]) >= threshold]
            assert len(observers) <= 2, (S, observers)


class TestAllocC2:
    def test_single_slot_for_local_latest(self):
        S = SystemState.of(P8, [{1, 2, 3}] * 7 + [set()])
        alloc = alloc_c2(side_view(S, 0, P8), P8)
        assert alloc == {3: 1}
        assert alloc.get(3, 0) == alpha_symbols(Scheme.C2, P8)

    def test_empty_server_stores_nothing(self):
        S = SystemState.of(P6, [set()] + [{1}] * 5)
        alloc = alloc_c2(side_view(S, 0, P6), P6)
        assert alloc == {}
        assert alloc.get(1, 0) == alloc.get(2, 0) == 0

    def test_local_latest_from_threshold_count(self):
        S = SystemState.of(P6, [{1}] * 6)
        alloc = alloc_c2(side_view(S, 0, P6), P6)
        assert alloc == {1: 1}
        assert alloc.get(1, 0) == alpha_symbols(Scheme.C2, P6)


class TestAllocCentral:
    FULL = Params(n=6, cw=5, cr=5, nu=2, h=3, k_bits=1024)

    def test_one_share_of_the_latest_complete(self):
        S = SystemState.of(self.FULL, [{1, 2}] * 5 + [set()])
        alloc = alloc_centralized(S, 0, self.FULL)
        assert alloc == {2: 1}
        assert alloc.get(2, 0) == alpha_symbols(Scheme.CENTRAL, self.FULL)

    def test_empty_when_nothing_complete(self):
        S = SystemState.of(self.FULL, [{1}] * 3 + [set()] * 3)
        assert alloc_centralized(S, 0, self.FULL) == {}

    def test_received_only(self):
        # version 1 is complete but this server only holds version 2
        S = SystemState.of(self.FULL, [{2}] + [{1}] * 5)
        assert latest_complete(S, self.FULL) == 1
        assert alloc_centralized(S, 0, self.FULL) == {}


class TestSideViewDeterminism:
    def test_equal_views_get_equal_allocations(self):
        pair = fixture_thm3(P6)
        blind = next(iter(pair.indistinguishable))
        v1 = side_view(pair.s1, blind, P6)
        v2 = side_view(pair.s2, blind, P6)
        assert v1 == v2
        assert alloc_c1(v1, P6) == alloc_c1(v2, P6)
        assert alloc_c2(v1, P6) == alloc_c2(v2, P6)



class TestPlainDicts:
    """An allocation is the {version: symbols} dict its rule returns."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_only_received_versions_with_positive_counts(self, scheme):
        p = N4[scheme]
        for S in all_states(p):
            for i in range(p.n):
                alloc = allocation_for(scheme, S, i, p)
                assert type(alloc) is dict
                assert set(alloc) <= S[i] and all(s > 0 for s in alloc.values()), (S, i)

    @pytest.mark.parametrize("descending", [False, True])
    def test_stores_do_not_depend_on_dict_order(self, monkeypatch, descending):
        # {2: c, 1: 2} and {1: 2, 2: c} are one allocation, so one store
        p = N4[Scheme.C1]
        msgs = random_payloads(p, 5)
        expected = {S: encode_all(Scheme.C1, S, msgs, p) for S in all_states(p)}
        original = allocation.alloc_c1

        def reordered(view, p):
            return dict(sorted(original(view, p).items(), reverse=descending))

        monkeypatch.setattr(allocation, "alloc_c1", reordered)
        split = False
        for S, stores in expected.items():
            assert encode_all(Scheme.C1, S, msgs, p) == stores
            for i in range(p.n):
                assert server_encode(Scheme.C1, S, i, {u: msgs[u] for u in S[i]}, p) == stores[i]
                versions = [cs.version for cs in stores[i]]
                assert versions == sorted(versions)
                split = split or allocation_for(Scheme.C1, S, i, p) == {1: 2, 2: p.c}
        assert split
