"""Core model: parameters, neighborhoods, views, completeness, enumeration."""

import pytest

from mvcode import (BudgetExceededError, Params, SystemState, complete_versions,
                    enumerate_states, latest_complete, neighborhood, random_state,
                    receivers, side_view, state_count)
from mvcode.fixtures import fixture_thm3, fixture_thm4, make_thm3_params, make_thm4_params
from mvcode.model import view_local_candidate


def params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=1024):
    return Params(n=n, cw=cw, cr=cr, nu=nu, h=h, k_bits=k_bits)


class TestParams:
    def test_overlap(self):
        assert params().c == 4

    @pytest.mark.parametrize("kwargs", [
        dict(cw=0), dict(cw=7), dict(cr=0), dict(cr=7),
        dict(cw=1, cr=1),        # c would be -4
        dict(nu=0), dict(h=-1), dict(k_bits=0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            params(**kwargs)

    def test_dict_round_trip(self):
        p = params()
        assert Params.from_dict(p.to_dict()) == p


class TestNeighborhood:
    def test_wraps_around_the_ring(self):
        assert neighborhood(1, params(n=6, h=2)) == {5, 0, 1, 2, 3}

    def test_zero_radius_is_self_only(self):
        assert neighborhood(0, params(n=5, cw=4, cr=4, h=0)) == {0}

    def test_saturates_to_all_servers(self):
        assert neighborhood(3, params(n=4, cw=4, cr=4, h=2)) == {0, 1, 2, 3}

    def test_rejects_bad_server_id(self):
        with pytest.raises(ValueError):
            neighborhood(6, params())

    @pytest.mark.parametrize("n,h", [(4, 1), (6, 2), (9, 3), (11, 5), (64, 7)])
    def test_symmetry_and_size(self, n, h):
        p = params(n=n, cw=n, cr=n, h=h)
        hoods = [neighborhood(i, p) for i in range(n)]
        for i in range(n):
            assert len(hoods[i]) == min(2 * h + 1, n)
            assert i in hoods[i]
            for j in range(n):
                assert (j in hoods[i]) == (i in hoods[j])


class TestSideView:
    def test_restriction(self):
        p = params(n=4, cw=4, cr=4, h=1)
        S = SystemState.of(p, [{1}, set(), set(), set()])
        view = side_view(S, 0, p)
        assert dict(view.window) == {3: frozenset(), 0: frozenset({1}), 1: frozenset()}
        assert view.center_state == {1}

    def test_full_information_limit(self):
        p = params(n=6, h=3)
        S = random_state(p, 5)
        view = side_view(S, 2, p)
        assert sorted(view.servers) == list(range(6))
        assert dict(view.window) == dict(enumerate(S.subsets))

    def test_depends_only_on_the_window(self):
        p = params()
        S = SystemState.of(p, [{1, 2}] * 6)
        view = side_view(S, 1, p)
        # server 4 is outside H_1 = {5,0,1,2,3}
        mutated = SystemState.of(p, [{1, 2}] * 4 + [set()] + [{1, 2}])
        assert side_view(mutated, 1, p) == view
        # mutating inside the window changes it
        inside = SystemState.of(p, [{1, 2}] * 3 + [set()] + [{1, 2}] * 2)
        assert side_view(inside, 1, p) != view

    def test_thm3_pair_views_match_at_blind_server(self):
        p = make_thm3_params(6, 1024)
        pair = fixture_thm3(p)
        assert side_view(pair.s1, 1, p) == side_view(pair.s2, 1, p)


class TestCompleteness:
    def test_receivers_thm3_s1(self):
        p = make_thm3_params(6, 1024)
        pair = fixture_thm3(p)
        assert receivers(pair.s1, 2) == {0, 1, 2, 3, 4}
        assert receivers(pair.s1, 1) == {0, 1, 2, 3, 4}

    def test_receivers_empty_state(self):
        S = SystemState.of(params(), [set()] * 6)
        assert receivers(S, 1) == frozenset()

    def test_receivers_thm4_s2(self):
        p = make_thm4_params(11, 3, 1024)
        pair = fixture_thm4(p)
        assert receivers(pair.s2, 2) == {0, 1, 2}

    def test_complete_versions_thm3(self):
        p = make_thm3_params(6, 1024)
        pair = fixture_thm3(p)
        assert complete_versions(pair.s1, p) == {1, 2}
        assert complete_versions(pair.s2, p) == {1}

    def test_latest_complete(self):
        p = make_thm3_params(6, 1024)
        pair = fixture_thm3(p)
        assert latest_complete(pair.s1, p) == 2
        assert latest_complete(pair.s2, p) == 1
        empty = SystemState.of(p, [set()] * 6)
        assert complete_versions(empty, p) == frozenset()
        assert latest_complete(empty, p) is None

    def test_latest_is_complete_with_threshold(self):
        p = params(n=4, cw=3, cr=3, nu=2, h=1)
        for S in enumerate_states(p):
            cs = complete_versions(S, p)
            latest = latest_complete(S, p)
            assert (latest in cs) == bool(cs)
            for u in cs:
                assert len(receivers(S, u)) >= p.cw


class TestLocalCandidate:
    def test_picks_widely_seen_latest(self):
        p = params()
        S = SystemState.of(p, [{1, 2}] * 5 + [set()])
        assert view_local_candidate(side_view(S, 0, p), p) == 2

    def test_none_when_server_is_empty(self):
        p = params()
        S = SystemState.of(p, [set()] + [{1, 2}] * 5)
        assert view_local_candidate(side_view(S, 0, p), p) is None

    def test_threshold_counts_window_receivers(self):
        # H_0 = {4,5,0,1,2} holds three receivers of version 2: below n-2 = 4
        p = params()
        S = SystemState.of(p, [{2}, {2}, {2}, {2}, set(), set()])
        assert sum(1 for j in neighborhood(0, p) if 2 in S[j]) == 3
        assert view_local_candidate(side_view(S, 0, p), p) is None

    def test_requires_membership(self):
        # every neighbor holds version 2 but the center does not
        p = params()
        S = SystemState.of(p, [{1}] + [{2}] * 5)
        assert view_local_candidate(side_view(S, 0, p), p) != 2


class TestEnumeration:
    def test_counts(self):
        assert state_count(params(n=6, nu=2)) == 4096
        assert state_count(params(n=2, cw=2, cr=2, nu=1, h=0)) == 4
        assert state_count(params(n=8, cw=7, cr=7, nu=3, h=3)) == 16_777_216

    def test_small_space_in_order(self):
        p = params(n=2, cw=2, cr=2, nu=1, h=0)
        states = [tuple(sorted(s) for s in S.subsets) for S in enumerate_states(p)]
        assert states == [([], []), ([1], []), ([], [1]), ([1], [1])]

    def test_no_duplicates_and_exact_count(self):
        p = params(n=6, nu=2)
        seen = set(enumerate_states(p))
        assert len(seen) == 4096

    def test_partitioning_is_a_partition(self):
        p = params(n=4, cw=4, cr=4, nu=2, h=1)
        whole = list(enumerate_states(p))
        pieces = []
        for lo in range(0, 256, 100):
            pieces.extend(enumerate_states(p, start=lo, stop=min(lo + 100, 256)))
        assert pieces == whole

    def test_budget(self):
        p = params(n=8, cw=7, cr=7, nu=3, h=3)
        with pytest.raises(BudgetExceededError):
            list(enumerate_states(p, budget=1000))
        # a slice within budget is fine
        assert len(list(enumerate_states(p, start=0, stop=10, budget=1000))) == 10


class TestRandomState:
    def test_deterministic(self):
        p = params()
        assert random_state(p, 99) == random_state(p, 99)

    def test_adjacent_seeds_differ(self):
        p = params()
        assert any(random_state(p, s) != random_state(p, s + 1) for s in range(5))

    def test_membership_frequency_is_uniform(self):
        p = params()
        samples = 100_000
        hits = {(i, u): 0 for i in range(p.n) for u in p.versions}
        for s in range(samples):
            S = random_state(p, s)
            for i in range(p.n):
                for u in S[i]:
                    hits[(i, u)] += 1
        for key, count in hits.items():
            assert abs(count / samples - 0.5) < 0.01, (key, count)


class TestSerialization:
    def test_json_round_trip(self):
        p = params()
        S = SystemState.of(p, [{1, 2}, {1}, set(), {2}, {1}, set()])
        assert SystemState.from_json(S.to_json(), p) == S
        assert S.to_json() == "[[1, 2], [1], [], [2], [1], []]"

    def test_validation(self):
        p = params()
        with pytest.raises(ValueError):
            SystemState.of(p, [{1, 3}] + [set()] * 5)
        with pytest.raises(ValueError):
            SystemState.of(p, [set()] * 5)
        with pytest.raises(ValueError):
            SystemState.from_json("[[1], 2]", p)
