"""Core model: parameters, ring windows, views, completeness, state ranks."""

import numpy as np
import pytest

from mvcode import (Params, SystemState, complete_versions, latest_complete, random_state,
                    receivers, side_view, state_count)
from mvcode.fixtures import fixture_thm3, fixture_thm4, make_thm3_params, make_thm4_params
from mvcode.model import (SideView, rank_masks, ring_window, seeded_words, state_from_masks,
                          view_code, view_codes, view_local_candidate)
from helpers import all_states, ring_window_walk, view_code_reference


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


class TestNeighborhood:
    """ring_window: the servers one server sees, in offset order -h..+h."""

    def test_wraps_around_the_ring(self):
        assert ring_window(1, 6, 2) == (5, 0, 1, 2, 3)

    def test_zero_radius_is_self_only(self):
        assert ring_window(0, 5, 0) == (0,)

    def test_saturates_to_all_servers(self):
        # offsets -2..+2 from 3 reach 1, 2, 3, 0, then 1 again, which is dropped
        assert ring_window(3, 4, 2) == (1, 2, 3, 0)

    def test_rejects_bad_server_id(self):
        with pytest.raises(ValueError):
            ring_window(6, 6, 2)

    def test_equals_the_offset_walk(self):
        # radii past saturation included: the closed form never walks them
        for n in range(1, 13):
            for h in range(3 * n + 1):
                for i in range(n):
                    assert ring_window(i, n, h) == ring_window_walk(i, n, h), (i, n, h)

    @pytest.mark.parametrize("n,h", [(4, 1), (6, 2), (9, 3), (11, 5), (64, 7)])
    def test_symmetry_and_size(self, n, h):
        hoods = [ring_window(i, n, h) for i in range(n)]
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
        assert sorted(sid for sid, _ in view.window) == list(range(6))
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


class TestViewCodes:
    """view_codes numbers (state, server) pairs by their SideView, exactly."""

    @pytest.mark.parametrize("p", [params(n=4, cw=4, cr=4, h=1), params(n=3, cw=3, cr=3, h=0),
                                   params(n=3, cw=3, cr=3, h=2), params(n=5, cw=4, cr=4, nu=1, h=1)],
                             ids=["n4h1", "n3h0", "n3h2-saturated", "n5nu1h1"])
    def test_equal_codes_exactly_for_equal_views(self, p):
        codes = view_codes(rank_masks(p, 0, state_count(p)), p)
        seen = {}
        for b, S in enumerate(all_states(p)):
            for i in range(p.n):
                view = side_view(S, i, p)
                assert view_code(view, p) == codes[b, i]
                assert seen.setdefault(int(codes[b, i]), view) == view

    def test_views_no_state_has_get_no_code(self):
        p = params(n=4, cw=4, cr=4, h=1)
        view = side_view(SystemState.of(p, [{1}, {2}, set(), {1, 2}]), 1, p)
        assert view_code(view, p) is not None
        assert view_code(view, params(n=4, cw=4, cr=4, h=0)) is None
        assert view_code(view, params(n=4, cw=4, cr=4, nu=1, h=1)) is None
        assert view_code(SideView(center=2, window=view.window), p) is None
        assert view_code(SideView(center=4, window=view.window), p) is None

    @pytest.mark.parametrize("n", range(1, 7))
    def test_codes_and_rejections_equal_the_reference(self, n):
        # every view of every instance at this n, read by its own p, by p at
        # the next radius and with one version fewer, and moved to the next
        # center or one past the ring: each gets the reference's code or None
        for nu in (1, 2):
            for h in range((n - 1) // 2 + 2):
                p = params(n=n, cw=n, cr=n, nu=nu, h=h)
                readers = [p, params(n=n, cw=n, cr=n, nu=nu, h=h + 1),
                           params(n=n, cw=n, cr=n, nu=1, h=h)]
                for S in all_states(p):
                    for i in range(n):
                        view = side_view(S, i, p)
                        moved = [SideView((i + 1) % n, view.window), SideView(n, view.window)]
                        for q in readers:
                            assert view_code(view, q) == view_code_reference(view, q)
                        for other in moved:
                            assert view_code(other, p) == view_code_reference(other, p)
        p = params(n=4, cw=4, cr=4, h=1)
        view = side_view(SystemState.of(p, [{1}, {2}, set(), {1, 2}]), 1, p)
        for q in (p, params(n=4, cw=4, cr=4, h=0), params(n=4, cw=4, cr=4, nu=1, h=1)):
            for other in (view, SideView(2, view.window), SideView(4, view.window)):
                assert view_code(other, q) == view_code_reference(other, q)


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
        for S in all_states(p):
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
        assert sum(1 for j in ring_window(0, p.n, p.h) if 2 in S[j]) == 3
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
        states = [tuple(sorted(s) for s in S.subsets) for S in all_states(p)]
        assert states == [([], []), ([1], []), ([], [1]), ([1], [1])]

    def test_no_duplicates_and_exact_count(self):
        p = params(n=6, nu=2)
        seen = set(all_states(p))
        assert len(seen) == 4096


class TestRandomState:
    def test_deterministic(self):
        p = params()
        assert random_state(p, 99) == random_state(p, 99)

    def test_adjacent_seeds_differ(self):
        p = params()
        assert any(random_state(p, s) != random_state(p, s + 1) for s in range(5))

    def test_membership_frequency_is_uniform(self):
        """random_state(p, s) for s in 0..99,999, drawn in one call: server i
        of state s holds the top nu bits of word i of seed s."""
        p = params()
        samples = 100_000
        masks = (seeded_words(range(samples), 0, p.n) >> np.uint64(64 - p.nu)).astype(np.int64)
        for s in (0, 1, 4_999, samples - 1):
            assert random_state(p, s) == state_from_masks(masks[s].tolist())
        hits = (masks[:, :, None] >> np.arange(p.nu) & 1).mean(axis=0)  # [server, version - 1]
        assert np.abs(hits - 0.5).max() < 0.01, hits


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
