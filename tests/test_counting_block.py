"""The block counting kernel against its per-state reference.

`block_allocations` must give, row for row, what `allocation_for` gives,
and `short_states` must flag exactly the states `check_state_counting`
reports; reports built on them must not change by a byte. The callers of
`allocation.newest` match the loops they replaced.
"""

import hashlib
import itertools
import random

import numpy as np
import pytest

from mvcode import Params, Scheme, oracle
from mvcode.allocation import allocation_for, block_allocations, scheme_granularity
from mvcode.fixtures import make_thm3_params
from mvcode.model import (latest_complete, random_state, rank_masks, sample_masks, state_at,
                          state_count, state_from_masks)
from mvcode.verifier import (COUNTING, VerifyMode, _block_masks, check_state_counting,
                             decode_versions, short_states, verify)
from helpers import all_states, decode_versions_loop, rounded_table

P4 = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=64)
P4_NU1 = Params(n=4, cw=3, cr=3, nu=1, h=1, k_bits=64)
P4_CR4 = Params(n=4, cw=3, cr=4, nu=2, h=1, k_bits=64)  # c=3: the smallest c2 with nu=2
P4_C2_NU1 = Params(n=4, cw=3, cr=2, nu=1, h=1, k_bits=64)
P6 = make_thm3_params(6, 1024)
P6_CENTRAL = Params(n=6, cw=5, cr=5, nu=2, h=3, k_bits=1024)
P8 = Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024)
# SHA-256 of verify(c2, P8, sampled 12,000 seed 1, counting).to_json(),
# recorded with the per-state counting loop before the block kernel replaced it
C2_N8_SAMPLED_SHA256 = "d7a5d7473f4296469740a037da5067bc317c8787651e670c015bf369ed15af6e"
# SHA-256 of the JSON of random_state(P8, s) for s in 0..999 joined by
# newlines; random_state(P8, s) is sampled state 0 under seed s
P8_RANDOM_STATES_SHA256 = "66af01bdbe97c1bb145748b6b1823050b7984ea2b2e3b217437a232ec7b893af"
# SHA-256 of the JSON of sampled states 0..999 of P8 under seed 0 joined by
# newlines, recorded from the scalar reference in test_sampled_masks.py
P8_SAMPLED_STATES_SHA256 = "ec1b84e40cfae59ca60af7ce354b8a3016a0673c9ccc3594c6c3a62d40f640da"

EXHAUSTIVE = [(Scheme.C1, P4), (Scheme.C1, P4_NU1), (Scheme.C1, P4_CR4),
              (Scheme.C2, P4_CR4), (Scheme.C2, P4_C2_NU1),
              (Scheme.C1, P6), (Scheme.C2, P6), (Scheme.CENTRAL, P6_CENTRAL)]


def _rows(scheme, S, p):
    return [[allocation_for(scheme, S, i, p).get(u, 0) for u in p.versions]
            for i in range(p.n)]


def _short_by_reference(scheme, states, holdings, p):
    return [check_state_counting(scheme, S, p, [dict(enumerate(row, 1))
                                                for row in rows.tolist()]) is not None
            for S, rows in zip(states, holdings)]


def _cut(counts, seed):
    """Each server of each state stores a seeded number of symbols less of
    every version, from none to all of them."""
    drop = np.random.default_rng(seed).integers(0, counts.max() + 1, counts.shape[:2] + (1,))
    return np.maximum(counts - drop, 0)


def _agree(scheme, p, states, masks):
    counts, latest = block_allocations(scheme, masks, p)
    assert counts.shape == (len(states), p.n, p.nu)
    assert [counts[b].tolist() for b in range(len(states))] == [
        _rows(scheme, S, p) for S in states]
    assert latest.tolist() == [latest_complete(S, p) or 0 for S in states]
    denom = scheme_granularity(scheme, p)
    short = short_states(counts, latest, p, denom)
    assert short.tolist() == _short_by_reference(scheme, states, counts, p)
    cut = _cut(counts, seed=len(states))
    cut_short = short_states(cut, latest, p, denom)
    assert cut_short.tolist() == _short_by_reference(scheme, states, cut, p)
    return cut_short


class TestDifferential:
    @pytest.mark.parametrize("scheme,p", EXHAUSTIVE)
    def test_exhaustive(self, scheme, p):
        states = list(all_states(p))
        assert _agree(scheme, p, states, rank_masks(p, 0, state_count(p))).any()

    def test_seeded_c2_n8(self):
        seeds = range(5000, 8000)
        states = [random_state(P8, s) for s in seeds]
        masks = np.array([[sum(1 << u - 1 for u in s) for s in S.subsets] for S in states])
        assert _agree(Scheme.C2, P8, states, masks).any()

    def test_versions_older_than_the_latest_complete_do_not_count(self):
        # version 1 reaches the threshold at every read set, but the latest
        # complete version is 2, so only version 2's totals decide
        holdings = np.zeros((1, P4.n, P4.nu), dtype=np.int32)
        holdings[0, :, 0] = 9
        latest = np.array([2])
        assert short_states(holdings, latest, P4, 4).tolist() == [True]
        holdings[0, :, 1] = 2
        assert short_states(holdings, latest, P4, 4).tolist() == [False]


class TestMasks:
    def test_rank_masks_decode_like_state_at(self):
        masks = rank_masks(P6, 100, 300)
        assert [state_from_masks(row) for row in masks.tolist()] == [
            state_at(P6, idx) for idx in range(100, 300)]

    def test_sampled_masks_draw_the_recorded_states(self):
        text = "\n".join(random_state(P8, s).to_json() for s in range(1000))
        assert hashlib.sha256(text.encode()).hexdigest() == P8_RANDOM_STATES_SHA256
        assert random_state(P8, 17) == state_from_masks(sample_masks(P8, 17, 0, 1)[0].tolist())

    def test_block_sampler_draws_the_recorded_states(self):
        text = "\n".join(state_from_masks(row).to_json()
                         for row in sample_masks(P8, 0, 0, 1000).tolist())
        assert hashlib.sha256(text.encode()).hexdigest() == P8_SAMPLED_STATES_SHA256

    def test_verify_blocks_sample_the_counter_hash(self):
        mode = VerifyMode.sampled(40, seed=3)
        assert _block_masks(P8, mode, 10, 40).tolist() == sample_masks(P8, 3, 10, 40).tolist()


class TestReports:
    def test_sampled_c2_n8_report_is_unchanged(self):
        text = verify(Scheme.C2, P8, VerifyMode.sampled(12_000, 1), layers=(COUNTING,)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == C2_N8_SAMPLED_SHA256

    @pytest.mark.usefixtures("four_cpus")
    def test_jobs_do_not_change_the_sampled_report(self):
        mode = VerifyMode.sampled(12_000, 1)
        one = verify(Scheme.C2, P8, mode, layers=(COUNTING,), jobs=1).to_dict()
        two = verify(Scheme.C2, P8, mode, layers=(COUNTING,), jobs=2).to_dict()
        assert (one.pop("jobs"), two.pop("jobs")) == (1, 2)
        assert one == two

    @pytest.mark.usefixtures("four_cpus")
    def test_jobs_do_not_change_a_report_whose_ranges_start_inside_a_chunk(self):
        # 9,001 states over 2 or 3 jobs: ranges start at 4,501, 3,001 and
        # 6,002, so their 1,024-state blocks cut the run at other states
        mode = VerifyMode.sampled(9_001, 1)
        reports = [verify(Scheme.C2, P8, mode, layers=(COUNTING,), jobs=jobs).to_dict()
                   for jobs in (1, 2, 3)]
        assert [report.pop("jobs") for report in reports] == [1, 2, 3]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["states_checked"] == 9_001

    def test_sampled_c2_n8_run_makes_no_per_state_draw(self, monkeypatch):
        def refuse(seed):
            raise AssertionError(f"random.Random called with seed {seed}")
        monkeypatch.setattr(random, "Random", refuse)
        text = verify(Scheme.C2, P8, VerifyMode.sampled(12_000, 1), layers=(COUNTING,)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == C2_N8_SAMPLED_SHA256


class TestNewestCallers:
    """decode_versions and oracle._rounded take the newest flagged version
    from allocation.newest; the loop and the bit_length table they used
    before are their references."""

    @pytest.mark.parametrize("p", [P4, P4_CR4], ids=["cr3", "cr4"])
    def test_decode_versions_over_every_holding_at_n4(self, p):
        # every count in 0..2 per server and version, under every latest
        grid = np.array(list(itertools.product(range(3), repeat=p.n * p.nu)))
        holdings = np.repeat(grid.reshape(-1, p.n, p.nu), p.nu + 1, axis=0)
        latest = np.tile(np.arange(p.nu + 1), len(grid))
        for threshold in range(1, 2 * p.cr + 2):
            got = decode_versions(holdings, latest, p, threshold)
            assert got.dtype == np.int32
            assert np.array_equal(got, decode_versions_loop(holdings, latest, p, threshold))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decode_versions_seeded_at_n8(self, seed):
        rng = np.random.default_rng(seed)
        holdings = rng.integers(0, 3, (2000, P8.n, P8.nu))
        latest = rng.integers(0, P8.nu + 1, 2000)
        for threshold in (1, 4, 7, 10):
            assert np.array_equal(decode_versions(holdings, latest, P8, threshold),
                                  decode_versions_loop(holdings, latest, P8, threshold))
        counts, latest = block_allocations(Scheme.C2, sample_masks(P8, seed, 0, 2000), P8)
        denom = scheme_granularity(Scheme.C2, P8)
        assert np.array_equal(decode_versions(counts, latest, P8, denom),
                              decode_versions_loop(counts, latest, P8, denom))

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_rounded_over_every_state_at_n4(self, nu):
        for cw, cr in ((4, 4), (3, 3), (4, 1)):
            p = Params(n=4, cw=cw, cr=cr, nu=nu, h=1, k_bits=64)
            masks = rank_masks(p, 0, state_count(p))
            for g in range(1, 6):
                assert np.array_equal(oracle._rounded(p, g, masks), rounded_table(p, g, masks))
                assert np.array_equal(oracle._rounded(p, g, masks[:, 0]),
                                      rounded_table(p, g, masks[:, 0]))

    @pytest.mark.parametrize("nu", [3, 6])
    def test_rounded_seeded_at_n8(self, nu):
        p = Params(n=8, cw=7, cr=7, nu=nu, h=3, k_bits=1024)
        for seed in range(3):
            masks = sample_masks(p, seed, 0, 1000)
            for g in (1, 3, 8):
                assert np.array_equal(oracle._rounded(p, g, masks), rounded_table(p, g, masks))
