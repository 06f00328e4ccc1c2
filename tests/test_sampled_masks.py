"""The block sampler against a scalar reference.

`sample_masks(p, seed, lo, hi)` must give, row for row, what the
Python-int SplitMix64 below gives: server i of sampled state idx holds the
top nu bits of w(idx * n + i), where w(j) = mix64(mix64(seed mod 2**64) +
(j + 1) * GOLDEN), all mod 2**64.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvcode import Scheme
from mvcode.model import Params, sample_masks
from mvcode.verifier import _SEED_STRIDE, COUNTING, VerifyMode, _block_masks, verify

GOLDEN = 0x9E3779B97F4A7C15
WORD = 2**64 - 1
SEEDS = [0, 1, -1, 2**63, 2**64 - 1, 2**64,
         1234567890123456789012345678901234567890]
SHAPES = [(n, nu) for n in (1, 4, 8, 228) for nu in (1, 3, 32, 33, 63)]
P8 = Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024)


def mix64(z):
    """SplitMix64's finalizer on a Python int in [0, 2**64)."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & WORD
    z = (z ^ z >> 27) * 0x94D049BB133111EB & WORD
    return z ^ z >> 31


def _reference(p, seed, lo, hi):
    key = mix64(seed % 2**64)
    return [[mix64(key + (idx * p.n + i + 1) * GOLDEN & WORD) >> 64 - p.nu
             for i in range(p.n)] for idx in range(lo, hi)]


def _params(n, nu):
    return Params(n=n, cw=n, cr=n, nu=nu, h=1, k_bits=64)


def _agree(p, seed, lo, hi):
    masks = sample_masks(p, seed, lo, hi)
    assert masks.dtype == np.int64 and masks.shape == (hi - lo, p.n)
    assert masks.tolist() == _reference(p, seed, lo, hi)


@pytest.fixture
def no_random(monkeypatch):
    """random.Random raises from here on: no state is drawn one at a time."""
    def refuse(*args):
        raise AssertionError("random.Random was called")
    monkeypatch.setattr(random, "Random", refuse)


@pytest.mark.parametrize("n,nu", SHAPES)
def test_named_seeds(n, nu):
    p = _params(n, nu)
    for seed in SEEDS:
        _agree(p, seed, 0, 3)
    assert sample_masks(p, 2**64, 0, 3).tolist() == sample_masks(p, 0, 0, 3).tolist()


@pytest.mark.parametrize("n,nu", SHAPES)
@pytest.mark.parametrize("first,count", [
    (2**32 - 6, 12),   # seeds of one, then two 32-bit words
    (-7, 15),          # crosses 0: the fold sends -1 to 2**64 - 1
    (-2**32 - 3, 7),   # crosses -2**32
    (2**64 - 4, 3),    # ends at the largest seed below the fold
])
def test_chunks_across_key_lengths(n, nu, first, count):
    """Runs of consecutive seeds across the word-length boundaries of |seed|
    fold mod 2**64 as the reference does."""
    p = _params(n, nu)
    for seed in range(first, first + count):
        _agree(p, seed, 0, 1)


@pytest.mark.parametrize("first,count", [(2**32 - 6, 12), (-7, 15), (5 * _SEED_STRIDE, 300)])
def test_one_and_two_word_keys_are_vectorised(first, count, no_random):
    _agree(P8, first, count, 2 * count)


@pytest.mark.parametrize("p,seed,count", [
    (_params(228, 2), 0, 3),     # beyond MT19937's partial twist
    (_params(4, 33), 0, 3),      # more than one 32-bit word per draw
    (P8, 2**64 - 2, 3),          # a seed of three 32-bit words after the fold
    (P8, -2**64 - 1, 3),         # a seed beyond -2**64
])
def test_former_fallback_cases_run_in_the_kernel(p, seed, count, no_random):
    """The shapes and seeds that once took a per-state draw."""
    _agree(p, seed, 0, count)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(-2**70, 2**70), start=st.integers(0, 3 * _SEED_STRIDE),
       count=st.integers(1, 40), shape=st.sampled_from(SHAPES))
def test_drawn_sampled_ranges(seed, start, count, shape):
    p = _params(*shape)
    masks = _block_masks(p, VerifyMode.sampled(start + count, seed), start, start + count)
    assert masks.tolist() == _reference(p, seed, start, start + count)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(-2**70, 2**70), lo=st.integers(0, 2**20),
       data=st.data(), shape=st.sampled_from(SHAPES))
def test_any_cut_gives_the_same_rows(seed, lo, data, shape):
    p = _params(*shape)
    hi = lo + data.draw(st.integers(0, 30))
    cuts = sorted(data.draw(st.lists(st.integers(lo, hi), max_size=4)))
    bounds = [lo, *cuts, hi]
    parts = [sample_masks(p, seed, a, b) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tolist() == sample_masks(p, seed, lo, hi).tolist()


def test_seed_sign_and_stride_facts():
    """Seeds k and -k draw different first states, and seed k's state
    1,000,003 is not seed k + 1's state 0: the two facts of the former
    random.Random(k * 1_000_003 + idx) sampling no longer hold."""
    def masks(seed, lo, hi):
        return _block_masks(P8, VerifyMode.sampled(hi, seed), lo, hi).tolist()
    for k in (1, 7, 12345):
        assert masks(k, 0, 1) != masks(-k, 0, 1)
        assert masks(k, _SEED_STRIDE, _SEED_STRIDE + 20) != masks(k + 1, 0, 20)


def test_bits_are_balanced():
    """Over 65,536 states of P8 every bit of every server is set in 50% of
    the states, within 1%."""
    masks = sample_masks(P8, 0, 0, 2**16)
    bits = masks[:, :, None] >> np.arange(P8.nu) & 1
    assert np.abs(bits.mean(axis=0) - 0.5).max() < 0.01


def test_sampled_verify_draws_no_random_state(no_random):
    report = verify(Scheme.C2, P8, VerifyMode.sampled(2_000, 5), layers=(COUNTING,))
    assert report.passed and report.states_checked == 2_000
