"""The block sampler against its per-state reference.

`random_mask_block(p, first, count)` must give, row for row, what
`random_masks(p, s)` gives for s in range(first, first + count): the same
CPython MT19937 seeding, run for a whole chunk of seeds at once, and the
per-state path itself where the kernel does not reach (n > 227, nu > 32,
|s| >= 2**64).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvcode import model
from mvcode.model import Params, random_mask_block, random_masks
from mvcode.verifier import _SEED_STRIDE, VerifyMode, _block_masks

SEEDS = [0, 1, -1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, -2**32,
         1234567890123456789012345678901234567890]
SHAPES = [(n, nu) for n in (1, 4, 8) for nu in (1, 3, 32, 33)]
P8 = Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024)


def _params(n, nu):
    return Params(n=n, cw=n, cr=n, nu=nu, h=1, k_bits=64)


def _reference(p, first, count):
    return [random_masks(p, s) for s in range(first, first + count)]


def _agree(p, first, count):
    masks = random_mask_block(p, first, count)
    assert masks.dtype == np.int64 and masks.shape == (count, p.n)
    assert masks.tolist() == _reference(p, first, count)


@pytest.fixture
def scalar_calls(monkeypatch):
    """The seeds random_masks is called with from here on."""
    seen = []

    def counted(p, seed):
        seen.append(seed)
        return random_masks(p, seed)
    monkeypatch.setattr(model, "random_masks", counted)
    return seen


@pytest.mark.parametrize("n,nu", SHAPES)
def test_named_seeds(n, nu):
    for seed in SEEDS:
        _agree(_params(n, nu), seed, 1)


@pytest.mark.parametrize("n,nu", SHAPES)
@pytest.mark.parametrize("first,count", [
    (2**32 - 6, 12),   # one-word keys, then two-word keys
    (-7, 15),          # crosses 0: |s| falls, then rises
    (-2**32 - 3, 7),   # crosses -2**32
    (2**64 - 4, 3),    # ends at the largest two-word key
])
def test_chunks_across_key_lengths(n, nu, first, count):
    _agree(_params(n, nu), first, count)


@pytest.mark.parametrize("first,count", [(2**32 - 6, 12), (-7, 15), (5 * _SEED_STRIDE, 300)])
def test_one_and_two_word_keys_are_vectorised(first, count, scalar_calls):
    _agree(P8, first, count)
    assert scalar_calls == []


@pytest.mark.parametrize("p,first,count", [
    (_params(228, 2), 0, 3),     # beyond the partial twist
    (_params(4, 33), 0, 3),      # getrandbits takes two words
    (P8, 2**64 - 2, 3),          # the last seed's key has three words
    (P8, -2**64 - 1, 3),       # the first seed alone is too large
])
def test_the_rest_goes_to_the_reference(p, first, count, scalar_calls):
    _agree(p, first, count)
    assert scalar_calls == list(range(first, first + count))


def test_largest_vectorised_ring():
    _agree(_params(227, 2), 3, 5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(-2**40, 2**40), start=st.integers(0, 3 * _SEED_STRIDE),
       count=st.integers(1, 40), shape=st.sampled_from(SHAPES))
def test_drawn_sampled_ranges(seed, start, count, shape):
    p = _params(*shape)
    masks = _block_masks(p, VerifyMode.sampled(start + count, seed), start, start + count)
    assert masks.tolist() == _reference(p, seed * _SEED_STRIDE + start, count)


def test_seed_sign_and_stride_facts():
    """Seeds k and -k draw the same state 0 (the seed is folded to |s|), and
    from index 1,000,003 on seed k draws the states of seed k + 1."""
    def masks(seed, lo, hi):
        return _block_masks(P8, VerifyMode.sampled(hi, seed), lo, hi).tolist()
    assert masks(7, 0, 1) == masks(-7, 0, 1)
    assert masks(7, 0, 3) != masks(-7, 0, 3)
    assert masks(7, _SEED_STRIDE, _SEED_STRIDE + 20) == masks(8, 0, 20)
