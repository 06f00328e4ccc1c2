"""Every seeded draw against a scalar reference.

`seeded_words(seeds, lo, hi)` must give what the Python-int SplitMix64
below gives: w(j) = mix64(mix64(seed mod 2**64) + (j + 1) * GOLDEN), all
mod 2**64. On it, server i of sampled state idx holds the top nu bits of
w(idx * n + i); `random_state(p, s)` is sampled state 0 under s; version u's
payload is the big-endian bytes of words (u-1)W .. uW-1, W = ceil(K/64),
cut to K/8; and the roundtrip read set is the cr servers with the smallest
of words 0..n-1, in ascending order.
"""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvcode import Scheme
from mvcode.cli import EXIT_OK, main
from mvcode.model import Params, latest_complete, random_state, sample_masks, seeded_words
from mvcode.verifier import (_SEED_STRIDE, BITEXACT, COUNTING, VerifyMode, _block_masks,
                             _payload_bytes, random_payloads, verify)

GOLDEN = 0x9E3779B97F4A7C15
WORD = 2**64 - 1
SEEDS = [0, 1, -1, 2**63, 2**64 - 1, 2**64,
         1234567890123456789012345678901234567890]
SHAPES = [(n, nu) for n in (1, 4, 8, 228) for nu in (1, 3, 32, 33, 63)]
P8 = Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024)
P6 = Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=1024)
ROUNDTRIP_C1 = ["roundtrip", "--scheme", "c1", "--n", "6", "--cw", "5", "--cr", "5",
                "--nu", "2", "--h", "2", "--K", "1024"]
ROUNDTRIP_CR3 = ["roundtrip", "--scheme", "central", "--n", "6", "--cw", "6", "--cr", "3",
                 "--nu", "1", "--h", "3", "--K", "64"]


def mix64(z):
    """SplitMix64's finalizer on a Python int in [0, 2**64)."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & WORD
    z = (z ^ z >> 27) * 0x94D049BB133111EB & WORD
    return z ^ z >> 31


def _words(seed, lo, hi):
    """w(lo) .. w(hi - 1) of seed's stream."""
    key = mix64(seed % 2**64)
    return [mix64(key + (j + 1) * GOLDEN & WORD) for j in range(lo, hi)]


def _reference(p, seed, lo, hi):
    words = _words(seed, lo * p.n, hi * p.n)
    return [[w >> 64 - p.nu for w in words[row * p.n:(row + 1) * p.n]]
            for row in range(hi - lo)]


def _payloads_reference(p, seed):
    width = -(-p.k_bits // 64)
    words = _words(seed, 0, p.nu * width)
    return {u: b"".join(w.to_bytes(8, "big") for w in words[(u - 1) * width:u * width])
            [:p.k_bits // 8] for u in p.versions}


def _read_set_reference(n, cr, seed):
    words = _words(seed, 0, n)
    return sorted(sorted(range(n), key=words.__getitem__)[:cr])  # sorted() is stable


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


def test_words_match_the_reference():
    seeds = SEEDS + [-2**70, 5 * _SEED_STRIDE + 3]
    words = seeded_words(seeds, 3, 11)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 8)
    assert words.tolist() == [_words(seed, 3, 11) for seed in seeds]
    assert seeded_words([], 0, 4).shape == (0, 4)


@pytest.mark.parametrize("k_bits", [8, 64, 1000, 1024])
@pytest.mark.parametrize("nu", [1, 2, 3])
def test_payload_bytes(k_bits, nu):
    p = Params(n=4, cw=3, cr=3, nu=nu, h=1, k_bits=k_bits)
    for seed in [-1, 0, 2**64 + 5] + [k * _SEED_STRIDE + idx for k in (0, 1, 7)
                                      for idx in (0, 1, 999)]:
        assert random_payloads(p, seed) == _payloads_reference(p, seed)


@pytest.mark.parametrize("k_bits", [8, 1000])
def test_block_payloads_stack_the_per_seed_ones(k_bits):
    p = Params(n=4, cw=3, cr=3, nu=3, h=1, k_bits=k_bits)
    seeds = [7 * _SEED_STRIDE + idx for idx in range(40)] + [-1, 2**64 + 5]
    block = _payload_bytes(p, seeds)
    assert block.dtype == np.uint8 and block.shape == (len(seeds), p.nu, k_bits // 8)
    assert [{u: row.tobytes() for u, row in zip(p.versions, rows)} for rows in block] == [
        random_payloads(p, seed) for seed in seeds]


def test_random_state_is_sampled_state_zero():
    for p in (P8, _params(5, 63), _params(1, 1)):
        for seed in (-1, 0, 17, 2**64 + 5):
            assert [sorted(s) for s in random_state(p, seed).subsets] == [
                [u for u in p.versions if m >> (u - 1) & 1]
                for m in sample_masks(p, seed, 0, 1)[0].tolist()]


def _roundtrip(argv, capsys):
    """The read set a passing roundtrip prints."""
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK and "match=true" in out, out
    return [int(t) for t in re.search(r"read_set=\[([^]]*)\]", out)[1].split(",")]


@pytest.mark.parametrize("seed", [-1, 0, 1, 2, 3, 2**64 + 5, 12345])
@pytest.mark.parametrize("args,cr,state", [
    (ROUNDTRIP_C1, 5, "[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]"),
    (ROUNDTRIP_CR3, 3, "[[1], [1], [1], [1], [1], [1]]"),
], ids=["c1-cr5", "central-cr3"])
def test_read_set_draw(seed, args, cr, state, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(state)
    read_set = _roundtrip(args + ["--state", str(path), "--read-seed", str(seed)], capsys)
    assert read_set == _read_set_reference(6, cr, seed)


def test_exhaustive_c1_verify_draws_no_random_state(no_random):
    report = verify(Scheme.C1, P6, VerifyMode.exhaustive(seed=1), layers=(COUNTING, BITEXACT))
    assert report.passed and report.states_checked == 4096


def test_seeded_roundtrip_draws_no_random_state(no_random, capsys):
    seed = next(s for s in itertools.count() if latest_complete(random_state(P6, s), P6))
    read_set = _roundtrip(ROUNDTRIP_C1 + ["--state-seed", str(seed), "--payload-seed", "5",
                                          "--read-seed", "2"], capsys)
    assert read_set == _read_set_reference(6, 5, 2)
