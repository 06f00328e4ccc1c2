"""The one block rule: every block walk takes its size from
`model.block_size`, at most `model.BLOCK` rows and about `model.BLOCK_BYTES`
of the arrays its kernels build, a state costing `model.state_bytes`."""

import tracemalloc

import numpy as np
import pytest

import mvcode.oracle
from mvcode import Params, Scheme, model, verifier
from mvcode.allocation import block_allocations, scheme_granularity
from mvcode.codec import slots_per_server
from mvcode.model import block_size, state_bytes
from mvcode.verifier import VerifyMode, short_states, verify

# 3,432 read sets per state: with the bit-exact layer on a state costs
# about 1.06 MB, so a block holds 3 states; counting alone, 122
WIDE = Params(n=14, cw=8, cr=7, nu=2, h=7, k_bits=1024)


def within_the_rule(rows: int, p: Params, bitexact: bool) -> bool:
    """At most BLOCK rows, and at most BLOCK_BYTES of state costs unless the
    block is one state."""
    return 1 <= rows <= model.BLOCK and (
        rows == 1 or rows * state_bytes(p, bitexact) <= model.BLOCK_BYTES)


@pytest.mark.parametrize("p,bitexact,cost", [
    (Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=1024), True, 1_156),  # verify-c1-exh
    (Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024), False, 88),  # verify-c2-count
    (Params(n=5, cw=4, cr=4, nu=2, h=1, k_bits=1024), False, 50),  # oracle-n5
])
def test_the_benchmarked_runs_keep_full_blocks(p, bitexact, cost):
    assert state_bytes(p, bitexact) == cost
    assert block_size(cost) == model.BLOCK == 1024


def test_a_state_of_184756_read_sets_gets_a_block_of_its_own():
    p = Params(n=20, cw=11, cr=10, nu=2, h=10, k_bits=1024)
    assert block_size(state_bytes(p, True)) == 1
    assert block_size(state_bytes(p)) == 2


def test_a_block_holds_one_row_to_block_rows():
    assert block_size(model.BLOCK_BYTES * 10) == 1
    assert block_size(1) == model.BLOCK


def test_verify_blocks_stay_within_the_rule(monkeypatch):
    # both layers walk one block of states; lifting the byte bound gives
    # one block of all 30 states, and the same report byte for byte
    blocks = []

    def recorded(scheme, masks, p):
        blocks.append(len(masks))
        return block_allocations(scheme, masks, p)

    monkeypatch.setattr(verifier, "block_allocations", recorded)
    mode = VerifyMode.sampled(30, 1)
    tracemalloc.start()
    try:
        report = verify(Scheme.CENTRAL, WIDE, mode).to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == [3] * 10
    assert all(within_the_rule(rows, WIDE, True) for rows in blocks)
    # the per-state costs are what the kernels build: a block's peak stays
    # near the bound (30 states at once peak at about 22 MB)
    assert peak < 2 * model.BLOCK_BYTES
    blocks.clear()
    monkeypatch.setattr(model, "BLOCK_BYTES", 1 << 62)
    assert verify(Scheme.CENTRAL, WIDE, mode).to_json() == report
    assert blocks == [30]


def test_oracle_blocks_stay_within_the_rule(monkeypatch):
    # a strategy that stores nothing: the walk ends at the first block with
    # a complete version, rank 21,845 (servers 0-7 hold version 1)
    blocks = []

    def recorded(holdings, latest, p, g):
        blocks.append(len(holdings))
        return short_states(holdings, latest, p, g)

    def nothing(masks):
        return np.zeros((*masks.shape, WIDE.nu), dtype=np.int32)

    monkeypatch.setattr(mvcode.oracle, "short_states", recorded)
    assert not mvcode.oracle._no_short_state(WIDE, 1, nothing)
    assert blocks == [122] * (21_845 // 122 + 1)
    assert all(within_the_rule(rows, WIDE, False) for rows in blocks)


def test_decode_keys_stay_within_their_cost():
    # one state where every server holds both versions, so each of the
    # 12,870 read sets decodes through a distinct read: _decode_pairs peaks
    # below the 20 (n + 1) bytes per read set that state_bytes counts for it
    # (about 18.4 (n + 1) measured, 19.5 at n=12; 40 (n + 1) while the
    # gathered counts, their masked copy and the keys were alive at once)
    p = Params(n=16, cw=9, cr=8, nu=2, h=8, k_bits=1024)
    denom = scheme_granularity(Scheme.CENTRAL, p)
    counts, latest = block_allocations(Scheme.CENTRAL, np.full((1, p.n), 3), p)
    versions = verifier.decode_versions(counts, latest, p, denom)
    assert (versions == 2).all()
    slots = np.array([slots_per_server(Scheme.CENTRAL, u, p) for u in p.versions])
    verifier._decode_pairs(counts, versions, slots, p, denom)  # warm the caches
    tracemalloc.start()
    try:
        verifier._decode_pairs(counts, versions, slots, p, denom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * (p.n + 1) * versions.shape[1]
