"""The batched bit-exact layer against its per-state reference.

`bitexact_block` must return, state for state, what `check_state_bitexact`
returns; reports built on it must not change by a byte, with or without
violations, and must not depend on the number of jobs.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mvcode import (CodecError, DecodeContractError, Params, Scheme, SystemState,
                    allocation, verifier)
from mvcode.allocation import (Allocation, allocation_for, block_allocations,
                               scheme_granularity)
from mvcode.codec import encode_all, quorum_decode
from mvcode.fixtures import make_thm3_params
from mvcode.model import (enumerate_states, latest_complete, random_state, rank_masks,
                          state_count)
from mvcode.verifier import (BITEXACT, VerifyMode, bitexact_block, check_state_bitexact,
                             decode_versions, random_payloads, read_sets, verify)

DATA = Path(__file__).parent / "data"
P4 = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=64)
P4_CR4 = Params(n=4, cw=3, cr=4, nu=2, h=1, k_bits=64)  # c=3: the smallest c2 with nu=2
P6 = make_thm3_params(6, 1024)
P6_CENTRAL = Params(n=6, cw=5, cr=5, nu=2, h=3, k_bits=1024)
# SHA-256 of verify(c1, P6, exhaustive seed 1).to_json(), recorded with the
# per-state bit-exact loop before the block kernel replaced it
C1_N6_SEED1_SHA256 = "27d2cd7e1971e7836c2b5264d04dae67f946b27993e6786eb8850479ddd252fe"


# A fault is injected into both forms of the c1 rule: verify takes its
# allocations from the block rule, and the per-state reference paths (the
# counting violation, encode_all) from alloc_c1. test_the_fault_reaches_both_rules
# keeps the two in step.

def _drop_one_symbol_at_server_0(monkeypatch):
    """Cripple c1: server 0 stores one symbol less of every version it holds."""
    original = allocation.alloc_c1

    def crippled(view, p):
        alloc = original(view, p)
        if view.center != 0:
            return alloc
        return Allocation.of({u: s - 1 for u, s in alloc.symbols}, alloc.granularity)

    def crippled_block(scheme, masks, p):
        counts, latest = block_allocations(scheme, masks, p)
        if scheme is Scheme.C1:
            counts[:, 0] -= counts[:, 0] > 0
        return counts, latest

    monkeypatch.setattr(allocation, "alloc_c1", crippled)
    monkeypatch.setattr(verifier, "block_allocations", crippled_block)


def _overfill_server_0(monkeypatch):
    """Give server 0 of c1 more symbols of version 1 than it has slots."""
    original = allocation.alloc_c1

    def overfilled(view, p):
        alloc = original(view, p)
        if view.center != 0 or 1 not in view.center_state:
            return alloc
        return Allocation.of({**dict(alloc.symbols), 1: p.c + 3}, alloc.granularity)

    def overfilled_block(scheme, masks, p):
        counts, latest = block_allocations(scheme, masks, p)
        if scheme is Scheme.C1:
            counts[:, 0, 0] = np.where(masks[:, 0] & 1, p.c + 3, counts[:, 0, 0])
        return counts, latest

    monkeypatch.setattr(allocation, "alloc_c1", overfilled)
    monkeypatch.setattr(verifier, "block_allocations", overfilled_block)


@pytest.mark.parametrize("inject", [_drop_one_symbol_at_server_0, _overfill_server_0])
def test_the_fault_reaches_both_rules(monkeypatch, inject):
    inject(monkeypatch)
    counts, _ = verifier.block_allocations(Scheme.C1, rank_masks(P6, 0, state_count(P6)), P6)
    for b, S in enumerate(enumerate_states(P6)):
        rows = [[allocation_for(Scheme.C1, S, i, P6).count(u) for u in P6.versions]
                for i in range(P6.n)]
        assert counts[b].tolist() == rows


def _counts(scheme, p, states):
    """The per-state allocations of `states` as a block_allocations array."""
    return np.array([[[allocation_for(scheme, S, i, p).count(u) for u in p.versions]
                      for i in range(p.n)] for S in states], dtype=np.int32)


def _decoded_version(scheme, S, T, stores, p):
    """The version quorum_decode returns through T, 0 when it finds none."""
    try:
        return quorum_decode(scheme, S, T, stores, p)[0]
    except DecodeContractError:
        return 0


def _kernel_and_reference(scheme, p, states, seeds):
    """bitexact_block and check_state_bitexact on the same states; on the
    way, decode_versions must pick, for every read set of every state with
    a complete version, the version quorum_decode returns."""
    counts = _counts(scheme, p, states)
    latest = [latest_complete(S, p) or 0 for S in states]
    complete = [b for b, top in enumerate(latest) if top]
    messages = random_payloads(p, 0)
    versions = decode_versions(counts, np.array(latest), p, scheme_granularity(scheme, p).denom)
    expected = []
    for b in complete:
        stores = encode_all(scheme, states[b], messages, p)
        expected.append([_decoded_version(scheme, states[b], T, stores, p) for T in read_sets(p)])
    assert versions[complete].tolist() == expected
    kernel = bitexact_block(scheme, p, states, counts, seeds, latest)
    reference = [check_state_bitexact(scheme, S, p, seed) for S, seed in zip(states, seeds)]
    return kernel, reference


class TestDifferential:
    @pytest.mark.parametrize("scheme,p", [(Scheme.C1, P4), (Scheme.C1, P4_CR4),
                                          (Scheme.C2, P4_CR4)])
    def test_exhaustive_n4(self, scheme, p):
        states = list(enumerate_states(p))
        kernel, reference = _kernel_and_reference(scheme, p, states, range(len(states)))
        assert kernel == reference

    @pytest.mark.parametrize("scheme,p", [(Scheme.C1, P6), (Scheme.C2, P6),
                                          (Scheme.CENTRAL, P6_CENTRAL)])
    def test_seeded_n6(self, scheme, p):
        states = [random_state(p, 7000 + j) for j in range(300)]
        kernel, reference = _kernel_and_reference(scheme, p, states, range(300))
        assert kernel == reference

    def test_exhaustive_n4_with_a_crippled_server(self, monkeypatch):
        _drop_one_symbol_at_server_0(monkeypatch)
        states = list(enumerate_states(P4))
        kernel, reference = _kernel_and_reference(Scheme.C1, P4, states, range(len(states)))
        assert kernel == reference
        assert sum(v is not None for v in reference) > 0

    def test_a_wrong_byte_sends_the_state_to_the_reference(self, monkeypatch):
        # flip one coded element of block position 1; the kernel must notice
        # the bad decode and ask the reference, which sees correct bytes
        encode_slots = verifier.encode_slots

        def corrupt(scheme, p, version, elements):
            coded = encode_slots(scheme, p, version, elements)
            coded[:, 1, 0] ^= 1
            return coded

        asked = []

        def reference(scheme, S, p, seed):
            asked.append(S)
            return None

        monkeypatch.setattr(verifier, "encode_slots", corrupt)
        monkeypatch.setattr(verifier, "check_state_bitexact", reference)
        full = SystemState.of(P6, [{1, 2}] * P6.n)
        states = [full, full, full]
        counts = _counts(Scheme.C1, P6, states)
        assert bitexact_block(Scheme.C1, P6, states, counts, [1, 2, 3], [2] * 3) == [None] * 3
        assert asked == [full]

    @pytest.mark.parametrize("version,count", [(2, 1), (1, 7)])
    def test_a_state_server_encode_refuses_goes_to_the_reference(self, monkeypatch,
                                                                 version, count):
        # server 0 stores a version it never received, or more symbols than
        # its slots: the reference alone knows what server_encode says
        asked = []

        def reference(scheme, S, p, seed):
            asked.append(S)
            return None

        monkeypatch.setattr(verifier, "check_state_bitexact", reference)
        odd = SystemState.of(P6, [{1}] + [{1, 2}] * 5)
        full = SystemState.of(P6, [{1, 2}] * P6.n)
        counts = _counts(Scheme.C1, P6, [odd, full])
        counts[0, 0, version - 1] = count
        assert bitexact_block(Scheme.C1, P6, [odd, full], counts, [1, 2], [2, 2]) == [None] * 2
        assert asked == [odd]


class TestReports:
    def test_c1_n6_report_is_unchanged(self):
        text = verify(Scheme.C1, P6, VerifyMode.exhaustive(seed=1)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == C1_N6_SEED1_SHA256

    def test_fault_injected_report_is_unchanged(self, monkeypatch):
        # recorded with the per-state bit-exact loop, before the block kernel
        _drop_one_symbol_at_server_0(monkeypatch)
        report = verify(Scheme.C1, P6, VerifyMode.exhaustive(seed=1), max_violations=100)
        assert report.to_json() == (DATA / "verify_c1_n6_injected.json").read_text()

    def test_verify_passes_without_building_an_allocation(self, monkeypatch):
        # both layers run on the count arrays; only a state a block check
        # cannot clear goes through the Allocation-based reference
        def refuse(cls, counts, granularity):
            raise AssertionError("an Allocation was built")

        monkeypatch.setattr(Allocation, "of", classmethod(refuse))
        text = verify(Scheme.C1, P6, VerifyMode.exhaustive(seed=1)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == C1_N6_SEED1_SHA256

    def test_jobs_do_not_change_the_report(self):
        one = verify(Scheme.C1, P6, VerifyMode.exhaustive(seed=4), jobs=1).to_dict()
        two = verify(Scheme.C1, P6, VerifyMode.exhaustive(seed=4), jobs=2).to_dict()
        assert (one.pop("jobs"), two.pop("jobs")) == (1, 2)
        assert one == two


class TestBoundaryChecks:
    def test_count_over_slots_raises_through_verify(self, monkeypatch):
        # the first state hit (rank 1) has no complete version
        _overfill_server_0(monkeypatch)
        with pytest.raises(CodecError, match=r"^allocation of 7 symbols exceeds 6 slots$"):
            verify(Scheme.C1, P6, VerifyMode.exhaustive(seed=1))

    def test_count_over_slots_raises_without_a_complete_version(self, monkeypatch):
        _overfill_server_0(monkeypatch)
        S = SystemState.of(P6, [{1}] + [set()] * 5)
        counts = _counts(Scheme.C1, P6, [S])
        with pytest.raises(CodecError, match=r"^allocation of 7 symbols exceeds 6 slots$"):
            bitexact_block(Scheme.C1, P6, [S], counts, [0], [0])

    def test_unaligned_k_raises_through_verify(self):
        p = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=65)
        with pytest.raises(CodecError, match=r"^the bit-exact layer needs byte-aligned K, got 65$"):
            verify(Scheme.C1, p, VerifyMode.exhaustive(), layers=(BITEXACT,))
