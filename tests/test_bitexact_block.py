"""The batched bit-exact layer against its per-state reference.

`bitexact_block` must return, state for state, what `check_state_bitexact`
returns; reports built on it must not change by a byte, with or without
violations, and must not depend on the number of jobs.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from mvcode import (CodecError, DecodeContractError, Params, Scheme, SystemState,
                    allocation, model, verifier)
from mvcode.allocation import allocation_for, block_allocations, scheme_granularity
from mvcode.cli import EXIT_CONFIG, main
from mvcode.codec import encode_all, quorum_decode, slot_indices, slots_per_server
from mvcode.fixtures import make_thm3_params
from mvcode.model import latest_complete, random_state, rank_masks, state_count
from mvcode.verifier import (BITEXACT, COUNTING, VerifyMode, bitexact_block,
                             check_state_bitexact, decode_versions, random_payloads, read_sets,
                             verify)
from helpers import all_states, state_masks
from test_counting_block import C2_N8_SAMPLED_SHA256, P8

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
        return {u: s - 1 for u, s in alloc.items() if s > 1}

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
        return {**alloc, 1: p.c + 3}

    def overfilled_block(scheme, masks, p):
        counts, latest = block_allocations(scheme, masks, p)
        if scheme is Scheme.C1:
            counts[:, 0, 0] = np.where(masks[:, 0] & 1, p.c + 3, counts[:, 0, 0])
        return counts, latest

    monkeypatch.setattr(allocation, "alloc_c1", overfilled)
    monkeypatch.setattr(verifier, "block_allocations", overfilled_block)


def _store_unreceived_at_server_0(monkeypatch):
    """Give server 0 of c1 one symbol of version 2 whenever it lacks version 2."""
    original = allocation.alloc_c1

    def unreceived(view, p):
        alloc = original(view, p)
        if view.center != 0 or 2 in view.center_state:
            return alloc
        return {**alloc, 2: 1}

    def unreceived_block(scheme, masks, p):
        counts, latest = block_allocations(scheme, masks, p)
        if scheme is Scheme.C1:
            counts[:, 0, 1] = np.where(masks[:, 0] & 2, counts[:, 0, 1], 1)
        return counts, latest

    monkeypatch.setattr(allocation, "alloc_c1", unreceived)
    monkeypatch.setattr(verifier, "block_allocations", unreceived_block)


@pytest.mark.parametrize("inject", [_drop_one_symbol_at_server_0, _overfill_server_0,
                                    _store_unreceived_at_server_0])
def test_the_fault_reaches_both_rules(monkeypatch, inject):
    inject(monkeypatch)
    counts, _ = verifier.block_allocations(Scheme.C1, rank_masks(P6, 0, state_count(P6)), P6)
    for b, S in enumerate(all_states(P6)):
        rows = [[allocation_for(Scheme.C1, S, i, P6).get(u, 0) for u in P6.versions]
                for i in range(P6.n)]
        assert counts[b].tolist() == rows


def _counts(scheme, p, states):
    """The per-state allocations of `states` as a block_allocations array."""
    return np.array([[[allocation_for(scheme, S, i, p).get(u, 0) for u in p.versions]
                      for i in range(p.n)] for S in states], dtype=np.int32)


def _decoded_version(scheme, S, T, stores, p):
    """The version quorum_decode returns through T, 0 when it finds none."""
    try:
        return quorum_decode(scheme, S, T, stores, p)[0]
    except DecodeContractError:
        return 0


def run_block(scheme, p, states, counts, seeds, latest):
    """bitexact_block on states as _verify_range calls it: with their latest
    complete versions as an array, the block's decode table and their masks."""
    latest = np.asarray(latest)
    versions = decode_versions(counts, latest, p, scheme_granularity(scheme, p))
    return bitexact_block(scheme, p, states, counts, seeds, latest, versions,
                          state_masks(p, states))


def _kernel_and_reference(scheme, p, states, seeds):
    """bitexact_block and check_state_bitexact on the same states; on the
    way, decode_versions must pick, for every read set of every state with
    a complete version, the version quorum_decode returns."""
    counts = _counts(scheme, p, states)
    latest = [latest_complete(S, p) or 0 for S in states]
    complete = [b for b, top in enumerate(latest) if top]
    messages = random_payloads(p, 0)
    versions = decode_versions(counts, np.array(latest), p, scheme_granularity(scheme, p))
    expected = []
    for b in complete:
        stores = encode_all(scheme, states[b], messages, p)
        expected.append([_decoded_version(scheme, states[b], T, stores, p) for T in read_sets(p)])
    assert versions[complete].tolist() == expected
    kernel = run_block(scheme, p, states, counts, seeds, latest)
    reference = [check_state_bitexact(scheme, S, p, seed) for S, seed in zip(states, seeds)]
    return kernel, reference


class TestDifferential:
    @pytest.mark.parametrize("scheme,p", [(Scheme.C1, P4), (Scheme.C1, P4_CR4),
                                          (Scheme.C2, P4_CR4)])
    def test_exhaustive_n4(self, scheme, p):
        states = list(all_states(p))
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
        states = list(all_states(P4))
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
        assert run_block(Scheme.C1, P6, states, counts, [1, 2, 3], [2] * 3) == [None] * 3
        assert asked == [full]

    @pytest.mark.parametrize("budget", [model.BLOCK_BYTES, 1])
    def test_one_wrong_symbol_in_a_mixed_block_sends_only_its_state(self, monkeypatch,
                                                                    budget):
        # a block of seeded states that decode through many distinct reads;
        # one version-2 symbol of the fully replicated state is flipped. A
        # budget of one byte decodes one pair per product.
        monkeypatch.setattr(model, "BLOCK_BYTES", budget)
        full = SystemState.of(P6, [{1, 2}] * P6.n)
        states = [random_state(P6, 1400 + j) for j in range(40)]
        states.insert(20, full)
        counts = _counts(Scheme.C1, P6, states)
        latest = [latest_complete(S, P6) or 0 for S in states]
        # with the honest scheme every state with a complete version is
        # encoded, so the full state's column counts those before it
        column = sum(top > 0 for top in latest[:20])
        assert 0 < column < 20
        denom = scheme_granularity(Scheme.C1, P6)
        slots = np.array([slots_per_server(Scheme.C1, u, P6) for u in P6.versions])
        versions = decode_versions(counts, np.array(latest), P6, denom)
        reads, _, _ = verifier._decode_pairs(counts, versions, slots, P6, denom)
        assert len({tuple(read[1:]) for read in reads.tolist() if read[0] == 2}) > 1
        encode_slots = verifier.encode_slots

        def corrupt(scheme, p, version, elements):
            coded = encode_slots(scheme, p, version, elements)
            if version == 2:
                coded[0, column, 0] ^= 1  # server 0's first symbol
            return coded

        asked = []

        def reference(scheme, S, p, seed):
            asked.append(S)
            return None

        monkeypatch.setattr(verifier, "encode_slots", corrupt)
        monkeypatch.setattr(verifier, "check_state_bitexact", reference)
        seeds = list(range(len(states)))
        assert run_block(Scheme.C1, P6, states, counts, seeds, latest) == [None] * len(states)
        assert asked == [full]

    @pytest.mark.parametrize("budget", [1, 40_000])
    def test_a_stack_cut_into_slices_gives_the_same_result(self, monkeypatch, budget):
        # one pair per product, or a few, with a short last slice
        monkeypatch.setattr(model, "BLOCK_BYTES", budget)
        states = [random_state(P6, 7000 + j) for j in range(60)]
        kernel, reference = _kernel_and_reference(Scheme.C1, P6, states, range(60))
        assert kernel == reference
        _drop_one_symbol_at_server_0(monkeypatch)
        kernel, reference = _kernel_and_reference(Scheme.C1, P6, states, range(60))
        assert kernel == reference and any(reference)

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
        assert run_block(Scheme.C1, P6, [odd, full], counts, [1, 2], [2, 2]) == [None] * 2
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
        # cannot clear goes through the per-server rules of the reference
        def refuse(*args):
            raise AssertionError("a per-server allocation was built")

        for rule in ("alloc_c1", "alloc_c2", "alloc_centralized"):
            monkeypatch.setattr(allocation, rule, refuse)
        text = verify(Scheme.C1, P6, VerifyMode.exhaustive(seed=1)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == C1_N6_SEED1_SHA256

    def test_one_decode_table_per_block(self, monkeypatch):
        # the counting layer's short states and the bit-exact layer read one
        # decode_versions table: four blocks of 1,024 states, four tables
        calls = []

        def counted(holdings, *args):
            calls.append(len(holdings))
            return decode_versions(holdings, *args)

        monkeypatch.setattr(verifier, "decode_versions", counted)
        text = verify(Scheme.C1, P6, VerifyMode.exhaustive(seed=1)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == C1_N6_SEED1_SHA256
        assert calls == [1024] * 4

    @pytest.mark.usefixtures("four_cpus")
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
            run_block(Scheme.C1, P6, [S], counts, [0], [0])

    def test_an_unreceived_version_is_a_config_error_in_the_cli(self, monkeypatch, capsys):
        _store_unreceived_at_server_0(monkeypatch)
        code = main(["verify", "--scheme", "c1", "--n", "6", "--cw", "5", "--cr", "5",
                     "--nu", "2", "--h", "2", "--K", "1024", "--mode", "exhaustive"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert captured.err == ("error: allocation gives server 0 symbols of version 2, "
                                "which it never received\n")

    def test_unaligned_k_raises_through_verify(self):
        p = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=65)
        with pytest.raises(CodecError, match=r"^the bit-exact layer needs byte-aligned K, got 65$"):
            verify(Scheme.C1, p, VerifyMode.exhaustive(), layers=(BITEXACT,))


def _live_pairs(scheme, p, states):
    """The block's counts and latest versions, its states with a complete
    version (all of them decode under an honest scheme, so they are the
    columns the kernel encodes), and _decode_pairs over those states."""
    counts = _counts(scheme, p, states)
    latest = np.array([latest_complete(S, p) or 0 for S in states])
    denom = scheme_granularity(scheme, p)
    slots = np.array([slots_per_server(scheme, u, p) for u in p.versions])
    versions = decode_versions(counts, latest, p, denom)
    live = np.flatnonzero(latest > 0)
    assert (versions[live] > 0).all()
    reads, owner, which = verifier._decode_pairs(counts[live], versions[live], slots, p, denom)
    return counts, latest, live, reads, owner, which


@pytest.mark.parametrize("scheme,p", [(Scheme.C1, P4), (Scheme.C2, P4_CR4), (Scheme.C1, P6),
                                      (Scheme.CENTRAL, P6_CENTRAL)])
def test_each_pair_reads_only_its_read_set(scheme, p):
    # every (live state, read set) pair reads the `denom` smallest slot
    # indices its read set's servers hold of the version it decodes, and no
    # symbol of a server outside the read set
    states = all_states(p) if p.n == 4 else [random_state(p, 7000 + j) for j in range(100)]
    counts, latest, live, reads, owner, which = _live_pairs(scheme, p, states)
    denom = scheme_granularity(scheme, p)
    slots = [slots_per_server(scheme, u, p) for u in p.versions]
    versions = decode_versions(counts, latest, p, denom)
    expected = set()
    for column, b in enumerate(live.tolist()):
        for r, T in enumerate(read_sets(p)):
            m = int(versions[b, r])
            held = sorted(j for t in T for j in slot_indices(t, int(counts[b, t, m - 1]),
                                                             slots[m - 1]))
            expected.add((column, m, *held[:denom]))
    assert {(b, *reads[r].tolist()) for b, r in zip(owner.tolist(), which.tolist())} == expected


def _isolated_symbols(reads, owner, which, denom):
    """{(column, version, index): product rows} for every symbol that all
    the reads of its column using it decode with the same number of product
    rows (the anchors they do not hold verbatim)."""
    rows = {}
    for b, r in zip(owner.tolist(), which.tolist()):
        m, *indices = reads[r].tolist()
        product_rows = denom - sum(j < denom for j in indices)
        for j in indices:
            rows.setdefault((b, m, j), set()).add(product_rows)
    return {key: next(iter(n)) for key, n in rows.items() if len(n) == 1}


def _asked_after_a_flip(monkeypatch, scheme, p, states, counts, latest, column, version, index):
    """The states bitexact_block sends to the reference when coded symbol
    `index` of `version` is flipped in the message of live column `column`."""
    encode_slots = verifier.encode_slots

    def corrupt(scheme, p, m, elements):
        coded = encode_slots(scheme, p, m, elements)
        if m == version:
            coded[index, column, 0] ^= 1
        return coded

    asked = []

    def reference(scheme, S, p, seed):
        asked.append(S)
        return None

    monkeypatch.setattr(verifier, "encode_slots", corrupt)
    monkeypatch.setattr(verifier, "check_state_bitexact", reference)
    seeds = list(range(len(states)))
    assert run_block(scheme, p, states, counts, seeds, latest) == [None] * len(states)
    monkeypatch.undo()
    return asked


class TestUnitRowsAndProductRows:
    """A decoded symbol the read holds verbatim is checked as a copy, the
    others through the product: each check must see a wrong symbol that
    only it can see."""

    def test_a_wrong_systematic_symbol_read_only_verbatim(self, monkeypatch):
        # every read of the state using this anchor holds all its anchors
        # verbatim, so no product row sees the flip; the copy check must
        states = all_states(P4)
        counts, latest, live, reads, owner, which = _live_pairs(Scheme.C1, P4, states)
        denom = scheme_granularity(Scheme.C1, P4)
        verbatim = [key for key, rows in _isolated_symbols(reads, owner, which, denom).items()
                    if key[2] < denom and rows == 0]
        assert len(verbatim) > 10
        for column, version, index in verbatim[::10]:
            asked = _asked_after_a_flip(monkeypatch, Scheme.C1, P4, states, counts, latest,
                                        column, version, index)
            assert asked == [states[live[column]]]

    @pytest.mark.parametrize("p", [P4, P6], ids=["n4", "n6"])
    def test_a_wrong_parity_symbol_in_every_group_of_product_rows(self, monkeypatch, p):
        # one flip per (version, product rows) group, in a symbol that only
        # reads of that group use; a group left out of the product misses it
        states = all_states(p)
        counts, latest, live, reads, owner, which = _live_pairs(Scheme.C1, p, states)
        denom = scheme_granularity(Scheme.C1, p)
        groups = {}
        for (column, version, index), rows in _isolated_symbols(reads, owner, which,
                                                                denom).items():
            if index >= denom:
                groups.setdefault((version, rows), (column, version, index))
        assert len(groups) >= 4 and all(rows >= 2 for _, rows in groups)
        for column, version, index in groups.values():
            asked = _asked_after_a_flip(monkeypatch, Scheme.C1, p, states, counts, latest,
                                        column, version, index)
            assert asked == [states[live[column]]]


@pytest.mark.parametrize("inject", [None, _drop_one_symbol_at_server_0], ids=["honest", "faulty"])
def test_block_size_does_not_change_the_report(monkeypatch, inject):
    # what a state is checked against does not depend on its block: at
    # every state cap, and at every byte bound under the largest cap, the
    # pinned reports come out byte for byte. A bound of one byte makes every
    # block and every product slice one row; with the bound lifted, a
    # bit-exact block of P6 reaches 4,096 states, the whole run
    if inject is not None:
        inject(monkeypatch)
    sizes = [(size, model.BLOCK_BYTES) for size in (1, 7, 1024, 4096)]
    for size, budget in sizes + [(4096, budget) for budget in (1, 1 << 16, 1 << 40)]:
        monkeypatch.setattr(model, "BLOCK", size)
        monkeypatch.setattr(model, "BLOCK_BYTES", budget)
        c1 = verify(Scheme.C1, P6, VerifyMode.exhaustive(seed=1)).to_json()
        if inject is not None:
            assert c1 == (DATA / "verify_c1_n6_injected.json").read_text(), (size, budget)
            continue
        c2 = verify(Scheme.C2, P8, VerifyMode.sampled(12_000, 1), layers=(COUNTING,)).to_json()
        assert hashlib.sha256(c1.encode()).hexdigest() == C1_N6_SEED1_SHA256, (size, budget)
        assert hashlib.sha256(c2.encode()).hexdigest() == C2_N8_SAMPLED_SHA256, (size, budget)
