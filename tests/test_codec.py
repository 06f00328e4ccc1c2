"""Field arithmetic, MDS property, server stores and quorum decoding."""

import itertools
import random

import numpy as np
import pytest

from mvcode import (CodecError, DecodeContractError, InconsistentSymbolsError,
                    InsufficientSymbolsError, Params, Scheme, SystemState,
                    allocation_for, encode_all, latest_complete, mds_decode,
                    mds_encode, quorum_decode, server_encode)
from mvcode import codec
from mvcode.allocation import scheme_granularity
from mvcode.codec import (encode_slots, message_elements, padded_len_bytes, slot_indices,
                          slots_per_server, stores_from_json, stores_to_json)
from mvcode import gf65536 as gf
from mvcode.fixtures import fixture_thm3, make_thm3_params
from mvcode.verifier import random_payloads
from helpers import mul_s

P6 = make_thm3_params(6, 1024)
P8 = Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024)
P6_FULL = Params(n=6, cw=5, cr=5, nu=2, h=3, k_bits=1024)  # full information, for central


class TestField:
    def test_log_table_is_complete(self):
        # the generator must cycle through every nonzero element
        assert sorted(int(x) for x in gf._EXP[:gf.ORDER - 1]) == list(range(1, gf.ORDER))

    def test_inverses(self):
        rng = random.Random(1)
        for _ in range(200):
            a = rng.randrange(1, gf.ORDER)
            assert mul_s(a, gf.inv_s(a)) == 1

    def test_distributes(self):
        rng = random.Random(2)
        for _ in range(200):
            a, b, c = (rng.randrange(gf.ORDER) for _ in range(3))
            assert mul_s(a, b ^ c) == mul_s(a, b) ^ mul_s(a, c)

    def test_generator_rows_are_systematic(self):
        for k in (1, 2, 4, 16):
            for j in range(k):
                row = gf.generator_row(k, j)
                assert row == tuple(1 if t == j else 0 for t in range(k))

    def test_matrix_inverse(self):
        m = gf.generator_matrix(4, (2, 5, 9, 100))
        inv = gf.mat_inv(m)
        ident = gf.matmul(inv, m)
        assert (ident == [[1 if i == j else 0 for j in range(4)] for i in range(4)]).all()

    def test_mul_matches_scalar_with_edge_elements(self):
        rng = random.Random(3)
        sample = [rng.randrange(gf.ORDER) for _ in range(10_000)]
        for a in (0, 1, 2, gf.ORDER - 1):
            assert gf.mul(a, sample).tolist() == [mul_s(a, b) for b in sample]
            assert gf.mul(sample, a).tolist() == [mul_s(b, a) for b in sample]

    def test_mul_matches_scalar_on_random_pairs(self):
        rng = random.Random(4)
        a = [rng.randrange(gf.ORDER) for _ in range(10_000)]
        b = [rng.randrange(gf.ORDER) for _ in range(10_000)]
        assert gf.mul(a, b).tolist() == [mul_s(x, y) for x, y in zip(a, b)]

    def test_inverse_of_random_matrices(self):
        rng = np.random.default_rng(5)
        ident = np.eye(16, dtype=np.uint16)
        inverted = 0
        while inverted < 50:
            A = rng.integers(0, gf.ORDER, size=(16, 16))
            try:
                inv = gf.mat_inv(A)
            except ValueError:
                continue  # singular; a random matrix is so with probability ~1/ORDER
            assert (gf.matmul(inv, A) == ident).all()
            assert (gf.matmul(A, inv) == ident).all()
            inverted += 1

    def test_singular_matrix_raises(self):
        A = np.array([[1, 2, 3], [2, 4, 6], [7, 0, 9]])
        A[1] = gf.mul(A[0], 5)  # row 1 is a multiple of row 0 over the field
        with pytest.raises(ValueError, match="singular"):
            gf.mat_inv(A)


class TestMds:
    def test_dimension_one_is_repetition(self):
        msg = bytes(range(2))
        outs = mds_encode(msg, 1, [0, 7, 300])
        for j, payload in zip([0, 7, 300], outs):
            assert mds_decode([(j, payload)], 1) == msg

    def test_systematic_prefix_verbatim(self):
        msg = bytes(range(8))
        outs = mds_encode(msg, 2, [0, 1])
        assert outs == [msg[:4], msg[4:]]

    def test_every_k_subset_reconstructs(self):
        rng = random.Random(42)
        msg = rng.getrandbits(1024).to_bytes(128, "big")
        payloads = mds_encode(msg, 4, list(range(8)))
        for sub in itertools.combinations(range(8), 4):
            assert mds_decode([(j, payloads[j]) for j in sub], 4) == msg

    def test_below_dimension_fails(self):
        msg = bytes(16)
        payloads = mds_encode(msg, 4, list(range(8)))
        with pytest.raises(InsufficientSymbolsError):
            mds_decode(list(enumerate(payloads[:3])), 4)

    def test_conflicting_duplicate_fails(self):
        msg = bytes(range(16))
        payloads = mds_encode(msg, 4, list(range(4)))
        corrupt = bytes([payloads[0][0] ^ 1]) + payloads[0][1:]
        with pytest.raises(InconsistentSymbolsError):
            mds_decode(list(enumerate(payloads)) + [(0, corrupt)], 4)

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(300):
            msg = rng.getrandbits(5 * 16).to_bytes(10, "big")
            indices = rng.sample(range(200), 9)
            payloads = mds_encode(msg, 5, indices)
            take = rng.sample(range(9), 5)
            assert mds_decode([(indices[t], payloads[t]) for t in take], 5) == msg

    @pytest.mark.parametrize("k,reason", [(0, "code dimension must be >= 1, got 0"),
                                          (gf.ORDER + 1, "dimension exceeds the field universe")])
    def test_dimension_checked_at_entry(self, k, reason):
        # before the empty message or symbol list is looked at
        with pytest.raises(ValueError, match=f"^{reason}$"):
            mds_encode(b"", k, [])
        with pytest.raises(ValueError, match=f"^{reason}$"):
            mds_decode([], k)

    def test_rejects_duplicates_and_bad_indices(self):
        msg = bytes(4)
        with pytest.raises(CodecError):
            mds_encode(msg, 2, [1, 1])
        with pytest.raises(CodecError):
            mds_encode(msg, 2, [0, 1 << 16])

    @pytest.mark.parametrize("bad", [-1, 1 << 16])
    def test_decode_rejects_indices_outside_the_field(self, monkeypatch, bad):
        # checked before any matrix is built: a negative index would
        # otherwise index the log table from its end
        payloads = mds_encode(bytes(range(8)), 2, [0, 1])

        def refuse(*args):
            raise AssertionError("a decode matrix was built")

        monkeypatch.setattr(gf, "decode_matrix", refuse)
        for symbols in ([(bad, payloads[0]), (1, payloads[1])],
                        [(0, payloads[0]), (1, payloads[1]), (bad, payloads[1])]):
            with pytest.raises(CodecError,
                               match=rf"^symbol index {bad} outside the field universe$"):
                mds_decode(symbols, 2)

    def test_decode_matrix_needs_k_distinct_indices(self):
        with pytest.raises(ValueError, match="repeated interpolation point"):
            gf.decode_matrix(3, (0, 5, 5))
        with pytest.raises(ValueError, match=r"^a decode needs 3 indices, got 2$"):
            gf.decode_matrix(3, (0, 5))
        with pytest.raises(ValueError, match="outside the field universe"):
            gf.generator_row(3, -1)

    def test_cached_matrices_are_read_only(self):
        # a write would silently change every later decode
        D = gf.decode_matrix(4, (1, 5, 9, 30))
        with pytest.raises(ValueError, match="read-only"):
            D[0, 0] ^= 1
        assert gf.decode_matrix(4, (1, 5, 9, 30)) is D
        assert np.array_equal(gf.matmul(D, gf.generator_matrix(4, (1, 5, 9, 30))),
                              np.eye(4, dtype=np.uint16))

    def test_padding_sizes(self):
        assert padded_len_bytes(1024, 16) == 128   # no padding at K=1024
        assert padded_len_bytes(1024, 2) == 128
        assert padded_len_bytes(8, 16) == 32       # one element per symbol


class TestServerEncode:
    def test_c1_store_layout(self):
        S = SystemState.of(P6, [{1, 2}] * 5 + [set()])
        msgs = random_payloads(P6, 3)
        store = server_encode(Scheme.C1, S, 0, {1: msgs[1], 2: msgs[2]}, P6)
        by_version = {}
        for cs in store:
            by_version.setdefault(cs.version, []).append(cs.index)
        assert len(by_version[2]) == 4 and len(by_version[1]) == 2
        assert 8 * sum(len(cs.payload) for cs in store) == 384
        # reserved index blocks: server * slots + slot
        assert by_version[2] == [0, 1, 2, 3]
        assert by_version[1] == [0, 1]

    def test_empty_server_empty_store(self):
        S = SystemState.of(P6, [set()] * 6)
        store = server_encode(Scheme.C1, S, 0, {}, P6)
        assert store == ()

    def test_c2_single_symbol(self):
        S = SystemState.of(P8, [{1, 2}] * 7 + [set()])
        msgs = random_payloads(P8, 3)
        store = server_encode(Scheme.C2, S, 0, {1: msgs[1], 2: msgs[2]}, P8)
        assert [(cs.version, cs.index) for cs in store] == [(2, 0)]
        assert 8 * len(store[0].payload) == 512

    @pytest.mark.parametrize("scheme,p", [(Scheme.C1, P6), (Scheme.C2, P8),
                                          (Scheme.CENTRAL, P6_FULL)])
    def test_slot_indices_are_what_server_encode_writes(self, scheme, p):
        # and encode_slots, the block encoder, holds each symbol at its index
        S = SystemState.of(p, [p.versions] * p.n)
        msgs = random_payloads(p, 4)
        denom = scheme_granularity(scheme, p)
        coded = {u: encode_slots(scheme, p, u, message_elements(
                     np.frombuffer(msgs[u], dtype=np.uint8)[None], p, denom))
                 for u in p.versions}
        for i, store in encode_all(scheme, S, msgs, p).items():
            assert store
            alloc = allocation_for(scheme, S, i, p)
            for u in p.versions:
                mine = [cs for cs in store if cs.version == u]
                indices = slot_indices(i, alloc.get(u, 0), slots_per_server(scheme, u, p))
                assert [cs.index for cs in mine] == list(indices)
                assert [cs.payload for cs in mine] == [
                    coded[u][j, 0].astype(">u2").tobytes() for j in indices]

    def test_message_set_must_match_state(self):
        S = SystemState.of(P6, [{1}] * 5 + [set()])
        msgs = random_payloads(P6, 3)
        with pytest.raises(CodecError):
            server_encode(Scheme.C1, S, 0, {1: msgs[1], 2: msgs[2]}, P6)
        with pytest.raises(CodecError):
            server_encode(Scheme.C1, S, 0, {}, P6)

    def test_encode_all_checks_the_message_set(self):
        # a version that server 0 received is missing: server_encode's
        # CodecError, not a KeyError; a version outside [1, nu] is refused
        S = SystemState.of(P6, [{1, 2}] + [{1}] * 5)
        msgs = random_payloads(P6, 3)
        missing = r"^messages supplied for versions \[1\] but the server received \[1, 2\]$"
        with pytest.raises(CodecError, match=missing):
            server_encode(Scheme.C1, S, 0, {1: msgs[1]}, P6)
        with pytest.raises(CodecError, match=missing):
            encode_all(Scheme.C1, S, {1: msgs[1]}, P6)
        with pytest.raises(CodecError, match=r"^message supplied for version 3, outside \[1, 2\]$"):
            encode_all(Scheme.C1, S, {**msgs, 3: msgs[1]}, P6)

    def test_encode_all_checks_the_length_of_an_unheld_message(self):
        # no server holds version 2, so no server's check sees its message
        S = SystemState.of(P6, [{1}] * P6.n)
        msgs = {1: random_payloads(P6, 3)[1], 2: b"x"}
        with pytest.raises(CodecError, match=r"^message for version 2 is 1 bytes, expected 128$"):
            encode_all(Scheme.C1, S, msgs, P6)

    def test_an_unreceived_version_in_the_allocation_is_a_codec_error(self, monkeypatch):
        # a faulty rule gives server 0, which holds only version 1, a symbol
        # of version 2: encode_all must refuse it, naming server and version
        original = codec.allocation_for

        def faulty(scheme, S, i, p):
            alloc = original(scheme, S, i, p)
            if i != 0:
                return alloc
            return {**alloc, 2: 1}

        monkeypatch.setattr(codec, "allocation_for", faulty)
        S = SystemState.of(P6, [{1}] + [{1, 2}] * 5)
        with pytest.raises(CodecError, match=r"^allocation gives server 0 symbols of version 2, "
                                             r"which it never received$"):
            encode_all(Scheme.C1, S, random_payloads(P6, 3), P6)

    def test_store_bits_equal_allocation_bits(self):
        msgs = random_payloads(P6, 11)
        for seed in range(20):
            S = SystemState.of(P6, random_subsets(seed))
            for i in range(P6.n):
                store = server_encode(Scheme.C1, S, i, {u: msgs[u] for u in S[i]}, P6)
                alloc = allocation_for(Scheme.C1, S, i, P6)
                held = [(u, sum(cs.version == u for cs in store)) for u in P6.versions]
                assert [(u, s) for u, s in held if s] == sorted(alloc.items())
                assert all(8 * len(cs.payload) == P6.k_bits // 16 for cs in store)  # K/c^2 each

    def test_global_index_disjointness(self):
        msgs = random_payloads(P6, 5)
        S = SystemState.of(P6, [{1, 2}] * 5 + [{1}])
        stores = encode_all(Scheme.C1, S, msgs, P6)
        seen = set()
        for store in stores.values():
            for cs in store:
                assert (cs.version, cs.index) not in seen
                seen.add((cs.version, cs.index))

    def test_encoder_locality(self):
        msgs = random_payloads(P6, 9)
        S = SystemState.of(P6, [{1, 2}] * 6)
        base = server_encode(Scheme.C1, S, 1, {1: msgs[1], 2: msgs[2]}, P6)
        # server 4 is outside H_1
        mutated = SystemState.of(P6, [{1, 2}] * 4 + [set()] + [{1, 2}])
        assert server_encode(Scheme.C1, mutated, 1, {1: msgs[1], 2: msgs[2]}, P6) == base

    def test_slots(self):
        assert slots_per_server(Scheme.C1, 1, P6) == 6
        assert slots_per_server(Scheme.C1, 2, P6) == 4
        assert slots_per_server(Scheme.C2, 3, P8) == 1


def random_subsets(seed):
    rng = random.Random(seed)
    return [{u for u in (1, 2) if rng.random() < 0.5} for _ in range(6)]


class TestQuorumDecode:
    def test_thm3_s1_forces_version_2(self):
        pair = fixture_thm3(P6)
        msgs = random_payloads(P6, 21)
        stores = encode_all(Scheme.C1, pair.s1, msgs, P6)
        result = quorum_decode(Scheme.C1, pair.s1, (0, 1, 2, 3, 5), stores, P6)
        assert result == (2, msgs[2])

    def test_empty_state_decodes_null(self):
        S = SystemState.of(P6, [set()] * 6)
        stores = encode_all(Scheme.C1, S, random_payloads(P6, 1), P6)
        for T in itertools.combinations(range(6), 5):
            assert quorum_decode(Scheme.C1, S, T, stores, P6) is None

    def test_thm3_s2_allows_either_version(self):
        pair = fixture_thm3(P6)
        msgs = random_payloads(P6, 22)
        stores = encode_all(Scheme.C1, pair.s2, msgs, P6)
        for T in itertools.combinations(range(6), 5):
            m, payload = quorum_decode(Scheme.C1, pair.s2, T, stores, P6)
            assert m in (1, 2)
            assert payload == msgs[m]

    def test_contract_error_when_store_is_gutted(self):
        pair = fixture_thm3(P6)
        msgs = random_payloads(P6, 23)
        stores = {i: () for i in encode_all(Scheme.C1, pair.s1, msgs, P6)}
        with pytest.raises(DecodeContractError):
            quorum_decode(Scheme.C1, pair.s1, (0, 1, 2, 3, 5), stores, P6)

    def test_dropping_a_server_outside_the_read_set_is_harmless(self):
        msgs = random_payloads(P6, 24)
        for seed in range(10):
            S = SystemState.of(P6, random_subsets(seed + 100))
            if latest_complete(S, P6) is None:
                continue
            stores = encode_all(Scheme.C1, S, msgs, P6)
            T = (0, 1, 2, 3, 4)
            full = quorum_decode(Scheme.C1, S, T, stores, P6)
            del stores[5]
            assert quorum_decode(Scheme.C1, S, T, stores, P6) == full

    def test_read_set_validation(self):
        S = SystemState.of(P6, [{1}] * 6)
        stores = encode_all(Scheme.C1, S, random_payloads(P6, 2), P6)
        with pytest.raises(ValueError):
            quorum_decode(Scheme.C1, S, (0, 1, 2), stores, P6)
        with pytest.raises(ValueError):
            quorum_decode(Scheme.C1, S, (0, 1, 2, 3, 9), stores, P6)


def test_store_json_round_trip():
    msgs = random_payloads(P6, 31)
    S = SystemState.of(P6, [{1, 2}] * 5 + [set()])
    stores = encode_all(Scheme.C1, S, msgs, P6)
    again = stores_from_json(stores_to_json(stores))
    assert again == stores
    for bad in ('{"0": [[1, 2]]}', '{"0": 5}', '{"0": [[[1], 0, "00"]]}',
                '{"0": [[1, 1.5, "00"]]}', '{"0": [[true, 0, "00"]]}', '{"0": [[1, 0, 7]]}',
                # server ids as stores_to_json writes them, each named once
                '{"0": [], "00": []}', '{"00": []}', '{"+0": []}', '{" 0": []}', '{"0 ": []}',
                '{"-1": []}', '{"\\u0661": []}', '{"0": [], "0": []}'):
        with pytest.raises(CodecError):
            stores_from_json(bad)
