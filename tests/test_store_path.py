"""The codec's store path against its references: the direct store writer
against json.dumps, and the batched encode_all against server_encode per
server, values and first error alike."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from mvcode import (CodecError, Params, Scheme, SystemState, codec, encode_all,
                    server_encode)
from mvcode.codec import CodedSymbol, stores_from_json, stores_to_json
from mvcode.model import random_state
from mvcode.verifier import random_payloads
from helpers import all_states
from test_gf_matmul import WIDE


def reference_stores_json(stores):
    """The store file as json.dumps writes it: the writer's specification."""
    doc = {str(i): [[cs.version, cs.index, cs.payload.hex()] for cs in st]
           for i, st in sorted(stores.items())}
    return json.dumps(doc, sort_keys=True, indent=2)


# small ids so that string order ("10" < "2") differs from numeric order
number = st.one_of(st.integers(0, 12), st.integers(0, 1 << 70))
symbol = st.builds(CodedSymbol, number, number, st.binary(max_size=7))
store_maps = st.dictionaries(number, st.lists(symbol, max_size=4).map(tuple), max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(store_maps)
def test_writer_equals_json_dumps(stores):
    text = stores_to_json(stores)
    assert text == reference_stores_json(stores)
    assert stores_from_json(text) == stores


def test_writer_edge_cases():
    assert stores_to_json({}) == reference_stores_json({}) == "{}"
    stores = {i: () for i in (2, 10, 0)}
    assert stores_to_json(stores) == reference_stores_json(stores) == (
        '{\n  "0": [],\n  "10": [],\n  "2": []\n}')
    odd = {1: (CodedSymbol(3, 1 << 40, b""), CodedSymbol(1, 0, b"\x01\xff\x00"))}
    assert stores_to_json(odd) == reference_stores_json(odd)


@pytest.mark.parametrize("scheme,p,subsets", WIDE, ids=["c1-n6", "c2-n8-nu3"])
def test_writer_on_wide_stores(scheme, p, subsets):
    S = SystemState.of(p, subsets)
    rng = random.Random(77)
    messages = {u: rng.randbytes(p.k_bits // 8) for u in p.versions}
    stores = encode_all(scheme, S, messages, p)
    assert stores_to_json(stores) == reference_stores_json(stores)


def per_server(scheme, S, messages, p):
    """encode_all's reference: server_encode, one server at a time."""
    return {i: server_encode(scheme, S, i, {u: messages[u] for u in S[i]}, p)
            for i in range(p.n)}


N4 = [(Scheme.C1, Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=264)),
      (Scheme.C2, Params(n=4, cw=3, cr=4, nu=2, h=1, k_bits=264)),
      (Scheme.CENTRAL, Params(n=4, cw=3, cr=3, nu=2, h=2, k_bits=264))]


@pytest.mark.parametrize("scheme,p", N4, ids=["c1", "c2", "central"])
def test_batched_encode_all_exhaustive_at_n4(scheme, p):
    messages = random_payloads(p, 4)
    for S in all_states(p):
        assert encode_all(scheme, S, messages, p) == per_server(scheme, S, messages, p)


SEEDED = [(Scheme.C1, Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=1024)),
          (Scheme.CENTRAL, Params(n=6, cw=5, cr=5, nu=2, h=3, k_bits=1024)),
          (Scheme.C2, Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024))]


@pytest.mark.parametrize("scheme,p", SEEDED, ids=["c1-n6", "central-n6", "c2-n8"])
def test_batched_encode_all_seeded(scheme, p, monkeypatch):
    messages = random_payloads(p, 6)
    states = [random_state(p, seed) for seed in range(40)]
    expected = [per_server(scheme, S, messages, p) for S in states]
    calls = []
    mds_encode = codec.mds_encode

    def counted(message, spec, indices):
        calls.append(len(indices))
        return mds_encode(message, spec, indices)

    monkeypatch.setattr(codec, "mds_encode", counted)
    for S, stores in zip(states, expected):
        assert encode_all(scheme, S, messages, p) == stores
        # one encode per allocated version, over every server's symbols of it
        assert len(calls) == len({cs.version for st in stores.values() for cs in st})
        assert sum(calls) == sum(len(st) for st in stores.values())
        calls.clear()


def test_the_lowest_faulty_server_names_the_error(monkeypatch):
    # server 1 is given a version it never received, server 3 more symbols
    # than its slots: both are faults, and the lower server's is reported
    p = Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=1024)
    original = codec.allocation_for

    def faulty(scheme, S, i, p):
        alloc = original(scheme, S, i, p)
        if i == 1:
            return {**alloc, 2: 1}
        if i == 3:
            return {1: 99}
        return alloc

    monkeypatch.setattr(codec, "allocation_for", faulty)
    S = SystemState.of(p, [{1, 2}, {1}, {1, 2}, {1}, {1, 2}, {1, 2}])
    messages = random_payloads(p, 3)
    errors = []
    for i in (1, 3):
        with pytest.raises(CodecError) as info:
            server_encode(Scheme.C1, S, i, {u: messages[u] for u in S[i]}, p)
        errors.append(str(info.value))
    assert errors == ["allocation gives server 1 symbols of version 2, which it never received",
                      "allocation of 99 symbols exceeds 6 slots"]
    with pytest.raises(CodecError) as info:
        encode_all(Scheme.C1, S, messages, p)
    assert str(info.value) == errors[0]
    # once server 1 has received version 2, server 3's fault is the first
    S = SystemState.of(p, [{1, 2}, {1, 2}, {1, 2}, {1}, {1, 2}, {1, 2}])
    with pytest.raises(CodecError, match=r"^allocation of 99 symbols exceeds 6 slots$"):
        encode_all(Scheme.C1, S, messages, p)

