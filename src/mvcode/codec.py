"""Concrete coded storage: MDS shares per version, server stores, quorum decode.

Each version is coded independently with the evaluation code of dimension
`denom` (the scheme's granularity), so a version is recoverable exactly when
a read set holds `denom` distinct symbols of it. Global symbol indices are
reserved per server (`slot_indices`: index = server * slots + slot), which
keeps every (version, index) pair unique across the system.

Messages are byte strings of k_bits/8 bytes (k_bits must be a multiple of
8). Internally each message is zero-padded so that every base symbol is a
whole number of 16-bit field elements; decode slices the padding back off.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import gf65536 as gf
from .allocation import Scheme, allocation_for, scheme_granularity
from .errors import (CodecError, DecodeContractError, InconsistentSymbolsError,
                     InsufficientSymbolsError)
from .model import Params, SystemState, latest_complete


@dataclass(frozen=True)
class CodedSymbol:
    version: int
    index: int
    payload: bytes


def _check_dimension(k: int) -> None:
    if k < 1:
        raise ValueError(f"code dimension must be >= 1, got {k}")
    if k > gf.ORDER:
        raise ValueError("dimension exceeds the field universe")


def mds_encode(message: bytes, k: int, indices: Sequence[int]) -> list[bytes]:
    """Coded payloads of the dimension-k code at the given global indices.

    The message must already be padded to a multiple of 2*k bytes; each
    output payload has length len(message)/k. Any k outputs with distinct
    indices reconstruct the message.
    """
    _check_dimension(k)
    if len(message) == 0 or len(message) % (2 * k) != 0:
        raise CodecError(
            f"message length {len(message)} bytes is not a positive multiple of 2*k={2 * k}")
    if len(set(indices)) != len(indices):
        raise CodecError(f"duplicate symbol indices: {sorted(indices)}")
    for j in indices:
        if not 0 <= j < gf.ORDER:
            raise CodecError(f"symbol index {j} outside the field universe")
    if not indices:
        return []
    M = np.frombuffer(message, dtype=">u2").reshape(k, -1)
    coded = gf.matmul(gf.generator_matrix(k, tuple(indices)), M).astype(">u2").tobytes()
    size = len(message) // k
    return [coded[r * size:(r + 1) * size] for r in range(len(indices))]


def mds_decode(symbols: Iterable[tuple[int, bytes]], k: int) -> bytes:
    """Reconstruct the (padded) message from symbols of the dimension-k code.

    Raises InsufficientSymbolsError with fewer than k distinct indices and
    InconsistentSymbolsError when duplicate indices disagree. With k or more
    distinct indices in [0, 2^16), all of one positive, even payload length
    (whole field elements), decoding always succeeds; any other index or
    length is a CodecError.
    """
    _check_dimension(k)
    by_index: dict[int, bytes] = {}
    for idx, payload in symbols:
        if idx in by_index:
            if by_index[idx] != payload:
                raise InconsistentSymbolsError(
                    f"conflicting payloads for symbol index {idx}")
            continue
        by_index[idx] = payload
    if len(by_index) < k:
        raise InsufficientSymbolsError(
            f"need {k} distinct symbols, got {len(by_index)}")
    indices = sorted(by_index)
    for j in indices:
        if not 0 <= j < gf.ORDER:
            raise CodecError(f"symbol index {j} outside the field universe")
        # joined, odd lengths could still make whole elements, misaligned
        if len(by_index[j]) == 0 or len(by_index[j]) % 2:
            raise CodecError(f"payload of symbol index {j} is {len(by_index[j])} bytes, "
                             "not a positive whole number of 16-bit elements")
    lengths = {len(payload) for payload in by_index.values()}
    if len(lengths) != 1:
        raise CodecError(f"payload lengths differ: {sorted(lengths)}")
    chosen = tuple(indices[:k])
    data = b"".join(by_index[j] for j in chosen)
    if chosen == tuple(range(k)):
        return data
    Y = np.frombuffer(data, dtype=">u2").reshape(k, -1)
    return gf.matmul(gf.decode_matrix(k, chosen), Y).astype(">u2").tobytes()


def padded_len_bytes(k_bits: int, denom: int) -> int:
    """Message size after padding each base symbol to whole field elements."""
    w = -(-k_bits // (16 * denom))  # ceil
    return 2 * w * denom


def _pad(message: bytes, k_bits: int, denom: int) -> bytes:
    target = padded_len_bytes(k_bits, denom)
    return message + b"\x00" * (target - len(message))


def slots_per_server(scheme: Scheme, version: int, p: Params) -> int:
    """Largest symbol count any server may hold of this version."""
    if scheme is Scheme.C1:
        return p.c + 2 if version == 1 else p.c
    return 1


def slot_indices(server: int, count: int, slots: int) -> range:
    """Global indices of a server's first `count` symbols of a version of
    which every server reserves `slots`: slot t of server i is i*slots + t."""
    return range(server * slots, server * slots + count)


def message_elements(payloads: np.ndarray, p: Params, denom: int) -> np.ndarray:
    """Messages given as (count, K/8) bytes, padded, as a (denom, count, w)
    stack of field elements: entry [r, b] is base symbol r of message b."""
    data = np.zeros((len(payloads), padded_len_bytes(p.k_bits, denom)), dtype=np.uint8)
    data[:, :p.k_bits // 8] = payloads
    return data.view(">u2").astype(np.uint16).reshape(len(payloads), denom, -1).transpose(1, 0, 2)


def encode_slots(scheme: Scheme, p: Params, version: int, elements: np.ndarray) -> np.ndarray:
    """Every server slot of `version` for a stack of messages from
    `message_elements`, with one matmul: entry [i*slots+t, b] holds the bytes
    server_encode stores at that index for message b."""
    k, count, w = elements.shape
    G = gf.generator_matrix(scheme_granularity(scheme, p),
                            tuple(range(p.n * slots_per_server(scheme, version, p))))
    coded = gf.matmul(G, elements.reshape(k, count * w))
    return coded.reshape(-1, count, w)


def _check_message_args(messages: Mapping[int, bytes], own: frozenset[int],
                        p: Params) -> None:
    if p.k_bits % 8 != 0:
        raise CodecError(f"the codec needs byte-aligned messages; k_bits={p.k_bits}")
    if set(messages) != set(own):
        raise CodecError(
            f"messages supplied for versions {sorted(messages)} but the server "
            f"received {sorted(own)}")
    _check_message_lengths(messages, p)


def _check_message_lengths(messages: Mapping[int, bytes], p: Params) -> None:
    for u, msg in messages.items():
        if len(msg) != p.k_bits // 8:
            raise CodecError(
                f"message for version {u} is {len(msg)} bytes, expected {p.k_bits // 8}")


def _server_slots(scheme: Scheme, S: SystemState, i: int,
                  messages: Mapping[int, bytes], p: Params) -> list[tuple[int, range]]:
    """Server i's checked allocation: per allocated version, the global
    indices it stores. Raises CodecError for anything server_encode could
    not write."""
    alloc = allocation_for(scheme, S, i, p)
    _check_message_args(messages, S[i], p)
    slotted = []
    for u, count in sorted(alloc.items()):
        if u not in messages:
            raise CodecError(
                f"allocation gives server {i} symbols of version {u}, which it never received")
        slots = slots_per_server(scheme, u, p)
        if count > slots:
            raise CodecError(f"allocation of {count} symbols exceeds {slots} slots")
        if p.n * slots > gf.ORDER:
            raise CodecError("global index universe exhausted")
        slotted.append((u, slot_indices(i, count, slots)))
    return slotted


def server_encode(scheme: Scheme, S: SystemState, i: int,
                  messages: Mapping[int, bytes], p: Params) -> tuple[CodedSymbol, ...]:
    """Produce server i's store: its allocated symbols at its reserved indices.

    `messages` must hold exactly the versions in S(i); the store depends on
    S only through the side view of i (full state for the central scheme).
    """
    slotted = _server_slots(scheme, S, i, messages, p)
    denom = scheme_granularity(scheme, p)
    coded: list[CodedSymbol] = []
    for u, indices in slotted:
        payloads = mds_encode(_pad(messages[u], p.k_bits, denom), denom, indices)
        coded.extend(CodedSymbol(u, idx, pl) for idx, pl in zip(indices, payloads))
    return tuple(coded)


def quorum_decode(scheme: Scheme, S: SystemState, T: Sequence[int],
                  stores: Mapping[int, Sequence[CodedSymbol]],
                  p: Params) -> tuple[int, bytes] | None:
    """Decode from a read set: (version, message) with version >= the latest
    complete one, or None when no version is complete.

    Candidate versions are tried newest-first, so the freshest decodable
    version wins. Raises DecodeContractError if nothing at or above the
    latest complete version is decodable: that means the scheme is broken.
    """
    read_set = sorted(set(T))
    if len(read_set) != p.cr or len(T) != p.cr:
        raise ValueError(f"read set must contain {p.cr} distinct servers, got {T!r}")
    for t in read_set:
        if not 0 <= t < p.n:
            raise ValueError(f"server {t} outside [0, {p.n})")
        if t not in stores:
            raise ValueError(f"no store provided for server {t}")
    latest = latest_complete(S, p)
    if latest is None:
        return None
    denom = scheme_granularity(scheme, p)
    for m in range(p.nu, latest - 1, -1):
        pairs = [(cs.index, cs.payload)
                 for t in read_set for cs in stores[t] if cs.version == m]
        if len({idx for idx, _ in pairs}) < denom:
            continue
        padded = mds_decode(pairs, denom)
        return m, padded[:p.k_bits // 8]
    raise DecodeContractError(
        f"no version >= {latest} decodable from read set {read_set}")


def encode_all(scheme: Scheme, S: SystemState, messages: Mapping[int, bytes],
               p: Params) -> dict[int, tuple[CodedSymbol, ...]]:
    """Stores for all n servers; `messages` holds all nu versions and is
    restricted per server. Equal to server_encode per server: every server
    is checked first, in id order, then each version is encoded once over
    the union of the servers' slot indices (disjoint by construction) and
    the payloads are handed back to their servers. Raises CodecError for a
    version outside [1, nu] or a message of the wrong length, held or not,
    and as server_encode does for a server whose versions `messages` lacks."""
    for u in sorted(messages):
        if u not in p.versions:
            raise CodecError(f"message supplied for version {u}, outside [1, {p.nu}]")
    slotted = [_server_slots(scheme, S, i, {u: messages[u] for u in S[i] if u in messages}, p)
               for i in range(p.n)]
    _check_message_lengths(messages, p)
    denom = scheme_granularity(scheme, p)
    union: dict[int, list[int]] = {}
    for versions in slotted:
        for u, indices in versions:
            union.setdefault(u, []).extend(indices)
    payload: dict[tuple[int, int], bytes] = {}
    for u, indices in union.items():
        coded = mds_encode(_pad(messages[u], p.k_bits, denom), denom, indices)
        payload.update(zip(((u, j) for j in indices), coded))
    return {i: tuple(CodedSymbol(u, j, payload[u, j]) for u, indices in versions for j in indices)
            for i, versions in enumerate(slotted)}


def stores_to_json(stores: Mapping[int, Sequence[CodedSymbol]]) -> str:
    """The store file, {server: [[version, index, hex payload], ...]}, byte
    for byte as json.dumps(doc, sort_keys=True, indent=2) writes it: keys in
    string order, two-space indent. Hex needs no escaping, so the text is
    written directly, as one flat list of pieces joined once."""
    if not stores:
        return "{}"
    pieces = []
    open_server = '{\n  "'
    for i, store in sorted(stores.items(), key=lambda item: str(item[0])):
        pieces += (open_server, str(i))
        open_server = ',\n  "'
        if not store:
            pieces.append('": []')
            continue
        open_entry = '": [\n    [\n      '
        for cs in store:
            pieces += (open_entry, str(cs.version), ",\n      ", str(cs.index),
                       ',\n      "', cs.payload.hex(), '"\n    ]')
            open_entry = ",\n    [\n      "
        pieces.append("\n  ]")
    pieces.append("\n}")
    return "".join(pieces)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """object_pairs_hook for store files: a server named twice is an error,
    not a silent overwrite."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise CodecError(f"store file names server {key} twice")
        doc[key] = value
    return doc


def stores_from_json(text: str) -> dict[int, tuple[CodedSymbol, ...]]:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise CodecError("store file is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise CodecError("store file must be a JSON object keyed by server id")
    stores = {}
    for key, entries in doc.items():
        # as stores_to_json writes them, so no two keys name the same server
        if not re.fullmatch("0|[1-9][0-9]*", key):
            raise CodecError(f"store file key {key!r} is not a canonical server id")
        if not isinstance(entries, list):
            raise CodecError(f"store of server {key} must be a list of entries, got {entries!r}")
        symbols = []
        for entry in entries:
            # [version, index, hex payload]; bools are not integers here
            if not (isinstance(entry, list) and len(entry) == 3
                    and type(entry[0]) is int and type(entry[1]) is int
                    and isinstance(entry[2], str)):
                raise CodecError(f"bad store entry for server {key}: {entry!r}")
            version, index, hexpayload = entry
            symbols.append(CodedSymbol(version, index, bytes.fromhex(hexpayload)))
        stores[int(key)] = tuple(symbols)
    return stores
