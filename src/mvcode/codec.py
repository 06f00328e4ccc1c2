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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import gf65536 as gf
from .allocation import Scheme, allocation_for, scheme_granularity
from .errors import (CodecError, DecodeContractError, InconsistentSymbolsError,
                     InsufficientSymbolsError)
from .model import Params, SystemState, latest_complete


@dataclass(frozen=True)
class MdsSpec:
    """Dimension-k evaluation code over the 2^16 field."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"code dimension must be >= 1, got {self.k}")
        if self.k > gf.ORDER:
            raise ValueError("dimension exceeds the field universe")


@dataclass(frozen=True)
class CodedSymbol:
    version: int
    index: int
    payload: bytes


@dataclass(frozen=True)
class ServerStore:
    server: int
    symbols: tuple[CodedSymbol, ...]

    @property
    def total_bits(self) -> int:
        return sum(len(cs.payload) * 8 for cs in self.symbols)


def _to_elements(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=">u2").astype(np.uint16)


def _to_bytes(elems: np.ndarray) -> bytes:
    return elems.astype(">u2").tobytes()


def mds_encode(message: bytes, spec: MdsSpec, indices: Sequence[int]) -> list[bytes]:
    """Coded payloads for the given global indices.

    The message must already be padded to a multiple of 2*k bytes; each
    output payload has length len(message)/k. Any k outputs with distinct
    indices reconstruct the message.
    """
    k = spec.k
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
    w = len(message) // (2 * k)
    M = _to_elements(message).reshape(k, w)
    G = gf.generator_matrix(k, tuple(indices))
    out = gf.matmul(G, M)
    return [_to_bytes(out[r]) for r in range(len(indices))]


def mds_decode(symbols: Iterable[tuple[int, bytes]], spec: MdsSpec) -> bytes:
    """Reconstruct the (padded) message from coded symbols.

    Raises InsufficientSymbolsError with fewer than k distinct indices and
    InconsistentSymbolsError when duplicate indices disagree. With k or more
    distinct indices, decoding always succeeds.
    """
    k = spec.k
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
    chosen = tuple(sorted(by_index)[:k])
    lengths = {len(by_index[j]) for j in chosen}
    if len(lengths) != 1:
        raise CodecError(f"payload lengths differ: {sorted(lengths)}")
    if chosen == tuple(range(k)):
        return b"".join(by_index[j] for j in chosen)
    Y = np.stack([_to_elements(by_index[j]) for j in chosen])
    M = gf.matmul(gf.decode_matrix(k, chosen), Y)
    return b"".join(_to_bytes(M[r]) for r in range(k))


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


@lru_cache(maxsize=64)
def _slot_generator(scheme: Scheme, p: Params, version: int) -> np.ndarray:
    """Generator rows of every server slot of `version`, in slot_indices
    order: row j is the symbol with global index j."""
    slots = slots_per_server(scheme, version, p)
    denom = scheme_granularity(scheme, p).denom
    return gf.generator_matrix(denom, tuple(range(p.n * slots)))


def message_elements(messages: Sequence[bytes], p: Params, denom: int) -> np.ndarray:
    """Padded messages as a (denom, len(messages), w) stack of field elements:
    entry [r, b] is base symbol r of message b."""
    data = b"".join(_pad(m, p.k_bits, denom) for m in messages)
    return _to_elements(data).reshape(len(messages), denom, -1).transpose(1, 0, 2)


def encode_slots(scheme: Scheme, p: Params, version: int, elements: np.ndarray) -> np.ndarray:
    """Every server slot of `version` for a stack of messages from
    `message_elements`, with one matmul: entry [i*slots+t, b] holds the bytes
    server_encode stores at that index for message b."""
    k, count, w = elements.shape
    coded = gf.matmul(_slot_generator(scheme, p, version), elements.reshape(k, count * w))
    return coded.reshape(-1, count, w)


def _check_message_args(messages: Mapping[int, bytes], own: frozenset[int],
                        p: Params) -> None:
    if p.k_bits % 8 != 0:
        raise CodecError(f"the codec needs byte-aligned messages; k_bits={p.k_bits}")
    if set(messages) != set(own):
        raise CodecError(
            f"messages supplied for versions {sorted(messages)} but the server "
            f"received {sorted(own)}")
    for u, msg in messages.items():
        if len(msg) != p.k_bits // 8:
            raise CodecError(
                f"message for version {u} is {len(msg)} bytes, expected {p.k_bits // 8}")


def server_encode(scheme: Scheme, S: SystemState, i: int,
                  messages: Mapping[int, bytes], p: Params) -> ServerStore:
    """Produce server i's store: its allocated symbols at its reserved indices.

    `messages` must hold exactly the versions in S(i); the store depends on
    S only through the side view of i (full state for the central scheme).
    """
    alloc = allocation_for(scheme, S, i, p)
    _check_message_args(messages, S[i], p)
    denom = alloc.granularity.denom
    spec = MdsSpec(denom)
    coded: list[CodedSymbol] = []
    for u, count in alloc.symbols:
        slots = slots_per_server(scheme, u, p)
        if count > slots:
            raise CodecError(f"allocation of {count} symbols exceeds {slots} slots")
        if p.n * slots > gf.ORDER:
            raise CodecError("global index universe exhausted")
        indices = slot_indices(i, count, slots)
        payloads = mds_encode(_pad(messages[u], p.k_bits, denom), spec, indices)
        coded.extend(CodedSymbol(u, idx, pl) for idx, pl in zip(indices, payloads))
    return ServerStore(server=i, symbols=tuple(coded))


def quorum_decode(scheme: Scheme, S: SystemState, T: Sequence[int],
                  stores: Mapping[int, ServerStore],
                  p: Params) -> tuple[int, bytes] | None:
    """Decode from a read set: (version, message) with version >= the latest
    complete one, or None when no version is complete.

    Candidate versions are tried newest-first, so the freshest decodable
    version wins. Raises DecodeContractError if nothing at or above the
    latest complete version is decodable: that means the scheme is broken.
    """
    read_set = sorted(set(T))
    if len(read_set) != p.cr:
        raise ValueError(f"read set must contain {p.cr} distinct servers, got {T!r}")
    for t in read_set:
        if not 0 <= t < p.n:
            raise ValueError(f"server {t} outside [0, {p.n})")
        if t not in stores:
            raise ValueError(f"no store provided for server {t}")
    latest = latest_complete(S, p)
    if latest is None:
        return None
    denom = scheme_granularity(scheme, p).denom
    spec = MdsSpec(denom)
    for m in range(p.nu, latest - 1, -1):
        pairs = [(cs.index, cs.payload)
                 for t in read_set for cs in stores[t].symbols if cs.version == m]
        if len({idx for idx, _ in pairs}) < denom:
            continue
        padded = mds_decode(pairs, spec)
        return m, padded[:p.k_bits // 8]
    raise DecodeContractError(
        f"no version >= {latest} decodable from read set {read_set}")


def encode_all(scheme: Scheme, S: SystemState, messages: Mapping[int, bytes],
               p: Params) -> dict[int, ServerStore]:
    """Stores for all n servers; `messages` holds all nu versions and is
    restricted per server."""
    return {
        i: server_encode(scheme, S, i, {u: messages[u] for u in S[i]}, p)
        for i in range(p.n)
    }


def stores_to_json(stores: Mapping[int, ServerStore]) -> str:
    doc = {
        str(i): [[cs.version, cs.index, cs.payload.hex()] for cs in st.symbols]
        for i, st in sorted(stores.items())
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def stores_from_json(text: str) -> dict[int, ServerStore]:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise CodecError("store file must be a JSON object keyed by server id")
    stores = {}
    for key, entries in doc.items():
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
        stores[int(key)] = ServerStore(server=int(key), symbols=tuple(symbols))
    return stores
