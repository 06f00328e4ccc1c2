"""System parameters, server states, ring neighborhoods and completeness.

Servers sit on a ring of size n. Each server holds a subset of the nu
totally ordered versions (1-based ids; larger = later). A version held by
at least cw servers is *complete*; every read quorum of cr servers then
overlaps its holders in at least c = cw + cr - n servers. Server i can see
the states of its h-hop ring neighborhood, which is what the allocation
schemes condition on.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError

DEFAULT_BUDGET = 20_000_000


def work_budget(override: int | None = None) -> int:
    """Work budget in (state, read set) pairs; MVCODE_BUDGET overrides the default."""
    if override is not None:
        return override
    env = os.environ.get("MVCODE_BUDGET")
    if env is not None:
        return int(env)
    return DEFAULT_BUDGET


def check_work(p: Params, states: int, budget: int | None = None) -> int:
    """Raise BudgetExceededError when the (state, read set) pairs a check
    visits, states x C(n, cr), or the entries of its server by read set
    matrix, n x C(n, cr), exceed the work budget; return C(n, cr), the read
    sets per state, counted without listing one."""
    reads = math.comb(p.n, p.cr)
    limit = work_budget(budget)
    for count, what in ((states, "states"), (p.n, "servers")):
        if count * reads > limit:
            raise BudgetExceededError(
                f"{count} {what} x {reads} read sets exceeds budget {limit}; "
                "set MVCODE_BUDGET to override")
    return reads


@dataclass(frozen=True)
class Params:
    """System tuple: ring size n, quorums cw/cr, version count nu,
    visibility radius h, message length k_bits."""

    n: int
    cw: int
    cr: int
    nu: int
    h: int
    k_bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.cw <= self.n:
            raise ValueError(f"cw must be in [1, n], got cw={self.cw}, n={self.n}")
        if not 1 <= self.cr <= self.n:
            raise ValueError(f"cr must be in [1, n], got cr={self.cr}, n={self.n}")
        if self.c < 1:
            raise ValueError(f"quorum overlap c = cw + cr - n must be >= 1, got {self.c}")
        if self.nu < 1:
            raise ValueError(f"nu must be >= 1, got {self.nu}")
        if self.h < 0:
            raise ValueError(f"h must be >= 0, got {self.h}")
        if self.k_bits < 1:
            raise ValueError(f"k_bits must be >= 1, got {self.k_bits}")

    @property
    def c(self) -> int:
        """Guaranteed overlap between any read quorum and any write quorum."""
        return self.cw + self.cr - self.n

    @property
    def window_size(self) -> int:
        """Number of servers visible to one server, itself included."""
        return min(2 * self.h + 1, self.n)

    @property
    def versions(self) -> range:
        return range(1, self.nu + 1)

    def to_dict(self) -> dict:
        return {"n": self.n, "cw": self.cw, "cr": self.cr,
                "nu": self.nu, "h": self.h, "K": self.k_bits}


@dataclass(frozen=True)
class SystemState:
    """Per-server received-version subsets, indexed by server id."""

    subsets: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.subsets)

    def __getitem__(self, i: int) -> frozenset[int]:
        return self.subsets[i]

    @classmethod
    def of(cls, p: Params, subsets: Iterable[Iterable[int]]) -> "SystemState":
        """Build and validate a state against p: length n, ids within [1, nu]."""
        tup = tuple(frozenset(s) for s in subsets)
        if len(tup) != p.n:
            raise ValueError(f"state must list {p.n} servers, got {len(tup)}")
        for i, s in enumerate(tup):
            bad = [u for u in s if not 1 <= u <= p.nu]
            if bad:
                raise ValueError(f"server {i} holds version ids {bad} outside [1, {p.nu}]")
        return cls(tup)

    def to_json(self) -> str:
        return json.dumps([sorted(s) for s in self.subsets])

    @classmethod
    def from_json(cls, text: str, p: Params) -> "SystemState":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("state JSON is nested too deeply to parse") from None
        # bools are not integers here
        if not (isinstance(data, list) and all(
                isinstance(s, list) and all(type(u) is int for u in s) for s in data)):
            raise ValueError("state JSON must be an array of arrays of integer version ids")
        return cls.of(p, data)


@dataclass(frozen=True)
class SideView:
    """What server `center` can see: the states of its ring window,
    keyed by absolute server id, in fixed offset order."""

    center: int
    window: tuple[tuple[int, frozenset[int]], ...]

    @property
    def center_state(self) -> frozenset[int]:
        return dict(self.window)[self.center]

    def receiver_count(self, u: int) -> int:
        """How many visible servers hold version u."""
        return sum(1 for _, st in self.window if u in st)


@lru_cache(maxsize=4096)
def ring_window(i: int, n: int, h: int) -> tuple[int, ...]:
    """Server ids visible from i, offsets -h..+h mod n, duplicates dropped.

    Offsets up from -h first repeat after n steps, so the window is the first
    min(2h+1, n) of them: all n servers (full information) when 2h+1 >= n.
    """
    if not 0 <= i < n:
        raise ValueError(f"server id {i} outside [0, {n})")
    return tuple((i - h + t) % n for t in range(min(2 * h + 1, n)))


def side_view(S: SystemState, i: int, p: Params) -> SideView:
    """Restrict S to the window of server i."""
    order = ring_window(i, p.n, p.h)
    return SideView(center=i, window=tuple((j, S[j]) for j in order))


def receivers(S: SystemState, u: int) -> frozenset[int]:
    """Servers that have received version u."""
    if u < 1:
        raise ValueError(f"version ids are 1-based, got {u}")
    return frozenset(i for i, s in enumerate(S.subsets) if u in s)


def complete_versions(S: SystemState, p: Params) -> frozenset[int]:
    """Versions held by at least cw servers."""
    return frozenset(u for u in p.versions if len(receivers(S, u)) >= p.cw)


def latest_complete(S: SystemState, p: Params) -> int | None:
    """Max complete version, or None when no version is complete."""
    cs = complete_versions(S, p)
    return max(cs) if cs else None


def view_local_candidate(view: SideView, p: Params) -> int | None:
    """Latest version the center holds that it sees at >= n-2 servers.

    Only versions in the center's own subset qualify; a server cannot
    store a version it never received.
    """
    best = None
    for u in view.center_state:
        if view.receiver_count(u) >= p.n - 2 and (best is None or u > best):
            best = u
    return best


def state_count(p: Params) -> int:
    """Size of the full state space: (2^nu)^n."""
    return (1 << p.nu) ** p.n


@lru_cache(maxsize=4096)
def _versions_of_mask(mask: int) -> frozenset[int]:
    return frozenset(u for u in range(1, mask.bit_length() + 1) if mask >> (u - 1) & 1)


def state_from_masks(masks: Sequence[int]) -> SystemState:
    """The state whose server i holds version u when bit u-1 of masks[i] is set."""
    return SystemState(tuple(_versions_of_mask(m) for m in masks))


def state_at(p: Params, index: int) -> SystemState:
    """Decode a lexicographic state rank; server 0's bitmask is least significant."""
    if not 0 <= index < state_count(p):
        raise ValueError(f"state index {index} outside [0, {state_count(p)})")
    mask_all = (1 << p.nu) - 1
    return state_from_masks([(index >> (i * p.nu)) & mask_all for i in range(p.n)])


def rank_masks(p: Params, start: int, stop: int) -> np.ndarray:
    """The per-server masks of the states ranked [start, stop), one row each,
    as state_at decodes them."""
    ranks = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(p.n, dtype=np.int64) * p.nu
    return (ranks[:, None] >> shifts) & ((1 << p.nu) - 1)


BLOCK = 1024  # rows per block at most: states, or pairs of a product stack
BLOCK_BYTES = 1 << 22  # and about this many bytes of the arrays a block's kernels build


def block_size(row_bytes: int) -> int:
    """The rows every block walk takes at a time, each costing row_bytes:
    at most BLOCK, and at most about BLOCK_BYTES, but never none."""
    return max(1, min(BLOCK, BLOCK_BYTES // row_bytes))


def state_bytes(p: Params, bitexact: bool = False) -> int:
    """About the bytes of the arrays a block's kernels build per state, as
    tracemalloc measured them: per read set, 8 + nu for the decode table
    (verifier.decode_versions) and, with the bit-exact layer, 24 (n + 1)
    for the decode keys (verifier._decode_pairs) and K/8 per version."""
    per_read = 8 + p.nu + (24 * (p.n + 1) if bitexact else 0)
    return per_read * math.comb(p.n, p.cr) + (p.nu * (p.k_bits // 8) if bitexact else 0)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): its counter increment and
# the multipliers of its finalizer
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on a uint64 array, wrapping mod 2**64."""
    z = (z ^ z >> np.uint64(30)) * _MIX1
    z = (z ^ z >> np.uint64(27)) * _MIX2
    return z ^ z >> np.uint64(31)


def seeded_words(seeds: Iterable[int], lo: int, hi: int) -> np.ndarray:
    """Words lo..hi-1 of each seed's stream, one uint64 row per seed: w_s(j) =
    mix64(mix64(s mod 2**64) + (j + 1) * 0x9E3779B97F4A7C15), mod 2**64.
    Every seeded draw (states, payloads, read sets) is defined on them."""
    keys = _mix64(np.array([s % 2**64 for s in seeds], dtype=np.uint64))
    return _mix64(keys[:, None] + np.arange(lo + 1, hi + 1, dtype=np.uint64) * _GOLDEN)


def sample_masks(p: Params, seed: int, lo: int, hi: int) -> np.ndarray:
    """The masks of sampled states [lo, hi) under seed, one row each: server
    i of state idx holds the top nu bits of w(idx * n + i) of seeded_words,
    so a row depends on (seed, idx) alone. Raises ValueError for nu > 63."""
    if p.nu > 63:
        raise ValueError(f"sampled states need nu <= 63 (int64 bit masks), got nu={p.nu}")
    words = seeded_words([seed], lo * p.n, hi * p.n)
    return (words >> np.uint64(64 - p.nu)).astype(np.int64).reshape(hi - lo, p.n)


def view_codes(masks: np.ndarray, p: Params) -> np.ndarray:
    """One integer per (state, server) of a (states, n) mask block: the masks
    of the server's ring window in ring_window order, nu bits each, then the
    center id. Two codes are equal exactly when side_view gives equal
    SideViews, since a center fixes its window's server ids."""
    windows = np.array([ring_window(i, p.n, p.h) for i in range(p.n)])
    codes = np.zeros(masks.shape, dtype=np.int64)
    for k in range(windows.shape[1]):
        codes = codes << p.nu | masks[:, windows[:, k]]
    return codes * p.n + np.arange(p.n)


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of keys numbered by first appearance (row by row),
    shaped like keys, and the flat position of each number's first key."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse].reshape(keys.shape), first[order]


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_inverse=True) for a 2-D array of
    non-negative integers: the distinct rows in lexicographic order, and
    each row's position among them. Each column takes the bits its largest
    entry needs, and the columns are packed, first column most significant,
    into as few 63-bit words as those widths allow, so the words order as
    the rows do. One word goes through 1-D np.unique, several through
    np.lexsort and a comparison of neighbours; no row is sorted as an
    opaque record. Raises ValueError for a negative entry."""
    rows = np.asarray(rows)
    count = rows.shape[0]
    if count == 0:
        return rows.copy(), np.zeros(0, dtype=np.intp)
    if rows.min() < 0:
        raise ValueError("unique_rows needs non-negative entries")
    values = rows.astype(np.int64, copy=False)
    words: list[np.ndarray] = []
    used = 63
    for col, top in enumerate(rows.max(0).tolist()):
        bits = max(1, int(top).bit_length())
        if used + bits > 63:
            words.append(np.zeros(count, dtype=np.int64))
            used = 0
        words[-1] = words[-1] << bits | values[:, col]
        used += bits
    if len(words) == 1:
        keys, inverse = np.unique(words[0], return_inverse=True)
        first = np.empty(len(keys), dtype=np.intp)
        first[inverse] = np.arange(count)
        return rows[first], inverse
    order = np.lexsort(words[::-1])  # lexsort's last key is its primary one
    packed = np.stack(words)[:, order]
    starts = np.ones(count, dtype=bool)
    starts[1:] = (packed[:, 1:] != packed[:, :-1]).any(0)
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return rows[order[starts]], inverse


def view_classes(masks: np.ndarray, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """The view class of each (state, server) of a mask block: its distinct
    view_codes, numbered by first appearance (state by state, server by
    server), and the flat position state * n + server of each class's first
    view."""
    return _first_appearance(view_codes(masks, p))


@lru_cache(maxsize=64)
def _mask_table(nu: int) -> dict[frozenset[int], int]:
    """The masks of the sets of version ids in [1, nu] that view_code has met."""
    return {}


def view_code(view: SideView, p: Params) -> int | None:
    """view_codes of one SideView, or None when no state of p has this view:
    its window is not a ring window of p or names a version outside [1, nu]."""
    if not (0 <= view.center < p.n
            and len(view.window) == len(order := ring_window(view.center, p.n, p.h))):
        return None
    masks = _mask_table(p.nu)
    code = 0
    for (j, versions), expected in zip(view.window, order):
        if (mask := masks.get(versions)) is None:
            if not all(1 <= u <= p.nu for u in versions):
                return None
            mask = masks[versions] = sum(1 << (u - 1) for u in versions)
        if j != expected:
            return None
        code = code << p.nu | mask
    return code * p.n + view.center


def ring_automorphism(perm: Sequence[int], p: Params) -> np.ndarray:
    """perm as an index array, checked to map the ring window of every server
    i onto the window of server perm[i]. Such a permutation maps a state S to
    the state whose server perm[i] holds S[i], the view of server i to the
    view of server perm[i] there, and read sets and completeness to their
    own kind, so it maps strategies, and their decodability, onto themselves."""
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(p.n)) or any(
            set(perm[list(ring_window(i, p.n, p.h))].tolist())
            != set(ring_window(int(perm[i]), p.n, p.h)) for i in range(p.n)):
        raise ValueError(f"{perm.tolist()} does not map ring windows onto ring windows "
                         f"at n={p.n}, h={p.h}")
    return perm


def dihedral_generators(p: Params) -> list[np.ndarray]:
    """The ring's rotation i -> i+1 and reflection i -> -i, each checked."""
    i = np.arange(p.n)
    return [ring_automorphism((i + 1) % p.n, p), ring_automorphism(-i % p.n, p)]


def view_orbits(masks: np.ndarray, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """The orbit of each (state, server) view of a mask block under the
    ring's dihedral group, numbered and placed as view_classes does classes.
    Rotation i -> i+1 maps the view of server i to that of server i+1 with
    the same window masks, and reflection i -> -i to that of server -i in
    the reflected state, which sees at offset d what the view saw at -d. So
    a view's orbit is keyed by the lesser of its center-free view code and
    its mirror's, a function of the view alone."""
    reflection = dihedral_generators(p)[1]
    codes = view_codes(masks, p)
    np.minimum(codes, view_codes(masks[:, reflection], p)[:, reflection], out=codes)
    return _first_appearance(np.floor_divide(codes, p.n, out=codes))


def random_state(p: Params, seed: int) -> SystemState:
    """Uniform random state of the seed: sampled state 0 under it (sample_masks)."""
    return state_from_masks(sample_masks(p, seed, 0, 1)[0].tolist())
