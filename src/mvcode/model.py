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
import random
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
    visits, states x C(n, cr), exceed the work budget; return C(n, cr), the
    read sets per state, counted without listing one."""
    reads = math.comb(p.n, p.cr)
    limit = work_budget(budget)
    if states * reads > limit:
        raise BudgetExceededError(
            f"{states} states x {reads} read sets exceeds budget {limit}; "
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
    def servers(self) -> tuple[int, ...]:
        return tuple(sid for sid, _ in self.window)

    @property
    def center_state(self) -> frozenset[int]:
        return dict(self.window)[self.center]

    def receiver_count(self, u: int) -> int:
        """How many visible servers hold version u."""
        return sum(1 for _, st in self.window if u in st)


@lru_cache(maxsize=4096)
def ring_window(i: int, n: int, h: int) -> tuple[int, ...]:
    """Server ids visible from i, offsets -h..+h mod n, duplicates dropped.

    When 2h+1 >= n the window saturates to all n servers (full information).
    """
    if not 0 <= i < n:
        raise ValueError(f"server id {i} outside [0, {n})")
    seen: list[int] = []
    for d in range(-h, h + 1):
        j = (i + d) % n
        if j not in seen:
            seen.append(j)
    return tuple(seen)


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


def view_classes(masks: np.ndarray, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """The view class of each (state, server) of a mask block: its distinct
    view_codes, numbered by first appearance (state by state, server by
    server), and the flat position state * n + server of each class's first
    view."""
    return _first_appearance(view_codes(masks, p))


@lru_cache(maxsize=4096)
def _mask_of(versions: frozenset[int], nu: int) -> int | None:
    """The mask of a set of version ids, or None when one lies outside [1, nu]."""
    if not all(1 <= u <= nu for u in versions):
        return None
    return sum(1 << (u - 1) for u in versions)


def view_code(view: SideView, p: Params) -> int | None:
    """view_codes of one SideView, or None when no state of p has this view:
    its window is not a ring window of p or names a version outside [1, nu]."""
    if not (0 <= view.center < p.n and view.servers == ring_window(view.center, p.n, p.h)):
        return None
    code = 0
    for _, st in view.window:
        if (mask := _mask_of(st, p.nu)) is None:
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


def random_masks(p: Params, seed: int) -> list[int]:
    """The per-server masks of random_state(p, seed): n draws of
    getrandbits(nu) from random.Random(seed), server 0's first. CPython
    seeds that generator from |seed|: the 32-bit words of |seed|, least
    significant first, are the key of MT19937's init_by_array. Sampled state
    idx of `verify` under seed k is random_masks(p, k * 1_000_003 + idx), so
    seeds k and -k draw the same state 0, and from idx 1_000_003 on seed k
    draws the states of seed k + 1. random_mask_block computes a range of
    seeds at once."""
    rng = random.Random(seed)
    return [rng.getrandbits(p.nu) for _ in range(p.n)]


# MT19937 (Matsumoto & Nishimura, ACM TOMACS 8(1), 1998) as CPython's
# random module runs it: 624 state words, twist offset 397
_MT_N, _MT_M = 624, 397
_MT_MULT1, _MT_MULT2 = np.uint32(1664525), np.uint32(1566083941)


@lru_cache(maxsize=1)
def _mt_genrand_init() -> tuple[np.uint32, ...]:
    """init_genrand(19650218), the state init_by_array starts from."""
    words = [19650218]
    for i in range(1, _MT_N):
        words.append((1812433253 * (words[-1] ^ words[-1] >> 30) + i) & 0xFFFFFFFF)
    return tuple(np.uint32(w) for w in words)


def random_mask_block(p: Params, first: int, count: int) -> np.ndarray:
    """random_masks(p, s) for s in range(first, first + count), one row each,
    as a (count, n) int64 array.

    random.Random(s) runs MT19937's init_by_array over the 32-bit words of
    |s|, least significant first, and getrandbits(nu) for nu <= 32 is the
    next tempered output shifted right by 32 - nu. Here both loops of
    init_by_array run as uint32 steps over every seed at once. Loop 2 starts
    from loop 1's last words, so loop 1 runs once to its end and then again
    in step with loop 2, which keeps memory at a few words per seed. The
    first twist then makes only the n words the outputs use, from the
    2n + 1 state words they read. Outside that
    definition (n > 227, nu > 32, or |s| >= 2**64, a key over two words) the
    rows come from random_masks itself."""
    seeds = range(first, first + count)
    if p.n > _MT_N - _MT_M or p.nu > 32 or max(abs(first), abs(first + count - 1)) >> 64:
        return np.array([random_masks(p, s) for s in seeds],
                        dtype=np.int64).reshape(count, p.n)
    key = np.fromiter(map(abs, seeds), dtype=np.uint64, count=count)
    low, high = (key & 0xFFFFFFFF).astype(np.uint32), (key >> 32).astype(np.uint32)
    # loop 1's step t adds key word j = t mod (key length), plus j: low at
    # every step for a one-word key, low and high + 1 in turn for two words
    adds = (low, np.where(high > 0, high + np.uint32(1), low))
    init = _mt_genrand_init()
    t = np.empty(count, np.uint32)

    def step(prev, base, mult, add, out):
        """out = (base ^ (prev ^ prev >> 30) * mult) + add, mod 2**32; out
        may be prev or base."""
        np.right_shift(prev, 30, out=t)
        np.bitwise_xor(t, prev, out=t)
        np.multiply(t, mult, out=t)
        np.bitwise_xor(t, base, out=out)
        return np.add(out, add, out=out)

    word1 = step(np.full(count, init[0]), init[1], _MT_MULT1, adds[0], np.empty_like(t))
    x = word1.copy()
    for i in range(2, _MT_N):
        step(x, init[i], _MT_MULT1, adds[(i - 1) & 1], x)
    # loop 1 wraps (word 0 = word 623) and its last step rewrites word 1
    again1 = step(x, word1, _MT_MULT1, adds[1], x)
    # loop 1 again, in step with loop 2, which reads its words in order;
    # loop 2 subtracts i, which is adding -i mod 2**32
    y, x = again1.copy(), word1
    early = np.empty((p.n + 1, count), np.uint32)  # final words 0..n
    late = np.empty((p.n, count), np.uint32)       # final words 397..396+n
    for i in range(2, _MT_N):
        step(x, init[i], _MT_MULT1, adds[(i - 1) & 1], x)
        step(y, x, _MT_MULT2, np.uint32(-i % 2**32), y)
        if i <= p.n:
            early[i] = y
        elif 0 <= i - _MT_M < p.n:
            late[i - _MT_M] = y
    # loop 2 wraps and rewrites word 1; init_by_array then sets word 0
    early[1] = step(y, again1, _MT_MULT2, np.uint32(2**32 - 1), y)
    early[0] = 0x80000000
    masks = np.empty((count, p.n), np.int64)
    for k in range(p.n):
        # output k of the first twist reads words k, k + 1 and k + 397
        z = (early[k] & 0x80000000) | (early[k + 1] & 0x7FFFFFFF)
        z = late[k] ^ (z >> 1) ^ (z & 1) * np.uint32(0x9908B0DF)
        z ^= z >> 11
        z ^= (z << 7) & 0x9D2C5680
        z ^= (z << 15) & 0xEFC60000
        z ^= z >> 18
        masks[:, k] = z >> 32 - p.nu
    return masks


def random_state(p: Params, seed: int) -> SystemState:
    """Uniform random state, a deterministic function of the seed."""
    return state_from_masks(random_masks(p, seed))
