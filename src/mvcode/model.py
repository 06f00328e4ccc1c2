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
import os
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError

DEFAULT_BUDGET = 20_000_000


def work_budget(override: int | None = None) -> int:
    """Enumeration budget in work units; MVCODE_BUDGET overrides the default."""
    if override is not None:
        return override
    env = os.environ.get("MVCODE_BUDGET")
    if env is not None:
        return int(env)
    return DEFAULT_BUDGET


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

    @classmethod
    def from_dict(cls, d: dict) -> "Params":
        return cls(n=d["n"], cw=d["cw"], cr=d["cr"],
                   nu=d["nu"], h=d["h"], k_bits=d["K"])


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
        data = json.loads(text)
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
        for sid, st in self.window:
            if sid == self.center:
                return st
        raise AssertionError("window must contain the center")

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


def neighborhood(i: int, p: Params) -> frozenset[int]:
    """The set of servers whose states server i can see (itself included)."""
    return frozenset(ring_window(i, p.n, p.h))


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


def enumerate_states(p: Params, start: int = 0, stop: int | None = None,
                     budget: int | None = None) -> Iterator[SystemState]:
    """Yield each state exactly once, in state_at order.

    start/stop select a rank range, so disjoint ranges can be handed to
    independent workers. Raises BudgetExceededError when the requested
    range is larger than the work budget.
    """
    total = state_count(p)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad range [{start}, {stop}) for {total} states")
    if stop - start > work_budget(budget):
        raise BudgetExceededError(
            f"{stop - start} states exceed budget {work_budget(budget)}; "
            "set MVCODE_BUDGET to override")
    for idx in range(start, stop):
        yield state_at(p, idx)


def random_masks(p: Params, seed: int) -> list[int]:
    """The per-server masks of random_state(p, seed)."""
    rng = random.Random(seed)
    return [rng.getrandbits(p.nu) for _ in range(p.n)]


def random_state(p: Params, seed: int) -> SystemState:
    """Uniform random state, a deterministic function of the seed."""
    return state_from_masks(random_masks(p, seed))
