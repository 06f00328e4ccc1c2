"""Per-server, per-version storage budgets for the three schemes.

Budgets are counted in base symbols: a message of k_bits is split into
`denom` equal symbols, so one symbol is worth k_bits/denom bits. The two
side-information schemes are pure functions of a server's SideView, which
is exactly the information its encoder is allowed to use.

Schemes, by their CLI names:
  c1      two-version split: a server that sees version 2 at >= n-2 servers
          reserves k_bits/c for it and keeps the remainder for version 1;
          otherwise the whole budget goes to version 1. Budget (c+2)/c^2.
  c2      local-latest: one symbol of the latest locally confirmed version
          (seen at >= n-2 visible servers). Budget 1/(c-2(nu-1)).
  central full information: one symbol of the latest complete version.
          Budget 1/c.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import RegimeError
from .model import (Params, SideView, SystemState, latest_complete, ring_window,
                    side_view, view_local_candidate)


class Scheme(str, Enum):
    C1 = "c1"
    C2 = "c2"
    CENTRAL = "central"


@dataclass(frozen=True)
class Granularity:
    """How finely a message is split: denom symbols of k_bits/denom each."""

    denom: int

    def __post_init__(self) -> None:
        if self.denom < 1:
            raise ValueError(f"denominator must be >= 1, got {self.denom}")

    def symbol_bits(self, k_bits: int) -> Fraction:
        return Fraction(k_bits, self.denom)


@dataclass(frozen=True)
class Allocation:
    """Symbol counts per version for one server."""

    symbols: tuple[tuple[int, int], ...]  # (version, count), version-sorted
    granularity: Granularity

    @classmethod
    def of(cls, counts: dict[int, int], granularity: Granularity) -> "Allocation":
        items = tuple(sorted((u, s) for u, s in counts.items() if s > 0))
        return cls(items, granularity)

    def count(self, u: int) -> int:
        for v, s in self.symbols:
            if v == u:
                return s
        return 0


def validate_regime(scheme: Scheme, p: Params) -> None:
    """Raise RegimeError unless p satisfies the scheme's preconditions."""
    if scheme in (Scheme.C1, Scheme.C2):
        if p.n % 2 != 0:
            raise RegimeError(f"scheme {scheme.value} requires even n, got {p.n}")
        if p.cw != p.n - 1:
            raise RegimeError(f"scheme {scheme.value} requires cw = n-1, got cw={p.cw}, n={p.n}")
        if 2 * p.h + 1 != p.n - 1:
            raise RegimeError(
                f"scheme {scheme.value} requires 2h+1 = n-1, got h={p.h}, n={p.n}")
    if scheme is Scheme.C1 and p.nu > 2:
        raise RegimeError(f"scheme c1 handles at most two versions, got nu={p.nu}")
    if scheme is Scheme.C2 and p.c < 2 * p.nu - 1:
        raise RegimeError(
            f"scheme c2 requires c >= 2*nu-1, got c={p.c}, nu={p.nu}")
    if scheme is Scheme.CENTRAL and p.window_size != p.n:
        raise RegimeError(
            f"scheme central requires full information (2h+1 >= n), got h={p.h}, n={p.n}")


def scheme_granularity(scheme: Scheme, p: Params) -> Granularity:
    validate_regime(scheme, p)
    if scheme is Scheme.C1:
        return Granularity(p.c * p.c)
    if scheme is Scheme.C2:
        return Granularity(p.c - 2 * (p.nu - 1))
    return Granularity(p.c)


def alpha_symbols(scheme: Scheme, p: Params) -> int:
    """Worst-case per-server budget in symbols of the scheme's granularity."""
    validate_regime(scheme, p)
    return p.c + 2 if scheme is Scheme.C1 else 1


def alpha_bits(scheme: Scheme, p: Params) -> Fraction:
    """Worst-case per-server budget in bits, exact."""
    return alpha_symbols(scheme, p) * scheme_granularity(scheme, p).symbol_bits(p.k_bits)


def alloc_c1(view: SideView, p: Params) -> Allocation:
    """Two-version split allocation, from the side view alone.

    The split formula is applied first, then versions the server never
    received are zeroed out (it has nothing to encode for them).
    """
    gran = scheme_granularity(Scheme.C1, p)
    own = view.center_state
    threshold_met = view.receiver_count(2) >= p.n - 2
    sym2 = p.c if threshold_met else 0
    sym1 = (p.c + 2) - sym2
    counts = {}
    if 2 in own and sym2:
        counts[2] = sym2
    if 1 in own and sym1:
        counts[1] = sym1
    return Allocation.of(counts, gran)


def alloc_c2(view: SideView, p: Params) -> Allocation:
    """Local-latest allocation: one symbol of the locally confirmed latest."""
    gran = scheme_granularity(Scheme.C2, p)
    lc = view_local_candidate(view, p)
    return Allocation.of({} if lc is None else {lc: 1}, gran)


def alloc_centralized(S: SystemState, i: int, p: Params) -> Allocation:
    """Full-information allocation: one symbol of the latest complete version."""
    gran = scheme_granularity(Scheme.CENTRAL, p)
    latest = latest_complete(S, p)
    if latest is not None and latest in S[i]:
        return Allocation.of({latest: 1}, gran)
    return Allocation.of({}, gran)


def allocation_for(scheme: Scheme, S: SystemState, i: int, p: Params) -> Allocation:
    if scheme is Scheme.C1:
        return alloc_c1(side_view(S, i, p), p)
    if scheme is Scheme.C2:
        return alloc_c2(side_view(S, i, p), p)
    return alloc_centralized(S, i, p)


@lru_cache(maxsize=64)
def _window_matrix(n: int, h: int) -> np.ndarray:
    """W[j, i] = 1 when server i sees server j, so bits @ W counts per server
    the visible servers whose bit is set."""
    W = np.zeros((n, n))
    for i in range(n):
        W[list(ring_window(i, n, h)), i] = 1
    W.flags.writeable = False
    return W


def _newest(flags: list[np.ndarray]) -> np.ndarray:
    """Elementwise, the newest version u whose flags[u-1] is set, 0 when none is."""
    newest = np.zeros(flags[0].shape, dtype=np.int32)
    for u, flag in enumerate(flags, 1):
        newest[flag] = u
    return newest


def block_allocations(scheme: Scheme, masks: np.ndarray, p: Params
                      ) -> tuple[np.ndarray, np.ndarray]:
    """allocation_for for every server of a block of states at once.

    `masks` is a (states, n) array of per-server version bitmasks, bit u-1
    set when the server holds version u. Returns the symbol counts as a
    (states, n, nu) int32 array, counts[b, i, u-1] being what
    allocation_for(scheme, S_b, i, p) allocates to version u, and each
    state's latest complete version, 0 when none is complete. The
    per-server functions above are the reference this must equal.
    """
    # held[u-1][b, i] = 1 when server i holds version u in state b; sums of
    # these 0/1 floats are exact and go through BLAS
    held = [((masks >> (u - 1)) & 1).astype(np.float64) for u in p.versions]
    latest = _newest([h @ np.ones(p.n) >= p.cw for h in held])
    W = _window_matrix(p.n, p.h)
    if scheme is Scheme.C1:
        # a server that sees version 2 (bit 1) at >= n-2 servers splits
        sees_2 = ((masks >> 1) & 1).astype(np.float64) @ W >= p.n - 2
        per_version = [held[0] * np.where(sees_2, 2, p.c + 2)]
        if p.nu > 1:
            per_version.append(held[1] * sees_2 * p.c)
    elif scheme is Scheme.C2:
        local = _newest([(h > 0) & (h @ W >= p.n - 2) for h in held])
        per_version = [local == u for u in p.versions]
    else:
        per_version = [h * (latest == u)[:, None] for u, h in enumerate(held, 1)]
    # versions outermost in memory, so sums over versions add whole planes
    return np.stack(per_version).astype(np.int32).transpose(1, 2, 0), latest

