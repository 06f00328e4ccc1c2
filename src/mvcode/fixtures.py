"""Two-state pairs whose listed servers cannot tell the states apart.

Each pair consists of states S1 and S2 with different decode obligations
(S1 forces the newer version, S2 allows either), while every server in the
`indistinguishable` set observes the identical side view under both. The
`thm3` pair lives in the cw = 2h+1 = n-1 regime and differs at a single
server; the `thm4` pair lives in the cw = cr = (n+c)/2, h <= (n-c)/4 regime
and differs on a block of servers invisible to the first c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RegimeError
from .model import Params, SystemState, latest_complete, side_view


@dataclass(frozen=True)
class FixturePair:
    s1: SystemState
    s2: SystemState
    indistinguishable: frozenset[int]
    required_decodes: dict[str, frozenset[int]]  # state name -> allowed versions


def _required(S: SystemState, p: Params) -> frozenset[int]:
    latest = latest_complete(S, p)
    assert latest is not None, "fixture states must have a complete version"
    return frozenset(u for u in p.versions if u >= latest)


def make_thm3_params(n: int, k_bits: int) -> Params:
    if n % 2 != 0 or n < 4:
        raise RegimeError(f"the thm3 pair needs even n >= 4, got {n}")
    return Params(n=n, cw=n - 1, cr=n - 1, nu=2, h=n // 2 - 1, k_bits=k_bits)


def fixture_thm3(p: Params) -> FixturePair:
    """Single-server-difference pair: only server n-2 changes its state.

    S1: servers 0..n-2 hold both versions, server n-1 holds nothing.
    S2: server n-2 drops version 2, so version 2 is one short of complete.
    Server n/2-2 cannot see server n-2 and is the blind witness.
    """
    n = p.n
    if n % 2 != 0 or n < 4:
        raise RegimeError(f"the thm3 pair needs even n >= 4, got {n}")
    if p.cw != n - 1:
        raise RegimeError(f"the thm3 pair needs cw = n-1, got cw={p.cw}")
    if p.h != n // 2 - 1:
        raise RegimeError(f"the thm3 pair needs h = n/2-1, got h={p.h}")
    if p.nu != 2:
        raise RegimeError(f"the thm3 pair is a two-version construction, got nu={p.nu}")
    s1 = SystemState.of(p, [{1, 2}] * (n - 1) + [set()])
    s2 = SystemState.of(p, [{1, 2}] * (n - 2) + [{1}, set()])
    pair = FixturePair(
        s1=s1, s2=s2,
        indistinguishable=frozenset({n // 2 - 2}),
        required_decodes={"s1": _required(s1, p), "s2": _required(s2, p)},
    )
    return pair


def thm3_read_sets(p: Params) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical read sets used against the thm3 pair.

    R1 pins servers {n/2-2, n-1} plus the c-1 smallest others; R2 pins
    {n/2-2, n-2, n-1} plus the c-2 smallest others. Both have size c+1 = cr
    in this regime.
    """
    n, c = p.n, p.c
    anchor1 = {n // 2 - 2, n - 1}
    others1 = [i for i in range(n) if i not in anchor1][:c - 1]
    anchor2 = {n // 2 - 2, n - 2, n - 1}
    others2 = [i for i in range(n) if i not in anchor2][:c - 2]
    r1 = tuple(sorted(anchor1 | set(others1)))
    r2 = tuple(sorted(anchor2 | set(others2)))
    assert len(r1) == len(r2) == p.cr
    return r1, r2


def make_thm4_params(n: int, c: int, k_bits: int, h: int | None = None) -> Params:
    if (n - c) % 4 != 0:
        raise RegimeError(f"(n-c)/4 must be an integer, got n={n}, c={c}")
    cw = (n + c) // 2
    return Params(n=n, cw=cw, cr=cw, nu=2, h=(n - c) // 4 if h is None else h, k_bits=k_bits)


def _thm4_blocks(n: int, c: int) -> tuple[set[int], set[int]]:
    """The thm4 pair's holders of version 1, [0, (n+3c-4)/4] and
    [(3n+c)/4, n), and its far block [(n+3c)/4, (3n+c-4)/4]."""
    holders = set(range((n + 3 * c - 4) // 4 + 1)) | set(range((3 * n + c) // 4, n))
    return holders, set(range((n + 3 * c) // 4, (3 * n + c - 4) // 4 + 1))


def fixture_thm4(p: Params) -> FixturePair:
    """Blind-block pair: the first c servers see neither changed server.

    S1 completes version 2 through a far block {(n+3c)/4 .. (3n+c-4)/4};
    S2 empties that block, leaving version 2 only on servers 0..c-1. With
    h <= (n-c)/4 those first c servers observe identical side views.
    """
    n, c = p.n, p.c
    if c < 3:
        raise RegimeError(f"the thm4 pair needs c >= 3, got c={c}")
    if p.cw != p.cr or p.cw != (n + c) // 2 or (n + c) % 2 != 0:
        raise RegimeError(f"the thm4 pair needs cw = cr = (n+c)/2, got cw={p.cw}, cr={p.cr}")
    if (n - c) % 4 != 0:
        raise RegimeError(f"(n-c)/4 must be an integer, got n={n}, c={c}")
    if n < -(-7 * c // 3) + 4:
        raise RegimeError(f"the thm4 pair needs n >= ceil(7c/3)+4, got n={n}, c={c}")
    if p.h > (n - c) // 4:
        raise RegimeError(f"the thm4 pair needs h <= (n-c)/4, got h={p.h}")

    a1_s1, far = _thm4_blocks(n, c)
    a2_s1 = set(range(c)) | far
    a2_s2 = set(range(c))

    def build(a1: set[int], a2: set[int]) -> SystemState:
        return SystemState.of(
            p, [{u for u, a in ((1, a1), (2, a2)) if i in a} for i in range(n)])

    s1 = build(a1_s1, a2_s1)
    s2 = build(a1_s1, a2_s2)
    return FixturePair(
        s1=s1, s2=s2,
        indistinguishable=frozenset(range(c)),
        required_decodes={"s1": _required(s1, p), "s2": _required(s2, p)},
    )


def thm4_l_choices(c: int) -> tuple[int, int]:
    """The two canonical sizes for the first block of the second read set."""
    return (-(-2 * c // 3) - 1, (2 * c // 3) - 1)


def thm4_read_sets(p: Params, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Read sets used against the thm4 pair; the second is parameterized by l.

    R1 is exactly the holders of version 1. R2 = {0..l} plus the far block
    plus {c..2c-l-2}; l must satisfy 0 <= l <= c-1 and 2c-l-2 <= (n+3c-4)/4.
    """
    n, c = p.n, p.c
    if not 0 <= l <= c - 1:
        raise RegimeError(f"l must be in [0, c-1], got l={l}, c={c}")
    if 2 * c - l - 2 > (n + 3 * c - 4) // 4:
        raise RegimeError(
            f"l={l} violates 2c-l-2 <= (n+3c-4)/4 for n={n}, c={c}")
    holders, far = _thm4_blocks(n, c)
    r1 = tuple(sorted(holders))
    r2 = tuple(sorted(set(range(l + 1)) | far | set(range(c, 2 * c - l - 1))))
    assert len(r1) == len(r2) == p.cr
    return r1, r2


def check_indistinguishable(pair: FixturePair, p: Params) -> list[str]:
    """Empty list when the pair is sound; otherwise human-readable problems.

    Sound means: every listed server sees identical side views under both
    states, and (unless the states are identical) some unlisted server can
    tell them apart.
    """
    problems = []
    for i in sorted(pair.indistinguishable):
        v1, v2 = side_view(pair.s1, i, p), side_view(pair.s2, i, p)
        if v1 != v2:
            problems.append(f"server {i} can distinguish the states: {v1} != {v2}")
    if pair.s1 != pair.s2:
        unlisted = [i for i in range(p.n) if i not in pair.indistinguishable]
        if not any(side_view(pair.s1, i, p) != side_view(pair.s2, i, p)
                   for i in unlisted):
            problems.append("no unlisted server distinguishes the states")
    return problems
