"""Exact search for the cheapest side-view allocation strategy.

A strategy assigns to every (server id, side view) pair an allocation of
whole symbol units (multiples of k_bits/g) per received version. It is
feasible when every state with a complete version lets every read set
assemble g units of some version at or above the latest complete one:
the counting model of decodability for per-version MDS coding.

The minimum worst-case per-server total B is found with an integer
program: the decode requirement per (state, read set) is a disjunction
over candidate versions, linearized with one binary per candidate.

The lower bound is the full-information cost, cap0 = ceil(g/c) units. In
the state where exactly cw servers hold version nu and the rest hold
nothing, some read set meets exactly c of those holders, and nu is its only
candidate, so one holder stores at least g/c units. The LP relaxation adds
nothing to this: giving every view g/c units of its center's newest
received version satisfies every row (a read set meets at least c servers
whose newest version is fresh enough), so its optimum is exactly g/c.

Optimality is proven in up to three steps:

0. The rounded strategy, ceil(g/c) units of its center's newest received
   version in every view, is checked on every state. It costs cap0, so
   when no state is short it is optimal: it is the witness, and no integer
   program is built or solved. When side information cannot help, as in
   the paper's converse regime, this step settles the instance.

Every rotation and reflection of the ring maps windows onto windows, so it
maps states, side views, read sets and decodability onto themselves: the
model is symmetric under the dihedral group. A rotation moves a view's
center and keeps its window masks; the reflection mirrors the masks and is
its own inverse. So a view's orbit is keyed by the lesser of its
center-free code and its mirror's (model.view_orbits). The invariant model
gives one allocation per orbit. It is a restriction of the full model, so
each of its solutions is a feasible strategy and its optimum an upper bound
on B. When step 0 finds a short state:

1. The invariant integer program is solved with B capped at cap0; while
   HiGHS proves the capped problem infeasible, the cap rises by one unit,
   up to nu*g. The first feasible solve's optimum, inv, is the cheapest
   invariant strategy's cost.
2. When inv = cap0 it is optimal, and the full model is never built.
   Otherwise one full integer solve, capped at inv - 1, decides: proven
   infeasible, inv is optimal; feasible, its optimum is B.

A cap never removes a strategy cheaper than itself, so the result equals
what exhaustive strategy enumeration would return, at desk scale where
that enumeration is intractable. The witness is the rounded strategy when
step 0 settles the instance, else the optimal invariant strategy, or the
full solve's when it undercuts inv.

The model, step 0 and the witness check run on arrays of state masks, and
the last two share one loop over blocks of states: each
(state, server) side view is one integer code (model.view_codes), and
SideView objects appear only as the keys of a witness or of a strategy
to check. Step 0 labels no view: view classes are found only for the
search. A certified witness takes each class's first position in closed
form, as a view's first state holds its window masks and nothing else.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import BudgetExceededError, SolverError
from .allocation import block_latest, newest
from .model import (Params, SideView, block_size, check_work, rank_masks, ring_window,
                    state_bytes, state_count, unique_rows, view_classes, view_code, view_codes,
                    view_orbits)
from .verifier import read_sets, short_states

# instance limits of the exact search; only the granularity limit is per call
MAX_N = 6
MAX_NU = 2


Strategy = dict[SideView, dict[int, int]]


def _check_budget(p: Params, g: int, max_g: int) -> None:
    if p.nu > MAX_NU:
        raise BudgetExceededError(f"oracle budget allows nu <= {MAX_NU}, got {p.nu}")
    if p.n > MAX_N:
        raise BudgetExceededError(f"oracle budget allows n <= {MAX_N}, got {p.n}")
    if g > max_g:
        raise BudgetExceededError(f"oracle budget allows granularity <= {max_g}, got {g}")
    if g < 1:
        raise ValueError(f"granularity must be >= 1, got {g}")
    check_work(p, state_count(p))


def _model(p: Params, g: int, masks: np.ndarray, labels: np.ndarray, first: np.ndarray
           ) -> tuple[sparse.csc_matrix, np.ndarray, np.ndarray, int, np.ndarray]:
    """The integer program of (p, g) over the strategies that give every
    view of one label the same allocation: its constraint matrix with row
    bounds, the first z column, and per label the column of a[label, u] for
    each version u, -1 where u is not received. labels[b, i] labels the view
    of server i in state b of masks (every state, in rank order), numbered
    by first appearance, and first[label] is the flat position of its first
    view; view_classes gives both for the full model, and view_orbits for
    the invariant one. Views in one orbit have one center mask, so every
    label's views receive the same versions.

    Variables are [B] [a...] [z...]: a in label-then-version order, z in
    decode-key order, one per fresh-enough version. Rows are one cap per
    label that receives something, sum_u a[label, u] - B <= 0, then per
    decode key (the sorted labels of a read set, and the latest complete
    version) one row sum_t a[label_t, m] - g z[key, m] >= 0 per m in
    [latest, nu], and the cover row sum_m z[key, m] >= 1."""
    received = (masks.reshape(-1)[first, None] >> np.arange(p.nu)) & 1 == 1
    a_cols = np.full(received.shape, -1)
    a_cols[received] = 1 + np.arange(received.sum())
    z_base = 1 + int(received.sum())

    latest = block_latest(masks, p)
    reads = np.array(read_sets(p))
    keys = np.sort(labels[latest > 0][:, reads], axis=2).reshape(-1, p.cr)
    keys, _ = unique_rows(np.column_stack([keys, np.repeat(latest[latest > 0], len(reads))]))
    sets, top = keys[:, :-1], keys[:, -1]
    span = p.nu + 1 - top  # z variables per key; the key's rows are span + 1
    z_first = z_base + np.cumsum(span) - span
    capped = np.flatnonzero(received.any(1))
    row_first = len(capped) + np.cumsum(span + 1) - (span + 1)
    n_rows = len(capped) + int((span + 1).sum())

    cap_row, cap_u = np.nonzero(received[capped])
    rows = [cap_row, np.arange(len(capped))]
    cols = [a_cols[capped[cap_row], cap_u], np.zeros(len(capped), dtype=np.int64)]
    vals = [np.ones(len(cap_row)), np.full(len(capped), -1.0)]
    for m in p.versions:
        key = np.flatnonzero(top <= m)
        row, z = row_first[key] + m - top[key], z_first[key] + m - top[key]
        # one entry per read-set member: the matrix sums a label repeated in
        # a read set into its multiplicity
        k, t = np.nonzero(received[sets[key], m - 1])
        rows += [row, row[k], row_first[key] + span[key]]
        cols += [z, a_cols[sets[key][k, t], m - 1], z]
        vals += [np.full(len(key), -float(g)), np.ones(len(k)), np.ones(len(key))]
    A = sparse.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n_rows, z_base + int(span.sum())))
    lb = np.zeros(n_rows)
    ub = np.full(n_rows, np.inf)
    lb[:len(capped)], ub[:len(capped)] = -np.inf, 0.0
    lb[row_first + span] = 1.0
    return A, lb, ub, z_base, a_cols


def _capped_solve(p: Params, g: int, model: tuple, cap: int):
    """One HiGHS integer solve of a _model with B at most cap. Infeasible
    (status 2) is an answer only for a cap below nu*g, where a strategy
    always exists."""
    A, lb, ub, z_base, _ = model
    n_vars = A.shape[1]
    hi = np.ones(n_vars)
    hi[0], hi[1:z_base] = cap, g
    objective = np.zeros(n_vars)
    objective[0] = 1.0
    res = milp(objective, constraints=LinearConstraint(A, lb, ub),
               integrality=np.ones(n_vars),
               bounds=Bounds(np.zeros(n_vars), hi), options={"mip_rel_gap": 0.0})
    if res.status != 0 and not (res.status == 2 and cap < p.nu * g):
        raise SolverError(f"strategy search failed: {res.message}")
    return res


def _units(model: tuple, res) -> np.ndarray:
    """The solution's units of each version per label, 0 where not received."""
    a_cols = model[-1]
    return np.where(a_cols >= 0, np.rint(res.x[a_cols]), 0).astype(int)


def _search(p: Params, g: int, masks: np.ndarray, classes: np.ndarray, first: np.ndarray
            ) -> tuple[int, np.ndarray, np.ndarray]:
    """The integer programs' optimum and strategy, as _solve returns them,
    over the masks of every state and their view classes and first views
    (view_classes)."""
    orbits, orbit_first = view_orbits(masks, p)
    invariant = _model(p, g, masks, orbits, orbit_first)
    # the first feasible capped invariant solve from the full-information
    # bound is the cheapest invariant strategy, which only a full solve
    # capped one unit below can undercut
    bound = cap = -(-g // p.c)
    while (res := _capped_solve(p, g, invariant, cap)).status == 2:
        cap += 1
    best, units = round(res.x[0]), _units(invariant, res)[orbits.ravel()[first]]
    if best != bound:
        full = _model(p, g, masks, classes, first)
        if (res := _capped_solve(p, g, full, best - 1)).status == 0:
            best, units = round(res.x[0]), _units(full, res)
    return best, first, units


def _no_short_state(p: Params, g: int, holdings: Callable[[np.ndarray], np.ndarray]) -> bool:
    """Whether every state with a complete version lets every read set
    decode g units of a version at or above it, when a block of state masks
    stores holdings(masks), (states, n, nu) units: the states in rank order,
    model.block_size at a time, up to the first block with a short state."""
    total, step = state_count(p), block_size(state_bytes(p))
    for lo in range(0, total, step):
        masks = rank_masks(p, lo, min(lo + step, total))
        if short_states(holdings(masks), block_latest(masks, p), p, g).any():
            return False
    return True


def _rounded(p: Params, g: int, centers: np.ndarray) -> np.ndarray:
    """The rounded full-information strategy for views whose centers hold
    `centers` (version masks, any shape): ceil(g/c) units of the newest
    version the center received and none of any other, one row of units
    per version on a new last axis."""
    top = newest([(centers >> (u - 1)) & 1 == 1 for u in p.versions])
    return -(-g // p.c) * (top[..., None] == np.arange(1, p.nu + 1))


def _solve(p: Params, g: int) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """Minimum feasible worst-case total in symbol units, plus an optimal
    strategy per view class: the first position of each class (as
    view_classes gives it) and its units of each version, 0 where not
    received. Both are None when the rounded strategy is optimal: then no
    view is labelled."""
    # the rounded strategy costs the lower bound, so if it is feasible it is
    # optimal and no integer program is built
    if _no_short_state(p, g, lambda block: _rounded(p, g, block)):
        return -(-g // p.c), None, None
    masks = rank_masks(p, 0, state_count(p))
    return _search(p, g, masks, *view_classes(masks, p))


def _first_views(p: Params) -> np.ndarray:
    """view_classes' first positions, found without labelling a view. The
    first state that shows a view holds its window masks and nothing
    elsewhere, so every center and combination of window masks is one class,
    first seen at that state's rank * n + center; classes are numbered in
    ascending position."""
    windows = np.array([ring_window(i, p.n, p.h) for i in range(p.n)])
    combos = rank_masks(p, 0, 1 << p.nu * p.window_size)[:, None, :p.window_size]
    ranks = (combos << windows * p.nu).sum(2)
    return np.sort((ranks * p.n + np.arange(p.n)).ravel())


def _witness(p: Params, first: np.ndarray, units: np.ndarray) -> Strategy:
    """The per-class solution keyed by SideView, made only when a witness is
    asked for. A key's window masks come from its first state's rank, and
    its (server, versions) pairs from one table that every key shares."""
    everything = (1 << p.nu) - 1
    state, center = np.divmod(first, p.n)
    windows = np.array([ring_window(i, p.n, p.h) for i in range(p.n)])[center]
    pairs = [(j, frozenset(u for u in p.versions if m >> (u - 1) & 1))
             for j in range(p.n) for m in range(everything + 1)]
    index = windows << p.nu | ((state[:, None] >> windows * p.nu) & everything)
    return {SideView(i, tuple(map(pairs.__getitem__, row))):
            {u: s for u, s in enumerate(held, 1) if s > 0}
            for i, row, held in zip(center.tolist(), index.tolist(), units.tolist())}


def _is_int(x: object) -> bool:
    """An int or numpy integer; a bool is neither here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_allocation(alloc: Mapping[int, int], nu: int) -> None:
    """Refuse an allocation whose version ids are not integers in [1, nu] or
    whose symbol counts are not integers in [0, 2**31), which the int32
    units table holds."""
    if bad := [u for u in alloc if not _is_int(u)]:
        raise ValueError(f"allocation names version ids {bad}, not integers")
    if bad := [u for u in alloc if not 1 <= u <= nu]:
        raise ValueError(f"allocation names version ids {bad} outside [1, {nu}]")
    if bad := [s for s in alloc.values() if not _is_int(s) or not 0 <= s < 2**31]:
        raise ValueError(f"allocation names symbol counts {bad}, not integers in [0, 2**31)")


def strategy_feasible(p: Params, g: int, strategy: Mapping[SideView, Mapping[int, int]]) -> bool:
    """Brute-force decodability check of a fixed strategy, independent of
    the solver: every complete state, every read set, some fresh-enough
    version reaching g units. Views that no state of p has are ignored."""
    if g < 1:
        raise ValueError(f"granularity must be >= 1, got {g}")
    check_work(p, state_count(p))
    # a sentinel that sorts after every view code, whose row of units stays
    # zero for every view the strategy does not name, then the known views
    codes, rows = [np.iinfo(np.int64).max], [[0] * p.nu]
    for view, alloc in strategy.items():
        row = [0] * p.nu
        for u, s in alloc.items():
            if not (type(u) is int and 1 <= u <= p.nu and type(s) is int and 0 <= s < 2**31):
                _check_allocation(alloc, p.nu)
            row[u - 1] = s
        if (code := view_code(view, p)) is not None:
            codes.append(code)
            rows.append(row)
    order = np.argsort(codes := np.array(codes))
    codes, units = codes[order], np.array(rows, dtype=np.int32)[order]

    def holdings(masks: np.ndarray) -> np.ndarray:
        block = view_codes(masks, p)
        pos = np.searchsorted(codes, block)
        pos[codes[pos] != block] = len(codes) - 1
        return units[pos]

    return _no_short_state(p, g, holdings)


def strategy_worst_units(strategy: Mapping[SideView, Mapping[int, int]]) -> int:
    return max((sum(alloc.values()) for alloc in strategy.values()), default=0)


def oracle_min_cost(p: Params, g: int, max_g: int = 4) -> Fraction:
    """Cheapest worst-case per-server storage, in bits, over all strategies
    on the k_bits/g grid. Upper-bounds the true optimum of per-version MDS
    schemes at this granularity."""
    _check_budget(p, g, max_g)
    best, _, _ = _solve(p, g)
    return Fraction(best * p.k_bits, g)


def oracle_min_cost_with_witness(p: Params, g: int, max_g: int = 4
                                 ) -> tuple[Fraction, Strategy]:
    _check_budget(p, g, max_g)
    best, first, units = _solve(p, g)
    if first is None:  # the rounded strategy on every view class
        first = _first_views(p)
        state, center = np.divmod(first, p.n)
        units = _rounded(p, g, (state >> center * p.nu) & ((1 << p.nu) - 1))
    return Fraction(best * p.k_bits, g), _witness(p, first, units)
