"""Exact search for the cheapest side-view allocation strategy.

A strategy assigns to every (server id, side view) pair an allocation of
whole symbol units (multiples of k_bits/g) per received version. It is
feasible when every state with a complete version lets every read set
assemble g units of some version at or above the latest complete one:
the counting model of decodability for per-version MDS coding.

The minimum worst-case per-server total B is found with an integer
program: the decode requirement per (state, read set) is a disjunction
over candidate versions, linearized with one binary per candidate.
Optimality is proven in two steps. The LP relaxation of the model gives a
lower bound on B. The integer program is then solved with B capped at
that bound, rounded up; while HiGHS proves the capped problem infeasible,
the cap rises by one unit, up to nu*g. A cap never removes a strategy
cheaper than itself, so the first feasible capped solve returns the
global optimum whatever the LP tolerance: a cap set too high costs time,
one set too low costs an infeasible solve. The result equals what
exhaustive strategy enumeration would return, at desk scale where that
enumeration is intractable.

The model and the witness check run on arrays of state masks: each
(state, server) side view is one integer code (model.view_codes), and
SideView objects appear only as the keys of a witness or of a strategy
to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Mapping

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import BudgetExceededError, SolverError
from .allocation import block_latest
from .model import (Params, SideView, check_work, rank_masks, side_view, state_at,
                    state_count, view_code, view_codes)
from .verifier import read_sets, short_states

# instance limits of the exact search; only the granularity limit is per call
MAX_N = 5
MAX_NU = 2
# states strategy_feasible checks at once
_BLOCK = 1024


@dataclass(frozen=True)
class OracleBudget:
    max_g: int = 4


Strategy = dict[SideView, dict[int, int]]


def _check_budget(p: Params, g: int, budget: OracleBudget) -> None:
    if p.nu > MAX_NU:
        raise BudgetExceededError(f"oracle budget allows nu <= {MAX_NU}, got {p.nu}")
    if p.n > MAX_N:
        raise BudgetExceededError(f"oracle budget allows n <= {MAX_N}, got {p.n}")
    if g > budget.max_g:
        raise BudgetExceededError(f"oracle budget allows granularity <= {budget.max_g}, got {g}")
    if g < 1:
        raise ValueError(f"granularity must be >= 1, got {g}")
    check_work(state_count(p), len(read_sets(p)))


def _model(p: Params, g: int) -> tuple[sparse.csc_matrix, np.ndarray, np.ndarray, int,
                                      np.ndarray, np.ndarray]:
    """The integer program of (p, g): its constraint matrix with row bounds,
    the first z column, and per view class (numbered in order of first
    appearance, state by state, server by server) the flat position
    state * n + server of its first view and the column of a[class, u] for
    each version u, -1 where u is not received.

    Variables are [B] [a...] [z...]: a in class-then-version order, z in
    decode-key order, one per fresh-enough version. Rows are one cap per
    class that receives something, sum_u a[class, u] - B <= 0, then per
    decode key (the sorted classes of a read set, and the latest complete
    version) one row sum_t a[class_t, m] - g z[key, m] >= 0 per m in
    [latest, nu], and the cover row sum_m z[key, m] >= 1."""
    masks = rank_masks(p, 0, state_count(p))
    _, first, inverse = np.unique(view_codes(masks, p), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    class_of = np.empty_like(order)
    class_of[order] = np.arange(len(order))
    classes = class_of[inverse].reshape(masks.shape)
    first = first[order]  # flat (state, server) position of each class's first view
    received = (masks.reshape(-1)[first, None] >> np.arange(p.nu)) & 1 == 1
    a_cols = np.full(received.shape, -1)
    a_cols[received] = 1 + np.arange(received.sum())
    z_base = 1 + int(received.sum())

    latest = block_latest(masks, p)
    reads = np.array(read_sets(p))
    keys = np.sort(classes[latest > 0][:, reads], axis=2).reshape(-1, p.cr)
    keys = np.unique(np.column_stack([keys, np.repeat(latest[latest > 0], len(reads))]),
                     axis=0)
    sets, top = keys[:, :-1], keys[:, -1]
    span = p.nu + 1 - top  # z variables per key; the key's rows are span + 1
    z_first = z_base + np.cumsum(span) - span
    capped = np.flatnonzero(received.any(1))
    row_first = len(capped) + np.cumsum(span + 1) - (span + 1)
    n_rows = len(capped) + int((span + 1).sum())
    # a class repeated in a read set enters its row once, with its multiplicity
    lead = np.ones(sets.shape, dtype=bool)
    lead[:, 1:] = sets[:, 1:] != sets[:, :-1]
    mult = (sets[:, :, None] == sets[:, None, :]).sum(2)

    cap_row, cap_u = np.nonzero(received[capped])
    rows = [cap_row, np.arange(len(capped))]
    cols = [a_cols[capped[cap_row], cap_u], np.zeros(len(capped), dtype=np.int64)]
    vals = [np.ones(len(cap_row)), np.full(len(capped), -1.0)]
    for m in p.versions:
        key = np.flatnonzero(top <= m)
        row, z = row_first[key] + m - top[key], z_first[key] + m - top[key]
        k, t = np.nonzero(lead[key] & received[sets[key], m - 1])
        rows += [row, row[k], row_first[key] + span[key]]
        cols += [z, a_cols[sets[key][k, t], m - 1], z]
        vals += [np.full(len(key), -float(g)), mult[key][k, t].astype(float),
                 np.ones(len(key))]
    A = sparse.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n_rows, z_base + int(span.sum())))
    lb = np.zeros(n_rows)
    ub = np.full(n_rows, np.inf)
    lb[:len(capped)], ub[:len(capped)] = -np.inf, 0.0
    lb[row_first + span] = 1.0
    return A, lb, ub, z_base, first, a_cols


def _solve(p: Params, g: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Minimum feasible worst-case total in symbol units, plus the optimal
    strategy per view class: the first position of each class (as _model
    gives it) and its units of each version, 0 where not received."""
    A, lb, ub, z_base, first, a_cols = _model(p, g)
    n_vars = A.shape[1]
    constraint = LinearConstraint(A, lb, ub)
    lo = np.zeros(n_vars)
    hi = np.empty(n_vars)
    hi[1:z_base] = g
    hi[z_base:] = 1
    objective = np.zeros(n_vars)
    objective[0] = 1.0

    def solve(cap: int, integral: bool):
        hi[0] = cap
        res = milp(objective, constraints=constraint,
                   integrality=np.full(n_vars, float(integral)),
                   bounds=Bounds(lo, hi.copy()), options={"mip_rel_gap": 0.0})
        # status 2 (infeasible) is an answer only for a capped solve below nu*g
        if res.status != 0 and not (res.status == 2 and integral and cap < p.nu * g):
            raise SolverError(f"strategy search failed: {res.message}")
        return res

    # the relaxation's optimum is a lower bound on B; a cap at or above the
    # integer optimum keeps every cheapest strategy, so the first feasible
    # capped solve is optimal, and a cap below it is proven infeasible
    cap = ceil(solve(p.nu * g, False).fun - 1e-6)
    while (res := solve(cap, True)).status == 2:
        cap += 1
    units = np.where(a_cols >= 0, np.rint(res.x[a_cols]), 0).astype(int)
    return round(res.x[0]), first, units


def _witness(p: Params, first: np.ndarray, units: np.ndarray) -> Strategy:
    """The per-class solution keyed by SideView: one state_at and side_view
    per view class, made only when a witness is asked for."""
    return {side_view(state_at(p, b), i, p): {u: s for u, s in enumerate(held, 1) if s > 0}
            for (b, i), held in zip((divmod(f, p.n) for f in first.tolist()), units.tolist())}


def strategy_feasible(p: Params, g: int, strategy: Mapping[SideView, Mapping[int, int]]) -> bool:
    """Brute-force decodability check of a fixed strategy, independent of
    the solver: every complete state, every read set, some fresh-enough
    version reaching g units. Views that no state of p has are ignored."""
    if g < 1:
        raise ValueError(f"granularity must be >= 1, got {g}")
    total = state_count(p)
    check_work(total, len(read_sets(p)))
    coded: dict[int, Mapping[int, int]] = {}
    for view, alloc in strategy.items():
        bad = [u for u in alloc if not 1 <= u <= p.nu]
        if bad:
            raise ValueError(f"allocation names version ids {bad} outside [1, {p.nu}]")
        if (code := view_code(view, p)) is not None:
            coded[code] = alloc
    # known views in code order, then a sentinel no view code reaches, whose
    # row of units stays zero for every view the strategy does not name
    codes = np.array(sorted(coded) + [np.iinfo(np.int64).max])
    units = np.zeros((len(codes), p.nu), dtype=np.int32)
    for row, code in enumerate(codes[:-1].tolist()):
        for u, s in coded[code].items():
            units[row, u - 1] = s
    for lo in range(0, total, _BLOCK):
        masks = rank_masks(p, lo, min(lo + _BLOCK, total))
        block = view_codes(masks, p)
        pos = np.searchsorted(codes, block)
        pos[codes[pos] != block] = len(codes) - 1
        if short_states(units[pos], block_latest(masks, p), p, g).any():
            return False
    return True


def strategy_worst_units(strategy: Mapping[SideView, Mapping[int, int]]) -> int:
    return max((sum(alloc.values()) for alloc in strategy.values()), default=0)


def oracle_min_cost(p: Params, g: int, budget: OracleBudget = OracleBudget()) -> Fraction:
    """Cheapest worst-case per-server storage, in bits, over all strategies
    on the k_bits/g grid. Upper-bounds the true optimum of per-version MDS
    schemes at this granularity."""
    _check_budget(p, g, budget)
    best, _, _ = _solve(p, g)
    return Fraction(best * p.k_bits, g)


def oracle_min_cost_with_witness(p: Params, g: int,
                                 budget: OracleBudget = OracleBudget()
                                 ) -> tuple[Fraction, Strategy]:
    _check_budget(p, g, budget)
    best, first, units = _solve(p, g)
    return Fraction(best * p.k_bits, g), _witness(p, first, units)
