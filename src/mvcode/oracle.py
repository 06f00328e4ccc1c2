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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil
from typing import Mapping

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import BudgetExceededError, SolverError
from .model import (Params, SideView, enumerate_states, latest_complete,
                    side_view, state_count, work_budget)
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
    if state_count(p) * len(read_sets(p)) > work_budget():
        raise BudgetExceededError("oracle instance exceeds the work budget")


def _solve(p: Params, g: int) -> tuple[int, Strategy]:
    """Minimum feasible worst-case total in symbol units, plus a witness."""
    reads = read_sets(p)

    class_ids: dict[SideView, int] = {}
    class_views: list[SideView] = []
    # variable ids for (class, version); only received versions get one
    avar: dict[tuple[int, int], int] = {}

    def class_of(view: SideView) -> int:
        if view not in class_ids:
            cid = len(class_views)
            class_ids[view] = cid
            class_views.append(view)
        return class_ids[view]

    # (sorted class-id tuple with multiplicity, latest) -> dedup decode constraints
    constraints: set[tuple[tuple[int, ...], int]] = set()
    for S in enumerate_states(p):
        latest = latest_complete(S, p)
        views = [class_of(side_view(S, i, p)) for i in range(p.n)]
        if latest is None:
            continue
        for T in reads:
            key = (tuple(sorted(views[t] for t in T)), latest)
            constraints.add(key)

    for cid, view in enumerate(class_views):
        for u in view.center_state:
            avar[(cid, u)] = 0  # placeholder, numbered below

    # variable layout: [B] [a...] [z...]
    a_index = {key: 1 + pos for pos, key in enumerate(sorted(avar))}
    n_a = len(a_index)
    z_base = 1 + n_a
    ordered = sorted(constraints)
    z_index: dict[tuple[int, int], int] = {}
    for ci, (classes, latest) in enumerate(ordered):
        for m in range(latest, p.nu + 1):
            z_index[(ci, m)] = z_base + len(z_index)
    n_vars = z_base + len(z_index)

    rows, cols, vals, lbs, ubs = [], [], [], [], []
    row = 0

    def add(entries: list[tuple[int, float]], lb: float, ub: float) -> None:
        nonlocal row
        for col, val in entries:
            rows.append(row)
            cols.append(col)
            vals.append(val)
        lbs.append(lb)
        ubs.append(ub)
        row += 1

    # per-class cap: sum_u a[class, u] - B <= 0
    for cid, view in enumerate(class_views):
        entries = [(a_index[(cid, u)], 1.0) for u in view.center_state]
        if entries:
            add(entries + [(0, -1.0)], -np.inf, 0.0)

    for ci, (classes, latest) in enumerate(ordered):
        cover = []
        for m in range(latest, p.nu + 1):
            z = z_index[(ci, m)]
            cover.append((z, 1.0))
            entries = [(z, -float(g))]
            for cid in set(classes):
                if (cid, m) in a_index:
                    entries.append((a_index[(cid, m)], float(classes.count(cid))))
            # sum_i a[class_i, m] >= g when z = 1
            add(entries, 0.0, np.inf)
        add(cover, 1.0, np.inf)

    A = sparse.csc_matrix((vals, (rows, cols)), shape=(row, n_vars))
    constraint = LinearConstraint(A, np.array(lbs), np.array(ubs))
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
    best = round(res.x[0])
    strategy: Strategy = {}
    for view, cid in class_ids.items():
        alloc = {u: round(res.x[a_index[(cid, u)]]) for u in view.center_state}
        strategy[view] = {u: s for u, s in alloc.items() if s > 0}
    return best, strategy


def strategy_feasible(p: Params, g: int, strategy: Mapping[SideView, Mapping[int, int]]) -> bool:
    """Brute-force decodability check of a fixed strategy, independent of
    the solver: every complete state, every read set, some fresh-enough
    version reaching g units."""
    complete = ((S, top) for S in enumerate_states(p)
                if (top := latest_complete(S, p)) is not None)
    while block := list(islice(complete, _BLOCK)):
        holdings = np.zeros((len(block), p.n, p.nu), dtype=np.int32)
        for b, (S, _) in enumerate(block):
            for i in range(p.n):
                for u, units in strategy.get(side_view(S, i, p), {}).items():
                    holdings[b, i, u - 1] = units
        latest = np.array([top for _, top in block])
        if short_states(holdings, latest, p, g).any():
            return False
    return True


def strategy_worst_units(strategy: Mapping[SideView, Mapping[int, int]]) -> int:
    return max((sum(alloc.values()) for alloc in strategy.values()), default=0)


def oracle_min_cost(p: Params, g: int, budget: OracleBudget = OracleBudget()) -> Fraction:
    """Cheapest worst-case per-server storage, in bits, over all strategies
    on the k_bits/g grid. Upper-bounds the true optimum of per-version MDS
    schemes at this granularity."""
    _check_budget(p, g, budget)
    best, _ = _solve(p, g)
    return Fraction(best * p.k_bits, g)


def oracle_min_cost_with_witness(p: Params, g: int,
                                 budget: OracleBudget = OracleBudget()
                                 ) -> tuple[Fraction, Strategy]:
    _check_budget(p, g, budget)
    best, strategy = _solve(p, g)
    return Fraction(best * p.k_bits, g), strategy
