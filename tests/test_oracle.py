"""Strategy-search oracle: known values, feasibility witnesses, monotonicity,
the rounded-strategy certificate against its per-state reference and an
exhaustive census at n <= 4, the symmetric solve sequence (oracle._search)
against the full-model search and a single uncapped solve, the paper's two
claims at n=6 and n=7, and the array model build and witness check against
their per-state references."""

import random
import re
from fractions import Fraction
from functools import cache
from math import ceil

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

import mvcode.oracle
from mvcode import (BudgetExceededError, Params, Scheme, VerifyMode,
                    allocation_for, check_state_counting, latest_complete,
                    oracle_min_cost, scheme_granularity, side_view, verify)
from mvcode.bounds import cost_baseline, cost_c1, lb_thm4
from mvcode.model import (SideView, dihedral_generators, rank_masks, state_at, state_count,
                          view_classes, view_orbits)
from mvcode.oracle import (oracle_min_cost_with_witness, strategy_feasible,
                           strategy_worst_units)
from mvcode.verifier import read_sets, short_states
from helpers import all_states, certified, reference_orbits, witness_reference

K = 1024


@cache
def reference_model(p, g):
    """The readable reference of oracle._model over view classes: one
    SideView per (state, server), hashed into classes; the array build must
    return exactly this. Built once per instance."""
    reads = read_sets(p)

    class_ids = {}
    class_views = []
    class_first = []  # flat (state, server) position of each class's first view
    # variable ids for (class, version); only received versions get one
    avar = {}

    def class_of(view, position):
        if view not in class_ids:
            cid = len(class_views)
            class_ids[view] = cid
            class_views.append(view)
            class_first.append(position)
        return class_ids[view]

    # (sorted class-id tuple with multiplicity, latest) -> dedup decode constraints
    constraints = set()
    for b, S in enumerate(all_states(p)):
        latest = latest_complete(S, p)
        views = [class_of(side_view(S, i, p), b * p.n + i) for i in range(p.n)]
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
    z_index = {}
    for ci, (classes, latest) in enumerate(ordered):
        for m in range(latest, p.nu + 1):
            z_index[(ci, m)] = z_base + len(z_index)
    n_vars = z_base + len(z_index)

    rows, cols, vals, lbs, ubs = [], [], [], [], []
    row = 0

    def add(entries, lb, ub):
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
    a_cols = np.array([[a_index.get((cid, u), -1) for u in p.versions]
                       for cid in range(len(class_views))]).reshape(-1, p.nu)
    return A, np.array(lbs), np.array(ubs), z_base, np.array(class_first), a_cols


def full_solve(p, g, model, cap, integral):
    """One solve of a reference_model with B at most cap, as the oracle
    boxes it: a in [0, g], z in [0, 1]."""
    A, lb, ub, z_base, _, _ = model
    n_vars = A.shape[1]
    hi = np.ones(n_vars)
    hi[0], hi[1:z_base] = cap, g
    return milp(full_solve_objective(n_vars), constraints=LinearConstraint(A, lb, ub),
                integrality=np.full(n_vars, float(integral)),
                bounds=Bounds(np.zeros(n_vars), hi), options={"mip_rel_gap": 0.0})


def reference_solve(p, g):
    """The reference of the symmetric proof, on the full model alone: the LP
    relaxation's optimum, rounded up, then capped integer solves rising by
    one unit until one is feasible. Returns the LP optimum and the optimum
    in units."""
    model = reference_model(p, g)
    lp = full_solve(p, g, model, p.nu * g, False).fun
    cap = ceil(lp - 1e-6)
    while (res := full_solve(p, g, model, cap, True)).status == 2:
        cap += 1
    assert res.status == 0
    return lp, round(res.x[0])


def full_solve_objective(n_vars):
    """min B: the objective of every solve."""
    objective = np.zeros(n_vars)
    objective[0] = 1.0
    return objective


def split_solves(solves):
    """The oracle's solves as (the rising capped invariant solves up to the
    first feasible one, the closing full solves)."""
    feasible = next(k for k, (_, _, res) in enumerate(solves) if res.status == 0)
    return solves[:feasible + 1], solves[feasible + 1:]


def full_information_units(p, g):
    """The oracle's lower bound in units: ceil(g/c), the centralized cost."""
    return -(-g // p.c)


def reference_feasible(p, g, strategy):
    """The readable reference of strategy_feasible: every complete state's
    holdings looked up through its per-server side views."""
    complete = [(S, top) for S in all_states(p)
                if (top := latest_complete(S, p)) is not None]
    holdings = np.zeros((len(complete), p.n, p.nu), dtype=np.int32)
    for b, (S, _) in enumerate(complete):
        for i in range(p.n):
            for u, units in strategy.get(side_view(S, i, p), {}).items():
                holdings[b, i, u - 1] = units
    latest = np.array([top for _, top in complete], dtype=np.int32)
    return not short_states(holdings, latest, p, g).any()


def search(p, g):
    """The oracle's integer-program search (oracle._search), run whether or
    not the rounded strategy settles the instance: the optimum in units and
    its witness."""
    masks = rank_masks(p, 0, state_count(p))
    best, first, units = mvcode.oracle._search(p, g, masks, *view_classes(masks, p))
    return best, mvcode.oracle._witness(p, first, units)


def rounded_strategy(p, g):
    """The readable reference of the oracle's rounded strategy: every
    SideView of p stores ceil(g/c) units of the newest version its center
    received, and a view with an empty center stores nothing."""
    return {side_view(S, i, p): {max(S[i]): full_information_units(p, g)}
            for S in all_states(p) for i in range(p.n) if S[i]}


def params(h, nu=2, n=4):
    return Params(n=n, cw=n, cr=n, nu=nu, h=h, k_bits=K)


class TestKnownValues:
    def test_single_version_needs_exactly_one_share(self):
        for h in (0, 2):
            assert oracle_min_cost(params(h, nu=1), 4) == Fraction(K, 4)

    def test_full_information_matches_the_central_cost(self):
        assert oracle_min_cost(params(h=2), 4) == Fraction(K, 4)

    def test_no_sharing_on_the_quarter_grid(self):
        # the only grid points at or above the converse are K/2, 3K/4, ...;
        # K/2 is achievable, so the search must land exactly there
        assert oracle_min_cost(params(h=0), 4) == Fraction(K, 2)

    def test_no_sharing_on_the_twelfth_grid(self):
        value = oracle_min_cost(params(h=0), 12, max_g=12)
        assert value == Fraction(5 * K, 12)


class TestWitnesses:
    @pytest.mark.parametrize("h,g,max_g", [(0, 4, 4), (1, 4, 4), (0, 12, 12)])
    def test_witness_strategy_is_feasible_by_brute_force(self, h, g, max_g):
        p = params(h)
        value, strategy = oracle_min_cost_with_witness(p, g, max_g=max_g)
        assert strategy_feasible(p, g, strategy)
        assert Fraction(strategy_worst_units(strategy) * K, g) == value

    def test_received_only_in_witnesses(self):
        _, strategy = oracle_min_cost_with_witness(params(h=1), 4)
        for view, alloc in strategy.items():
            assert set(alloc) <= set(view.center_state)

    def test_infeasible_strategy_is_rejected(self):
        p = params(h=0)
        assert not strategy_feasible(p, 4, {})


class TestMonotonicity:
    def test_more_visibility_never_costs_more(self):
        for g, max_g in ((4, 4), (12, 12)):
            values = [oracle_min_cost(params(h), g, max_g=max_g) for h in (0, 1, 2)]
            assert values[0] >= values[1] >= values[2]

    def test_finer_grid_never_costs_more(self):
        p = params(h=0)
        v4 = oracle_min_cost(p, 4)
        v12 = oracle_min_cost(p, 12, max_g=12)
        assert v12 <= v4


class TestBudget:
    def test_granularity_budget(self):
        with pytest.raises(BudgetExceededError):
            oracle_min_cost(params(h=0), 5)

    def test_size_budgets(self):
        with pytest.raises(BudgetExceededError):
            oracle_min_cost(Params(n=7, cw=7, cr=7, nu=2, h=0, k_bits=K), 4)
        with pytest.raises(BudgetExceededError):
            oracle_min_cost(params(h=0, nu=3, n=4), 4)

    def test_work_budget_message_is_shared(self, monkeypatch):
        # 256 states x 4 read sets is one unit over the budget everywhere
        p = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=K)
        monkeypatch.setenv("MVCODE_BUDGET", "1023")
        expected = "256 states x 4 read sets exceeds budget 1023; set MVCODE_BUDGET to override"
        for run in (lambda: verify(Scheme.C1, p, VerifyMode.exhaustive()),
                    lambda: oracle_min_cost(p, 4),
                    lambda: strategy_feasible(p, 4, {})):
            with pytest.raises(BudgetExceededError) as raised:
                run()
            assert str(raised.value) == expected
        monkeypatch.setenv("MVCODE_BUDGET", "1024")
        assert strategy_feasible(p, 4, scheme_strategy(Scheme.C1, p))


class TestSharedCountingRule:
    """strategy_feasible and check_state_counting apply one decodability rule:
    fed the same side-view strategy, they must reach the same verdict."""

    P6 = Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=K)

    def scheme_strategy(self, scheme):
        strategy = {}
        for S in all_states(self.P6):
            for i in range(self.P6.n):
                strategy[side_view(S, i, self.P6)] = allocation_for(scheme, S, i, self.P6)
        return strategy

    def counting_passes(self, scheme, strategy):
        for S in all_states(self.P6):
            allocs = [strategy.get(side_view(S, i, self.P6), {}) for i in range(self.P6.n)]
            if check_state_counting(scheme, S, self.P6, allocs) is not None:
                return False
        return True

    def agree(self, scheme, strategy):
        denom = scheme_granularity(scheme, self.P6)
        feasible = strategy_feasible(self.P6, denom, strategy)
        assert feasible == self.counting_passes(scheme, strategy)
        return feasible

    @pytest.mark.parametrize("scheme", [Scheme.C1, Scheme.C2])
    def test_scheme_strategy_is_feasible_under_both(self, scheme):
        assert self.agree(scheme, self.scheme_strategy(scheme))

    @pytest.mark.parametrize("scheme", [Scheme.C1, Scheme.C2])
    def test_short_allocation_fails_both(self, scheme):
        strategy = self.scheme_strategy(scheme)
        # every server holding version 2 keeps one symbol less of it
        short = {view: {u: s - (u == 2) for u, s in alloc.items()}
                 for view, alloc in strategy.items()}
        assert not self.agree(scheme, short)

    def test_one_symbol_short_at_a_tight_read_set_fails_both(self):
        # c1's budget is tight: some read set has exactly one fresh version
        # at exactly the threshold. Take one of its symbols away. (c2 keeps
        # slack at n=6, so it has no such read set.)
        scheme = Scheme.C1
        strategy = self.scheme_strategy(scheme)
        denom = scheme_granularity(scheme, self.P6)
        for S in all_states(self.P6):
            latest = latest_complete(S, self.P6)
            if latest is None:
                continue
            views = [side_view(S, i, self.P6) for i in range(self.P6.n)]
            for T in read_sets(self.P6):
                totals = {m: sum(strategy[views[t]].get(m, 0) for t in T)
                          for m in range(latest, self.P6.nu + 1)}
                reach = [m for m, total in totals.items() if total >= denom]
                if len(reach) == 1 and totals[reach[0]] == denom:
                    m = reach[0]
                    view = next(views[t] for t in T if strategy[views[t]].get(m, 0))
                    cut = {**strategy[view], m: strategy[view][m] - 1}
                    assert not self.agree(scheme, {**strategy, view: cut})
                    return
        pytest.fail("no read set meets the threshold exactly")


def _sweep():
    """Seeded instances with n <= 5 and G <= 4, plus one whose cap must rise:
    its relaxation bound is 2 units, its optimum 3."""
    rng = random.Random(8)
    cases = [(Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=K), 4)]
    while len(cases) < 12:
        n = rng.randint(2, 5)
        cw = rng.randint(1, n)
        p = Params(n=n, cw=cw, cr=rng.randint(n - cw + 1, n), nu=rng.randint(1, 2),
                   h=rng.randint(0, 2), k_bits=K)
        cases.append((p, rng.randint(1, 4)))
    return cases


SWEEP = _sweep()


@pytest.fixture
def solves(monkeypatch):
    """Every call the oracle makes to milp, as (args, kwargs, result)."""
    calls = []

    def record(*args, **kwargs):
        res = milp(*args, **kwargs)
        calls.append((args, kwargs, res))
        return res

    monkeypatch.setattr(mvcode.oracle, "milp", record)
    return calls


@pytest.mark.parametrize("p,g", SWEEP, ids=[f"n{p.n}cw{p.cw}cr{p.cr}nu{p.nu}h{p.h}G{g}"
                                             for p, g in SWEEP])
class TestCappedSolve:
    def test_matches_one_uncapped_solve(self, p, g, solves):
        best, strategy = search(p, g)
        value = Fraction(best * K, g)
        # the first call caps B at the full-information bound; one uncapped
        # integer solve of the full model agrees with the oracle's answer
        assert solves[0][1]["bounds"].ub[0] == full_information_units(p, g)
        uncapped = full_solve(p, g, reference_model(p, g), p.nu * g, True)
        assert uncapped.status == 0
        assert value == oracle_min_cost(p, g) == Fraction(round(uncapped.fun) * K, g)
        assert strategy_feasible(p, g, strategy)
        assert Fraction(strategy_worst_units(strategy) * K, g) == value

    def test_relaxation_then_rising_caps(self, p, g, solves):
        # no relaxation is solved: invariant caps rise from the closed-form
        # bound, which is the relaxation's optimum rounded up, by one unit to
        # the first feasible one, inv, then one full solve capped at inv - 1
        # exactly when inv is above the bound
        best, _ = search(p, g)
        rising, closing = split_solves(solves)
        assert all(kwargs["integrality"].all() for _, kwargs, _ in rising + closing)
        invariant = rising[0][1]["constraints"].A.shape
        assert all(kwargs["constraints"].A.shape == invariant for _, kwargs, _ in rising)
        caps = [kwargs["bounds"].ub[0] for _, kwargs, _ in rising]
        start = full_information_units(p, g)
        assert caps == list(range(start, start + len(caps)))
        inv = round(rising[-1][2].x[0])
        assert inv == caps[-1]
        assert len(closing) == (inv > start)
        if not closing:
            assert best == inv
        for _, kwargs, res in closing:
            assert kwargs["bounds"].ub[0] == inv - 1
            assert kwargs["constraints"].A.shape == reference_model(p, g)[0].shape
            assert best == (inv if res.status == 2 else round(res.x[0]))


def test_cap_below_the_optimum_rises_by_one(solves):
    # the rounded strategy is short, so the search runs: the invariant caps
    # rise from the bound, G/c = 2, to 3; one full solve capped at 2 is
    # infeasible, which proves 3 optimal
    p, g = SWEEP[0]
    assert not certified(p, g)
    assert oracle_min_cost(p, g) == Fraction(3 * K, g)
    assert full_information_units(p, g) == 2
    assert [(kw["bounds"].ub[0], res.status) for _, kw, res in solves] == [
        (2, 2), (3, 0), (2, 2)]
    assert solves[-1][1]["constraints"].A.shape == reference_model(p, g)[0].shape


def test_side_information_beats_the_baseline_at_n6():
    # the paper's regime: n=6, c=4, h=2 shows each server n-2 others.
    # c1's (c+2)K/c^2 = 3K/8 is optimal on the K/8 grid, and strictly below
    # the cost without side information, 5K/12
    p = Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=K)
    value, strategy = oracle_min_cost_with_witness(p, 8, max_g=8)
    assert value == cost_c1(K, p.c) == Fraction(3 * K, 8)
    assert value < cost_baseline(K, p.nu, p.c) == Fraction(5 * K, 12)
    assert strategy_feasible(p, 8, strategy)
    assert Fraction(strategy_worst_units(strategy) * K, 8) == value


def test_a_finer_grid_undercuts_c1_at_n6(solves):
    # the same instance on the K/24 grid costs K/3, below c1's 3K/8: the
    # cheapest dihedral-invariant strategy stores 9 units, as c1 does, and
    # the closing full solve, capped at 8, finds a strategy that stores 8
    p = Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=K)
    value, strategy = oracle_min_cost_with_witness(p, 24, max_g=24)
    assert value == Fraction(K, 3) < cost_c1(K, p.c)
    assert [(kw["bounds"].ub[0], res.status) for _, kw, res in solves] == [
        (6, 2), (7, 2), (8, 2), (9, 0), (8, 0)]
    assert strategy_feasible(p, 24, strategy)
    assert strategy_worst_units(strategy) == 8


P6 = Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=K)
MODEL_CASES = SWEEP + [(P6, 8)]


@pytest.mark.parametrize("p,g", MODEL_CASES, ids=[f"n{p.n}cw{p.cw}cr{p.cr}nu{p.nu}h{p.h}G{g}"
                                                   for p, g in MODEL_CASES])
def test_array_model_equals_the_side_view_reference(p, g, solves):
    masks = rank_masks(p, 0, state_count(p))
    classes, first = view_classes(masks, p)
    A, lb, ub, z_base, a_cols = mvcode.oracle._model(p, g, masks, classes, first)
    A_ref, lb_ref, ub_ref, z_base_ref, first_ref, a_cols_ref = reference_model(p, g)
    assert A.shape == A_ref.shape and (A != A_ref).nnz == 0
    assert np.array_equal(lb, lb_ref) and np.array_equal(ub, ub_ref)
    assert z_base == z_base_ref and np.array_equal(first, first_ref)
    assert np.array_equal(a_cols, a_cols_ref)

    _, witness = search(p, g)
    assert list(witness) == [side_view(state_at(p, f // p.n), f % p.n, p)
                             for f in first_ref.tolist()]
    # a closing solve is the reference model's, call for call: objective,
    # matrix, row and variable bounds, integrality
    _, closing = split_solves(solves)
    for (c,), kw, _ in closing:
        assert np.array_equal(c, full_solve_objective(A_ref.shape[1]))
        con = kw["constraints"]
        assert con.A.shape == A_ref.shape and (con.A != A_ref).nnz == 0
        assert np.array_equal(con.lb, lb_ref) and np.array_equal(con.ub, ub_ref)
        assert kw["integrality"].all()
        assert np.array_equal(kw["bounds"].lb, np.zeros(A_ref.shape[1]))
        assert np.array_equal(kw["bounds"].ub[1:], np.repeat(
            [g, 1], [z_base_ref - 1, A_ref.shape[1] - z_base_ref]))
    assert strategy_feasible(p, g, witness) == reference_feasible(p, g, witness) is True


@pytest.mark.parametrize("p,g", MODEL_CASES, ids=[f"n{p.n}cw{p.cw}cr{p.cr}nu{p.nu}h{p.h}G{g}"
                                                   for p, g in MODEL_CASES])
def test_symmetric_solve_matches_the_full_reference(p, g, solves):
    # the full model's LP relaxation is exactly the full-information cost
    # G/c, so the search solves none: its first call is the invariant integer
    # program capped at ceil(G/c). The proof ends at the full search's
    # optimum with a witness both checks accept, one key per view class, and
    # the oracle's answer is the search's
    best_units, witness = search(p, g)
    value = Fraction(best_units * K, g)
    lp, best = reference_solve(p, g)
    assert lp == pytest.approx(g / p.c, abs=1e-9)
    masks = rank_masks(p, 0, state_count(p))
    invariant = mvcode.oracle._model(p, g, masks, *view_orbits(masks, p))[0]
    first = solves[0][1]
    assert first["integrality"].all()
    assert first["bounds"].ub[0] == full_information_units(p, g)
    assert (first["constraints"].A != invariant).nnz == 0
    assert value == Fraction(best * K, g)
    assert Fraction(strategy_worst_units(witness) * K, g) == value
    assert strategy_feasible(p, g, witness) and reference_feasible(p, g, witness)
    assert len(witness) == len(reference_model(p, g)[-1])
    assert oracle_min_cost(p, g, max_g=g) == value


@pytest.mark.parametrize("p,g", MODEL_CASES, ids=[f"n{p.n}cw{p.cw}cr{p.cr}nu{p.nu}h{p.h}G{g}"
                                                   for p, g in MODEL_CASES])
def test_invariant_model_equals_the_one_from_searched_orbits(p, g):
    # the closed-form orbit labels build the model the orbit search does
    masks = rank_masks(p, 0, state_count(p))
    classes, _ = view_classes(masks, p)
    searched = reference_orbits(p, dihedral_generators(p))[classes]
    A, lb, ub = mvcode.oracle._model(p, g, masks, *view_orbits(masks, p))[:3]
    A_ref, lb_ref, ub_ref = mvcode.oracle._model(
        p, g, masks, searched, np.unique(searched, return_index=True)[1])[:3]
    assert A.shape == A_ref.shape and (A != A_ref).nnz == 0
    assert np.array_equal(lb, lb_ref) and np.array_equal(ub, ub_ref)


def test_side_information_may_not_help_at_n7(solves, monkeypatch):
    # Theorem 4's regime h <= (n-c)/4: at n=7, cw=cr=5 (c=3), h=1 a server
    # sees (n-3)/2 = 2 others, and the exact optimum is K/2, both the
    # converse's bound and the cost without side information. The rounded
    # strategy meets the bound G/c = 2 on every state, so the oracle solves
    # nothing. The search's invariant optimum meets the bound too, so one
    # solve proves it there, and the full model (337,113 rows) is never built
    monkeypatch.setattr(mvcode.oracle, "MAX_N", 7)
    p = Params(n=7, cw=5, cr=5, nu=2, h=1, k_bits=K)
    value = oracle_min_cost(p, 4)
    assert value == lb_thm4(K, p.c) == cost_baseline(K, p.nu, p.c) == Fraction(K, 2)
    assert solves == []
    assert Fraction(search(p, 4)[0] * K, 4) == value
    assert len(solves) == 1
    assert solves[0][1]["constraints"].A.shape == (17733, 10491)


def test_closing_solve_undercuts_the_invariant_optimum(solves):
    # n=6, cw=cr=6, h=1: the rounded strategy is short, the cheapest
    # dihedral-invariant strategy stores 2 units, and a strategy that tells
    # rotations apart stores 1; the closing full solve finds it, and the
    # witness comes from the full model
    p = Params(n=6, cw=6, cr=6, nu=2, h=1, k_bits=K)
    assert not certified(p, 4)
    value, witness = oracle_min_cost_with_witness(p, 4)
    assert value == Fraction(K, 4)
    assert [(kw["bounds"].ub[0], res.status) for _, kw, res in solves] == [
        (1, 2), (2, 0), (1, 0)]
    assert strategy_feasible(p, 4, witness) and reference_feasible(p, 4, witness)
    assert strategy_worst_units(witness) == 1


# which MODEL_CASES the rounded strategy settles: every SWEEP instance but
# SWEEP[0] (optimum 3 > bound 2), SWEEP[9] and SWEEP[11], and not P6 at G=8
# (optimum 3 > bound 2)
ROUNDED_FEASIBLE = [False, True, True, True, True, True, True, True, True, False, True, False,
                    False]
SETTLED = [case for case, settled in zip(MODEL_CASES, ROUNDED_FEASIBLE) if settled]


def test_the_certificate_accepts_exactly_the_feasible_rounded_strategies():
    assert [reference_feasible(p, g, rounded_strategy(p, g))
            for p, g in MODEL_CASES] == ROUNDED_FEASIBLE
    assert [certified(p, g) for p, g in MODEL_CASES] == ROUNDED_FEASIBLE


@pytest.mark.parametrize("p,g", SETTLED, ids=[f"n{p.n}cw{p.cw}cr{p.cr}nu{p.nu}h{p.h}G{g}"
                                               for p, g in SETTLED])
def test_a_certified_instance_builds_and_solves_nothing(p, g, solves, monkeypatch):
    # the rounded strategy costs the bound ceil(G/c) and no state is short,
    # so it is the witness: one key per view class, the side view of its
    # first position, holding the rounded units
    def unreachable(*args):
        raise AssertionError("a certified instance builds no model")

    monkeypatch.setattr(mvcode.oracle, "_model", unreachable)
    monkeypatch.setattr(mvcode.oracle, "view_orbits", unreachable)
    value, witness = oracle_min_cost_with_witness(p, g)
    assert oracle_min_cost(p, g) == value == Fraction(full_information_units(p, g) * K, g)
    assert solves == []
    _, first = view_classes(rank_masks(p, 0, state_count(p)), p)
    assert list(witness) == [side_view(state_at(p, f // p.n), f % p.n, p) for f in first.tolist()]
    rounded = rounded_strategy(p, g)
    assert witness == {view: rounded.get(view, {}) for view in witness}
    assert strategy_feasible(p, g, witness) and reference_feasible(p, g, witness)
    assert Fraction(strategy_worst_units(witness) * K, g) == value


def test_the_certificate_stops_at_the_first_short_block(monkeypatch):
    # SWEEP[0] in blocks of 16 states: every block read before the last has
    # no short state, and the last has one, before the final block
    p, g = SWEEP[0]
    verdicts = []

    def recorded(*args):
        short = short_states(*args)
        verdicts.append(bool(short.any()))
        return short

    monkeypatch.setattr(mvcode.model, "BLOCK", 16)
    monkeypatch.setattr(mvcode.oracle, "short_states", recorded)
    assert not certified(p, g)
    assert verdicts == [False] * (len(verdicts) - 1) + [True]
    assert len(verdicts) < state_count(p) // 16


def _census(max_n):
    """Every instance with n <= max_n, nu <= 2, G <= 4 and h <= (n-1)/2, at
    every cw and cr."""
    return [(Params(n=n, cw=cw, cr=cr, nu=nu, h=h, k_bits=K), g)
            for n in range(1, max_n + 1) for cw in range(1, n + 1)
            for cr in range(n - cw + 1, n + 1) for nu in (1, 2)
            for h in range((n - 1) // 2 + 1) for g in range(1, 5)]


CENSUS = _census(4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_the_certificate_fires_exactly_where_the_rounded_strategy_holds(
        n, solves, monkeypatch):
    # every census instance at this n, in blocks of 16 states so that the
    # check reads up to 16 of them: the public call solves nothing exactly
    # when the reference accepts the rounded strategy, and its value is the
    # search's
    monkeypatch.setattr(mvcode.model, "BLOCK", 16)
    cases = [(p, g) for p, g in CENSUS if p.n == n]
    assert len(cases) == [8, 24, 96, 160][n - 1]
    for p, g in cases:
        solves.clear()
        value = oracle_min_cost(p, g)
        fired = not solves
        assert fired == reference_feasible(p, g, rounded_strategy(p, g)), (p, g)
        best, _ = search(p, g)
        assert value == Fraction(best * K, g), (p, g)
        assert not fired or best == full_information_units(p, g), (p, g)


@pytest.mark.parametrize("n,nu", [(n, nu) for n in range(1, 8) for nu in (1, 2)
                                  if nu * n <= 14])
def test_first_views_in_closed_form(n, nu):
    # every instance with at most 2**14 states: a view's first state holds
    # its window masks and nothing elsewhere, so the positions need no labels
    for h in range(4):
        p = Params(n=n, cw=n, cr=n, nu=nu, h=h, k_bits=K)
        _, first = view_classes(rank_masks(p, 0, state_count(p)), p)
        for cw in range(1, n + 1):
            q = Params(n=n, cw=cw, cr=n, nu=nu, h=h, k_bits=K)
            assert np.array_equal(mvcode.oracle._first_views(q), first), (q,)


def reference_witness(p, g):
    """The witness as the oracle made it with labels: view_classes' first
    positions, the rounded units of their centers when the certificate holds
    and the search's strategy otherwise, keyed through side_view(state_at)."""
    masks = rank_masks(p, 0, state_count(p))
    classes, first = view_classes(masks, p)
    if certified(p, g):
        return witness_reference(p, first, mvcode.oracle._rounded(p, g, masks.ravel()[first]))
    _, first, units = mvcode.oracle._search(p, g, masks, classes, first)
    return witness_reference(p, first, units)


@pytest.mark.parametrize("p,g", MODEL_CASES, ids=[f"n{p.n}cw{p.cw}cr{p.cr}nu{p.nu}h{p.h}G{g}"
                                                   for p, g in MODEL_CASES])
def test_witness_keys_equal_the_side_view_reference(p, g):
    # the same keys in the same order, each with the same allocation
    _, witness = oracle_min_cost_with_witness(p, g, max_g=g)
    assert list(witness.items()) == list(reference_witness(p, g).items())


def test_census_witnesses_equal_the_side_view_reference():
    cases = [(p, g) for p, g in CENSUS if certified(p, g)]
    assert len(cases) > len(CENSUS) // 2
    for p, g in cases:
        _, witness = oracle_min_cost_with_witness(p, g)
        assert list(witness.items()) == list(reference_witness(p, g).items()), (p, g)


def test_a_certified_oracle_labels_no_view(monkeypatch):
    # the oracle-n5 instance is certified: neither the value nor the witness
    # labels a view; SWEEP[0] is not, and labels every view once
    calls = []

    def counted(*args):
        calls.append(args)
        return view_classes(*args)

    monkeypatch.setattr(mvcode.oracle, "view_classes", counted)
    p = Params(n=5, cw=4, cr=4, nu=2, h=1, k_bits=K)
    assert oracle_min_cost(p, 4) == 512 and calls == []
    assert len(oracle_min_cost_with_witness(p, 4)[1]) == 320 and calls == []
    assert oracle_min_cost(*SWEEP[0]) and len(calls) == 1


def scheme_strategy(scheme, p):
    return {side_view(S, i, p): allocation_for(scheme, S, i, p)
            for S in all_states(p) for i in range(p.n)}


class TestStrategyFeasibleAgainstReference:
    """strategy_feasible looks views up by code; the reference hashes a
    SideView per (state, server). Both must give one verdict."""

    def agree(self, p, g, strategy):
        verdict = strategy_feasible(p, g, strategy)
        assert verdict == reference_feasible(p, g, strategy)
        return verdict

    @pytest.mark.parametrize("scheme", [Scheme.C1, Scheme.C2])
    def test_scheme_strategies_and_one_unit_cuts(self, scheme):
        strategy = scheme_strategy(scheme, P6)
        g = scheme_granularity(scheme, P6)
        assert self.agree(P6, g, strategy)
        rng = random.Random(9)
        held = [(view, u) for view, alloc in strategy.items() for u, s in alloc.items() if s]
        verdicts = set()
        for view, u in rng.sample(held, 12):
            cut = {**strategy[view], u: strategy[view][u] - 1}
            verdicts.add(self.agree(P6, g, {**strategy, view: cut}))
        # c1's budget is tight, so some cuts break it; c2 keeps slack at n=6
        assert (False in verdicts) == (scheme is Scheme.C1)

    def test_empty_strategy(self):
        for p, g in MODEL_CASES[:4] + [(P6, 8)]:
            self.agree(p, g, {})
        assert not strategy_feasible(P6, 8, {})

    def test_views_of_a_foreign_window_never_match(self):
        # a strategy built for h=1 (windows of 3) and h=3 (all 6 servers)
        # names no view of h=2, however much it stores
        g = scheme_granularity(Scheme.C1, P6)
        generous = {side_view(S, i, foreign): {u: g for u in S[i]}
                    for foreign in (Params(6, 5, 5, 2, 1, K), Params(6, 5, 5, 2, 3, K))
                    for S in all_states(foreign) for i in range(foreign.n)}
        # a view whose window lists the right servers but for another center
        shifted = {SideView(center=(view.center + 1) % P6.n, window=view.window): {1: g, 2: g}
                   for view in scheme_strategy(Scheme.C1, P6)}
        assert not self.agree(P6, g, generous)
        assert not self.agree(P6, g, shifted)
        strategy = scheme_strategy(Scheme.C1, P6)
        assert self.agree(P6, g, {**generous, **shifted, **strategy})
        short = {view: {u: s - (u == 2) for u, s in alloc.items()}
                 for view, alloc in strategy.items()}
        assert not self.agree(P6, g, {**generous, **shifted, **short})


class TestStrategyFeasibleRejectsBadInput:
    @pytest.fixture(scope="class")
    def witness(self):
        return oracle_min_cost_with_witness(params(h=1), 4)[1]

    def test_granularity_below_one(self):
        with pytest.raises(ValueError, match="granularity must be >= 1, got 0"):
            strategy_feasible(params(h=1), 0, {})

    @pytest.mark.parametrize("bad", [0, 3, -1])
    def test_version_outside_the_range(self, witness, bad):
        relabelled = {view: {bad if u == 2 else u: s for u, s in alloc.items()}
                      for view, alloc in witness.items()}
        assert any(bad in alloc for alloc in relabelled.values())
        with pytest.raises(ValueError, match="outside \\[1, 2\\]"):
            strategy_feasible(params(h=1), 4, relabelled)

    @pytest.mark.parametrize("bad", [1.5, 2**40, -5, True, 2**31], ids=repr)
    def test_count_the_units_table_cannot_hold(self, witness, bad):
        # the witness stores 1 unit per view; an int32 table of units would
        # read 1.5 as a feasible 1, overflow at 2**40 and store -5
        view, alloc = next((view, alloc) for view, alloc in witness.items() if alloc)
        changed = {**witness, view: {u: bad for u in alloc}}
        with pytest.raises(ValueError, match=rf"^allocation names symbol counts "
                                             rf"\[{re.escape(repr(bad))}\], "
                                             r"not integers in \[0, 2\*\*31\)$"):
            strategy_feasible(params(h=1), 4, changed)

    @pytest.mark.parametrize("bad", [True, 1.0, np.float64(2.0), "1"], ids=repr)
    def test_a_version_id_that_is_not_an_integer(self, witness, bad):
        # True and 1.0 compare equal to version 1, but neither is a version id
        view, alloc = next((view, alloc) for view, alloc in witness.items() if alloc)
        changed = {**witness, view: {bad: 2}}
        with pytest.raises(ValueError, match=rf"^allocation names version ids "
                                             rf"\[{re.escape(repr(bad))}\], not integers$"):
            strategy_feasible(params(h=1), 4, changed)

    def test_numpy_version_ids(self, witness):
        numpy_ids = {view: {np.int64(u): s for u, s in alloc.items()}
                     for view, alloc in witness.items()}
        assert strategy_feasible(params(h=1), 4, numpy_ids)

    def test_counts_the_units_table_holds(self, witness):
        view, alloc = next((view, alloc) for view, alloc in witness.items() if alloc)
        for count in (np.int64(1), np.int32(1), 2**31 - 1):
            assert strategy_feasible(params(h=1), 4, {**witness, view: {u: count for u in alloc}})


def test_side_views_only_at_the_witness_boundary(monkeypatch):
    # the oracle-n5 instance: the model is built from view codes, and a
    # SideView is made once per view class, for the witness's keys
    p = Params(n=5, cw=4, cr=4, nu=2, h=1, k_bits=K)
    calls = []

    def counted(*args):
        calls.append(args)
        return SideView(*args)

    monkeypatch.setattr(mvcode.oracle, "SideView", counted)
    _, witness = oracle_min_cost_with_witness(p, 4)
    assert len(calls) == len(witness) == 320
    calls.clear()
    assert strategy_feasible(p, 4, witness)
    assert calls == []


def test_no_side_views_without_a_witness(monkeypatch):
    # oracle_min_cost discards the witness, so it makes none of its keys
    p = Params(n=5, cw=4, cr=4, nu=2, h=1, k_bits=K)
    calls = []

    def counted(*args):
        calls.append(args)
        return SideView(*args)

    monkeypatch.setattr(mvcode.oracle, "SideView", counted)
    value = oracle_min_cost(p, 4)
    assert calls == []
    assert value == oracle_min_cost_with_witness(p, 4)[0] == 512
    assert len(calls) == 320
