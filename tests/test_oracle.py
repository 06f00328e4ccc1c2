"""Strategy-search oracle: known values, feasibility witnesses, monotonicity."""

from fractions import Fraction

import pytest

from mvcode import (BudgetExceededError, OracleBudget, Params, Scheme, allocation_for,
                    check_state_counting, enumerate_states, latest_complete,
                    oracle_min_cost, scheme_granularity, side_view)
from mvcode.allocation import Allocation
from mvcode.oracle import (oracle_min_cost_with_witness, strategy_feasible,
                           strategy_worst_units)
from mvcode.verifier import read_sets

K = 1024


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
        value = oracle_min_cost(params(h=0), 12, budget=OracleBudget(max_g=12))
        assert value == Fraction(5 * K, 12)


class TestWitnesses:
    @pytest.mark.parametrize("h,g,max_g", [(0, 4, 4), (1, 4, 4), (0, 12, 12)])
    def test_witness_strategy_is_feasible_by_brute_force(self, h, g, max_g):
        p = params(h)
        value, strategy = oracle_min_cost_with_witness(
            p, g, budget=OracleBudget(max_g=max_g))
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
            values = [oracle_min_cost(params(h), g, budget=OracleBudget(max_g=max_g))
                      for h in (0, 1, 2)]
            assert values[0] >= values[1] >= values[2]

    def test_finer_grid_never_costs_more(self):
        p = params(h=0)
        v4 = oracle_min_cost(p, 4)
        v12 = oracle_min_cost(p, 12, budget=OracleBudget(max_g=12))
        assert v12 <= v4


class TestBudget:
    def test_granularity_budget(self):
        with pytest.raises(BudgetExceededError):
            oracle_min_cost(params(h=0), 5)

    def test_size_budgets(self):
        with pytest.raises(BudgetExceededError):
            oracle_min_cost(Params(n=6, cw=6, cr=6, nu=2, h=0, k_bits=K), 4)
        with pytest.raises(BudgetExceededError):
            oracle_min_cost(params(h=0, nu=3, n=4), 4)


class TestSharedCountingRule:
    """strategy_feasible and check_state_counting apply one decodability rule:
    fed the same side-view strategy, they must reach the same verdict."""

    P6 = Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=K)

    def scheme_strategy(self, scheme):
        strategy = {}
        for S in enumerate_states(self.P6):
            for i in range(self.P6.n):
                alloc = allocation_for(scheme, S, i, self.P6)
                strategy[side_view(S, i, self.P6)] = dict(alloc.symbols)
        return strategy

    def counting_passes(self, scheme, strategy):
        gran = scheme_granularity(scheme, self.P6)
        for S in enumerate_states(self.P6):
            allocs = [Allocation.of(strategy.get(side_view(S, i, self.P6), {}), gran)
                      for i in range(self.P6.n)]
            if check_state_counting(scheme, S, self.P6, allocs) is not None:
                return False
        return True

    def agree(self, scheme, strategy):
        denom = scheme_granularity(scheme, self.P6).denom
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
        denom = scheme_granularity(scheme, self.P6).denom
        for S in enumerate_states(self.P6):
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
