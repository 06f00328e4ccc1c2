"""Multi-version storage codes with ring side information.

A library plus CLI for modeling asynchronous replicated storage of
versioned data: server states and ring visibility, per-version storage
allocation schemes, a bit-exact MDS realization over GF(2^16), exhaustive
decodability verification, closed-form cost/bound tables and a brute-force
optimality oracle.
"""

from importlib import import_module

from .allocation import (Scheme, alloc_c1, alloc_c2, alloc_centralized, allocation_for,
                         alpha_bits, alpha_symbols, scheme_granularity, validate_regime)
from .codec import (CodedSymbol, encode_all, mds_decode, mds_encode, quorum_decode,
                    server_encode)
from .errors import (BudgetExceededError, CodecError, DecodeContractError,
                     InconsistentSymbolsError, InsufficientSymbolsError,
                     MvcodeError, RegimeError, SolverError, WorkerError)
from .model import (Params, SideView, SystemState, complete_versions,
                    latest_complete, random_state, receivers, side_view,
                    state_at, state_count)
from .verifier import (VerifyMode, VerifyReport, Violation,
                       check_state_bitexact, check_state_counting, verify)

__version__ = "0.1.0"

# modules no verification uses: the oracle and the bound tables and
# fixtures serve their own commands (the oracle loads scipy only for its
# first integer solve). Each is imported on first use of one of its names.
_LAZY = {
    "bounds": ("compare_report", "cost_baseline", "cost_c1", "cost_c2",
               "cost_centralized", "lb_eq1", "lb_eq1_leading", "lb_thm3",
               "lb_thm4", "lb_thm4_sweep"),
    "fixtures": ("FixturePair", "check_indistinguishable", "fixture_thm3",
                 "fixture_thm4", "make_thm3_params", "make_thm4_params",
                 "thm3_read_sets", "thm4_l_choices", "thm4_read_sets"),
    "oracle": ("oracle_min_cost", "oracle_min_cost_with_witness"),
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
