"""An over-budget check is refused before any read set is listed.

c1 at n=28, cw=27, cr=14, h=13 has C(28, 14) = 40,116,600 read sets per
state, twice the default budget even for one sampled state; listing them
would take gigabytes. `read_sets` is patched to raise, so each entry point
must refuse from the count alone.
"""

import pytest

from mvcode import BudgetExceededError, Params, Scheme, VerifyMode, oracle, verifier
from mvcode.cli import EXIT_CONFIG, main

P = Params(n=28, cw=27, cr=14, nu=2, h=13, k_bits=1024)
SUFFIX = " read sets exceeds budget 20000000; set MVCODE_BUDGET to override"


@pytest.fixture(autouse=True)
def no_listing(monkeypatch):
    def refuse(p):
        raise AssertionError("read sets were listed before the budget check")
    monkeypatch.setattr(verifier, "read_sets", refuse)
    monkeypatch.setattr(oracle, "read_sets", refuse)
    monkeypatch.delenv("MVCODE_BUDGET", raising=False)


def test_verify_refuses_from_the_count():
    with pytest.raises(BudgetExceededError) as exc:
        verifier.verify(Scheme.C1, P, VerifyMode.sampled(1, 0))
    assert str(exc.value) == "1 states x 40116600" + SUFFIX


def test_strategy_feasible_refuses_from_the_count():
    with pytest.raises(BudgetExceededError) as exc:
        oracle.strategy_feasible(P, 1, {})
    assert str(exc.value) == f"{2 ** 56} states x 40116600" + SUFFIX


def test_cli_refuses_with_one_error_line(capsys):
    code = main(["verify", "--scheme", "c1", "--n", "28", "--cw", "27", "--cr", "14",
                 "--nu", "2", "--h", "13", "--K", "1024", "--mode", "sampled",
                 "--samples", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG and captured.out == ""
    assert captured.err == "error: 1 states x 40116600" + SUFFIX + "\n"
