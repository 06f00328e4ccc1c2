"""Verifier layers, reports, sampling determinism and fault injection."""

import concurrent.futures
import json
import os
from fractions import Fraction

import pytest

from mvcode import (BudgetExceededError, Params, Scheme, SystemState,
                    allocation_for, check_state_bitexact, check_state_counting,
                    encode_all, verify, VerifyMode)
from mvcode.fixtures import fixture_thm3, make_thm3_params
from mvcode.verifier import (BITEXACT, COUNTING, bitexact_violations,
                             random_payloads, read_sets)
from helpers import all_states

P6 = make_thm3_params(6, 1024)
P4 = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=64)  # small c1/c2-regime instance


class TestCounting:
    def test_all_states_pass_at_n4(self):
        for S in all_states(P4):
            assert check_state_counting(Scheme.C1, S, P4) is None

    def test_disabled_branch_is_caught(self):
        pair = fixture_thm3(P6)
        # strip every version-2 share: version 2 can no longer be decoded
        crippled = []
        for i in range(P6.n):
            alloc = allocation_for(Scheme.C1, pair.s1, i, P6)
            crippled.append({u: s for u, s in alloc.items() if u != 2})
        violation = check_state_counting(Scheme.C1, pair.s1, P6, crippled)
        assert violation is not None
        assert violation.layer == COUNTING
        assert "no version >= 2" in violation.reason

    def test_null_states_have_nothing_to_check(self):
        S = SystemState.of(P6, [{1}] * 3 + [set()] * 3)
        assert check_state_counting(Scheme.C1, S, P6) is None


class TestBitexact:
    def test_random_states_pass(self):
        from mvcode.model import random_state
        for seed in range(50):
            S = random_state(P6, seed)
            assert check_state_bitexact(Scheme.C1, S, P6, seed) is None

    def test_empty_state_is_null_everywhere(self):
        S = SystemState.of(P6, [set()] * 6)
        assert check_state_bitexact(Scheme.C1, S, P6, 5) is None

    def test_flipped_bit_is_reported(self):
        pair = fixture_thm3(P6)
        messages = random_payloads(P6, 77)
        stores = encode_all(Scheme.C1, pair.s1, messages, P6)
        # corrupt a version-2 share: state s1 forces version 2, so every
        # read set through server 0 decodes through the flipped payload
        symbols = list(stores[0])
        pos = next(k for k, cs in enumerate(symbols) if cs.version == 2)
        victim = symbols[pos]
        flipped = bytes([victim.payload[0] ^ 1]) + victim.payload[1:]
        symbols[pos] = type(victim)(victim.version, victim.index, flipped)
        stores[0] = tuple(symbols)
        violation = bitexact_violations(Scheme.C1, pair.s1, stores, messages, P6)
        assert violation is not None
        assert violation.layer == BITEXACT
        assert "mismatch" in violation.reason


class TestVerify:
    def test_c1_exhaustive_small(self):
        report = verify(Scheme.C1, P4, VerifyMode.exhaustive(seed=3))
        assert report.passed
        assert report.states_checked == 256
        assert report.read_sets_per_state == 4
        assert report.worst_case_bits == report.alpha_bits == Fraction(64)

    def test_central_exhaustive(self):
        p = Params(n=6, cw=5, cr=5, nu=2, h=3, k_bits=1024)
        report = verify(Scheme.CENTRAL, p, VerifyMode.exhaustive(seed=1),
                        layers=(COUNTING,))
        assert report.passed
        assert report.worst_case_bits == 256  # K/c at c=4

    @pytest.mark.usefixtures("four_cpus")
    def test_sampled_is_deterministic_and_jobs_invariant(self):
        mode = VerifyMode.sampled(300, seed=9)
        r1 = verify(Scheme.C2, P6, mode, layers=(COUNTING,))
        r2 = verify(Scheme.C2, P6, mode, layers=(COUNTING,))
        assert r1.to_json() == r2.to_json()
        r4 = verify(Scheme.C2, P6, mode, layers=(COUNTING,), jobs=4)
        # jobs is recorded in the report; everything else must match
        d1, d4 = r1.to_dict(), r4.to_dict()
        d1.pop("jobs"), d4.pop("jobs")
        assert d1 == d4

    @pytest.mark.usefixtures("four_cpus")
    def test_jobs_beyond_the_cpu_count_start_one_worker_per_cpu(self, monkeypatch):
        seen = []

        class InProcessPool:
            """Stands in for ProcessPoolExecutor: records max_workers, maps here."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        many = verify(Scheme.C1, P4, VerifyMode.exhaustive(seed=3), jobs=10_000).to_dict()
        one = verify(Scheme.C1, P4, VerifyMode.exhaustive(seed=3), jobs=1).to_dict()
        assert seen == [os.cpu_count()]
        assert (many.pop("jobs"), one.pop("jobs")) == (10_000, 1)
        assert many == one

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_are_refused(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            verify(Scheme.C1, P4, VerifyMode.exhaustive(), jobs=jobs)

    @pytest.mark.parametrize("layers", [(), (COUNTING, COUNTING), (BITEXACT, COUNTING, BITEXACT)])
    def test_empty_or_repeated_layers_are_refused(self, layers):
        # an empty list would check nothing and pass; a repeat would list
        # its layer twice in the report
        with pytest.raises(ValueError, match="at least one layer, none twice"):
            verify(Scheme.C1, P4, VerifyMode.exhaustive(), layers=layers)

    def test_budget_error(self):
        p = Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024)
        with pytest.raises(BudgetExceededError):
            verify(Scheme.C2, p, VerifyMode.exhaustive(), budget=1000)

    def test_violations_are_data_with_trace(self):
        # halve the version-2 shares so state s1 cannot assemble a message;
        # the violation must carry the state, the read set and the counts
        pair = fixture_thm3(P6)
        allocs = []
        for i in range(P6.n):
            alloc = allocation_for(Scheme.C1, pair.s1, i, P6)
            allocs.append({u: (s // 2 if u == 2 else s) for u, s in alloc.items()})
        violation = check_state_counting(Scheme.C1, pair.s1, P6, allocs)
        assert violation is not None
        payload = violation.to_dict()
        assert payload["read_set"] is not None
        assert payload["state"] == json.loads(pair.s1.to_json())
        assert "counts" in violation.reason

    def test_report_json_shape(self):
        report = verify(Scheme.C1, P4, VerifyMode.exhaustive(seed=3),
                        layers=(COUNTING,))
        doc = json.loads(report.to_json())
        assert doc["passed"] is True
        assert doc["worst_case_bits"] == {"num": 64, "den": 1, "float": 64.0}
        assert doc["mode"] == {"kind": "exhaustive", "payload_seed": 3}
        assert "elapsed" not in json.dumps(doc)


def test_counting_and_bitexact_agree_on_samples():
    """The two layers must agree wherever both apply."""
    from mvcode.model import random_state
    for seed in range(40):
        S = random_state(P6, 1000 + seed)
        counting = check_state_counting(Scheme.C2, S, P6)
        bitexact = check_state_bitexact(Scheme.C2, S, P6, seed)
        assert (counting is None) == (bitexact is None)


def test_read_sets_enumeration():
    assert len(read_sets(P6)) == 6
    assert all(len(t) == 5 for t in read_sets(P6))


class TestDegenerateAndGuards:
    def test_single_version_degenerate_runs(self):
        # nu=1 collapses both schemes to plain one-version storage
        p = Params(n=4, cw=3, cr=3, nu=1, h=1, k_bits=64)
        for scheme in (Scheme.C1, Scheme.C2):
            rep = verify(scheme, p, VerifyMode.exhaustive(seed=4))
            assert rep.passed, scheme

    def test_bitexact_needs_byte_aligned_messages(self):
        from mvcode import CodecError
        p = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=65)
        with pytest.raises(CodecError):
            check_state_bitexact(Scheme.C1, SystemState.of(p, [{1}] * 4), p, 1)
        # counting layer is indifferent to bit alignment
        rep = verify(Scheme.C1, p, VerifyMode.exhaustive(), layers=(COUNTING,))
        assert rep.passed

    def test_unknown_mode_kind_is_refused_by_the_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'random'"):
            VerifyMode("random")

    def test_env_var_budget_override(self, monkeypatch):
        from mvcode.model import work_budget
        monkeypatch.setenv("MVCODE_BUDGET", "123")
        assert work_budget() == 123
        with pytest.raises(BudgetExceededError):
            verify(Scheme.C1, P6, VerifyMode.exhaustive(), layers=(COUNTING,))
        monkeypatch.delenv("MVCODE_BUDGET")
        assert work_budget() == 20_000_000

    def test_zero_samples_are_refused_with_any_jobs(self, tmp_path, capsys):
        from mvcode.cli import EXIT_CONFIG, main
        args = ["verify", "--scheme", "c1", "--n", "6", "--cw", "5", "--cr", "5",
                "--h", "2", "--mode", "sampled", "--samples", "0"]
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            assert main(args + ["--jobs", jobs, "--out", str(out)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: sample count must be >= 1, got 0\n"
            assert not out.exists()
