"""The benchmark's workloads: inputs made from a seed, one timed verdict, checked outputs.

Each workload calls the same library functions as the CLI subcommand it
stands for, with jobs=1, as one closed-loop caller: the next call starts
when the previous one returns. ``prepare(seed)`` builds the inputs outside
the timed region; ``run(inputs)`` times from the first call into mvcode to
the checked result.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from time import perf_counter
from typing import Callable, Iterator

from mvcode import codec, oracle, verifier
from mvcode.allocation import Scheme
from mvcode.model import Params, SystemState

VERIFY_C1_EXH = {"scheme": "c1", "n": 6, "cw": 5, "cr": 5, "nu": 2, "h": 2, "K": 1024,
                 "mode": "exhaustive", "layers": ["counting", "bitexact"], "jobs": 1}
VERIFY_C2_COUNT = {"scheme": "c2", "n": 8, "cw": 7, "cr": 7, "nu": 3, "h": 3, "K": 1024,
                   "mode": "sampled", "samples": 12_000, "layers": ["counting"], "jobs": 1}
ORACLE_N5 = {"n": 5, "cw": 4, "cr": 4, "nu": 2, "h": 1, "K": 1024, "G": 4,
             "expected_bits": 512}
ROUNDTRIP_WIDE = {
    "states": 32,
    "message_bytes": 256 * 1024,
    "kinds": [{"scheme": "c1", "n": 6, "cw": 5, "cr": 5, "nu": 2, "h": 2},
              {"scheme": "c2", "n": 8, "cw": 7, "cr": 7, "nu": 3, "h": 3}],
}


@dataclass
class Outcome:
    """One verdict: its wall time, the states it covered and every check made."""

    verdict_s: float
    states: int
    checks: list[tuple[str, bool]] = field(default_factory=list)
    encode_bytes: int = 0
    encode_s: float = 0.0
    decode_bytes: int = 0
    decode_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    config: dict
    prepare: Callable[[int], object]
    run: Callable[[object], Outcome]


def _params(cfg: dict, k_bits: int | None = None) -> Params:
    return Params(n=cfg["n"], cw=cfg["cw"], cr=cfg["cr"], nu=cfg["nu"], h=cfg["h"],
                  k_bits=cfg["K"] if k_bits is None else k_bits)


def latest_complete_of(subsets, cw: int) -> int | None:
    """Latest version held by at least cw servers, computed apart from mvcode."""
    held = Counter(u for s in subsets for u in s)
    return max((u for u, count in held.items() if count >= cw), default=None)


def closed_form_alpha_bits(scheme: str, p: Params) -> Fraction:
    """The scheme budgets as the paper states them: (c+2)/c^2 K and K/(c-2(nu-1))."""
    if scheme == "c1":
        return Fraction(p.c + 2, p.c * p.c) * p.k_bits
    return Fraction(p.k_bits, p.c - 2 * (p.nu - 1))


def _verify_workload(cfg: dict) -> Workload:
    p = _params(cfg)
    scheme = Scheme(cfg["scheme"])

    def prepare(seed: int) -> verifier.VerifyMode:
        if cfg["mode"] == "exhaustive":
            return verifier.VerifyMode.exhaustive(seed=seed)
        return verifier.VerifyMode.sampled(cfg["samples"], seed)

    def run(mode: verifier.VerifyMode) -> Outcome:
        requested = (1 << p.nu) ** p.n if mode.kind == "exhaustive" else mode.count
        started = perf_counter()
        report = verifier.verify(scheme, p, mode, layers=tuple(cfg["layers"]), jobs=cfg["jobs"])
        checks = [
            ("report passed", report.passed),
            ("worst_case_bits == alpha_bits", report.worst_case_bits == report.alpha_bits),
            ("alpha_bits == closed form", report.alpha_bits == closed_form_alpha_bits(cfg["scheme"], p)),
            ("states_checked == requested", report.states_checked == requested),
        ]
        return Outcome(perf_counter() - started, report.states_checked, checks)

    return Workload(cfg, prepare, run)


def _oracle_workload(cfg: dict) -> Workload:
    p = _params(cfg)
    g = cfg["G"]

    def prepare(seed: int) -> Params:
        return p  # the instance is fixed; the seed only names the run

    def run(p: Params) -> Outcome:
        started = perf_counter()
        value, witness = oracle.oracle_min_cost_with_witness(p, g)
        feasible = oracle.strategy_feasible(p, g, witness)
        worst = Fraction(oracle.strategy_worst_units(witness) * p.k_bits, g)
        checks = [
            (f"optimum == {cfg['expected_bits']} bits", value == cfg["expected_bits"]),
            ("witness passes strategy_feasible", feasible),
            ("witness worst units == optimum", worst == value),
        ]
        return Outcome(perf_counter() - started, (1 << p.nu) ** p.n, checks)

    return Workload(cfg, prepare, run)


def roundtrip_inputs(cfg: dict, seed: int) -> Iterator[tuple[Scheme, Params, SystemState, dict]]:
    """Seeded (scheme, params, state, messages), alternating the configured
    kinds; states without a complete version are drawn again."""
    rng = random.Random(seed)
    size = cfg["message_bytes"]
    for j in range(cfg["states"]):
        kind = cfg["kinds"][j % len(cfg["kinds"])]
        p = _params(kind, k_bits=8 * size)
        while True:
            subsets = [[u for u in p.versions if rng.getrandbits(1)] for _ in range(p.n)]
            if latest_complete_of(subsets, p.cw) is not None:
                break
        messages = {u: rng.randbytes(size) for u in p.versions}
        yield Scheme(kind["scheme"]), p, SystemState.of(p, subsets), messages


def _roundtrip_workload(cfg: dict) -> Workload:
    def prepare(seed: int) -> list:
        return list(roundtrip_inputs(cfg, seed))

    def run(items: list) -> Outcome:
        out = Outcome(0.0, len(items))
        started = perf_counter()
        for scheme, p, S, messages in items:
            t0 = perf_counter()
            written = codec.encode_all(scheme, S, messages, p)
            text = codec.stores_to_json(written)
            t1 = perf_counter()
            stores = codec.stores_from_json(text)
            read_sets = list(combinations(range(p.n), p.cr))
            results = [codec.quorum_decode(scheme, S, T, stores, p) for T in read_sets]
            t2 = perf_counter()
            out.encode_s += t1 - t0
            out.decode_s += t2 - t1
            out.encode_bytes += sum(len(m) for m in messages.values())
            out.decode_bytes += sum(len(r[1]) for r in results if r is not None)
            label = S.to_json()
            out.checks.append((f"stores of {label} survive JSON", stores == written))
            latest = latest_complete_of(S.subsets, p.cw)
            for T, r in zip(read_sets, results):
                ok = r is not None and r[0] >= latest and r[1] == messages[r[0]]
                out.checks.append((f"decode of {label} via {list(T)}", ok))
        out.verdict_s = perf_counter() - started
        return out

    return Workload(cfg, prepare, run)


WORKLOADS = {
    "verify-c1-exh": _verify_workload(VERIFY_C1_EXH),
    "verify-c2-count": _verify_workload(VERIFY_C2_COUNT),
    "oracle-n5": _oracle_workload(ORACLE_N5),
    "roundtrip-wide": _roundtrip_workload(ROUNDTRIP_WIDE),
}
