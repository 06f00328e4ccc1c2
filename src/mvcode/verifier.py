"""Scheme verification by exhaustive or sampled state enumeration.

Two layers with independent failure modes:

  counting  for every read set, some version at or above the latest
            complete one must reach `denom` allocated symbols: the pure
            budget argument, no coded bytes involved.
  bitexact  random payloads are encoded through the real codec and decoded
            through every read set; the returned bytes must equal the
            original message of the returned version.

Both layers run on blocks of states and take the block's symbol counts
from `block_allocations` as one (states, n, nu) array. `decode_versions`
gives, for every read set of every state, the version the counting rule
decodes there: the counting layer flags the states where some read set has
none (`short_states`), and the bit-exact layer makes one encode per version
for the whole block and one stacked decode per version: every distinct
(state, read) pair goes through the cached decode matrix of the symbols it
reads, in one field product over the stack (`bitexact_block`). A state either block check
cannot clear goes back through its per-state reference,
`check_state_counting` or `check_state_bitexact`, which reports its
violation.

Worst-case cost is measured over every (state, server) pair as an exact
fraction of k_bits, so it can be compared against the scheme budget with
zero tolerance.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from . import gf65536 as gf
from .allocation import (Allocation, Scheme, allocation_for, alpha_bits,
                         block_allocations, scheme_granularity, validate_regime)
from .codec import (encode_all, encode_slots, message_elements, quorum_decode,
                    slot_indices, slots_per_server)
from .errors import (CodecError, DecodeContractError, InconsistentSymbolsError,
                     WorkerError)
from .model import (Params, SystemState, check_work, latest_complete, rank_masks,
                    sample_masks, state_at, state_count, state_from_masks)

COUNTING = "counting"
BITEXACT = "bitexact"

_SEED_STRIDE = 1_000_003  # spreads per-state payload seeds; keeps payloads jobs-independent
# a block of states holds at most _BLOCK states, or when the bit-exact
# layer runs at most _BITEXACT_BLOCK states and about _BLOCK_BYTES of
# messages, which bounds the arrays either layer stacks
_BLOCK = 512
_BITEXACT_BLOCK = 256
_BLOCK_BYTES = 1 << 22
# states are int64 bit masks, one bit per version
_MAX_NU = 63


@dataclass(frozen=True)
class VerifyMode:
    kind: str  # "exhaustive" | "sampled"
    count: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown mode {self.kind!r}")
        if self.count < 0:
            raise ValueError(f"sample count must be >= 0, got {self.count}")

    @classmethod
    def exhaustive(cls, seed: int = 0) -> "VerifyMode":
        return cls("exhaustive", 0, seed)

    @classmethod
    def sampled(cls, count: int, seed: int) -> "VerifyMode":
        return cls("sampled", count, seed)

    def to_dict(self) -> dict:
        if self.kind == "exhaustive":
            return {"kind": "exhaustive", "payload_seed": self.seed}
        return {"kind": "sampled", "count": self.count, "seed": self.seed}


@dataclass(frozen=True)
class Violation:
    state: SystemState
    read_set: tuple[int, ...] | None
    layer: str
    reason: str

    def to_dict(self) -> dict:
        return {"state": [sorted(s) for s in self.state.subsets],
                "read_set": list(self.read_set) if self.read_set else None,
                "layer": self.layer, "reason": self.reason}


@dataclass
class VerifyReport:
    scheme: str
    params: dict
    mode: dict
    layers: tuple[str, ...]
    states_checked: int
    read_sets_per_state: int
    violations_total: int
    violations: list[Violation]
    worst_case_bits: Fraction
    alpha_bits: Fraction
    jobs: int
    elapsed_s: float = 0.0  # informational; excluded from the serialized report

    @property
    def passed(self) -> bool:
        return self.violations_total == 0

    @property
    def worst_equals_alpha(self) -> bool:
        return self.worst_case_bits == self.alpha_bits

    def to_dict(self) -> dict:
        def frac(x: Fraction) -> dict:
            return {"num": x.numerator, "den": x.denominator, "float": float(x)}
        return {
            "scheme": self.scheme,
            "params": self.params,
            "mode": self.mode,
            "layers": list(self.layers),
            "states_checked": self.states_checked,
            "read_sets_per_state": self.read_sets_per_state,
            "violations_total": self.violations_total,
            "violations": [v.to_dict() for v in self.violations],
            "worst_case_bits": frac(self.worst_case_bits),
            "alpha_bits": frac(self.alpha_bits),
            "worst_equals_alpha": self.worst_equals_alpha,
            "passed": self.passed,
            "jobs": self.jobs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def read_sets(p: Params) -> list[tuple[int, ...]]:
    return list(combinations(range(p.n), p.cr))


def short_read_set(holdings: Sequence[Mapping[int, int]], p: Params, latest: int,
                   threshold: int) -> tuple[tuple[int, ...], dict[int, int]] | None:
    """The counting rule of decodability. `holdings[i]` maps each version to
    the symbols server i stores of it. Returns the first read set in which no
    version in [latest, nu] reaches `threshold` symbols, with its per-version
    totals newest first, or None when every read set can decode."""
    for T in read_sets(p):
        totals = {}
        for m in range(p.nu, latest - 1, -1):
            totals[m] = sum(holdings[t].get(m, 0) for t in T)
            if totals[m] >= threshold:
                break
        else:
            return T, totals
    return None


@lru_cache(maxsize=64)
def _read_set_matrix(p: Params) -> np.ndarray:
    """R[t, r] = 1 when server t is in the r-th read set of read_sets(p)."""
    sets = read_sets(p)
    R = np.zeros((p.n, len(sets)))
    for r, T in enumerate(sets):
        R[list(T), r] = 1
    R.flags.writeable = False
    return R


def decode_versions(holdings: np.ndarray, latest: np.ndarray, p: Params,
                    threshold: int) -> np.ndarray:
    """The counting rule of decodability for a block of states.
    `holdings[b, i, u-1]` is the symbols server i stores of version u in
    state b, and `latest[b]` that state's latest complete version, 0 when
    none is. Entry [b, r] is the newest version in [latest, nu] that reaches
    `threshold` symbols in the r-th read set of read_sets(p), 0 when none
    does."""
    R = _read_set_matrix(p)
    versions = np.zeros((len(latest), R.shape[1]), dtype=np.int32)
    for u in p.versions:
        # read-set totals of integer counts, summed exactly in float64 by BLAS
        reaches = holdings[:, :, u - 1].astype(np.float64) @ R >= threshold
        versions[reaches & (u >= latest)[:, None]] = u
    return versions


def short_states(holdings: np.ndarray, latest: np.ndarray, p: Params,
                 threshold: int) -> np.ndarray:
    """short_read_set for a block of states, with the arguments of
    decode_versions: True where a version is complete and some read set
    decodes none at or above it."""
    return (latest > 0) & (decode_versions(holdings, latest, p, threshold) == 0).any(1)


def check_state_counting(scheme: Scheme, S: SystemState, p: Params,
                         allocs: list[Allocation] | None = None) -> Violation | None:
    """First read set (if any) where no fresh-enough version reaches the
    symbol threshold. `allocs` may inject alternative allocations, which is
    how broken-scheme behavior is exercised."""
    if allocs is None:
        allocs = [allocation_for(scheme, S, i, p) for i in range(p.n)]
    denom = scheme_granularity(scheme, p).denom
    latest = latest_complete(S, p)
    if latest is None:
        return None
    short = short_read_set([dict(a.symbols) for a in allocs], p, latest, denom)
    if short is None:
        return None
    T, totals = short
    return Violation(
        state=S, read_set=T, layer=COUNTING,
        reason=f"no version >= {latest} reaches {denom} symbols; counts {totals}")


def _require_byte_aligned(p: Params) -> None:
    if p.k_bits % 8 != 0:
        raise CodecError(f"the bit-exact layer needs byte-aligned K, got {p.k_bits}")


def random_payloads(p: Params, seed: int) -> dict[int, bytes]:
    _require_byte_aligned(p)
    rng = random.Random(seed)
    return {u: rng.getrandbits(p.k_bits).to_bytes(p.k_bits // 8, "big")
            for u in p.versions}


def bitexact_violations(scheme: Scheme, S: SystemState, stores, messages,
                        p: Params) -> Violation | None:
    """Decode through every read set and compare bytes against the original."""
    latest = latest_complete(S, p)
    for T in read_sets(p):
        try:
            result = quorum_decode(scheme, S, T, stores, p)
        except DecodeContractError as exc:
            return Violation(S, T, BITEXACT, f"contract: {exc}")
        except InconsistentSymbolsError as exc:
            return Violation(S, T, BITEXACT, f"inconsistent store: {exc}")
        if latest is None:
            if result is not None:
                return Violation(S, T, BITEXACT, "expected NULL with no complete version")
            continue
        if result is None:
            return Violation(S, T, BITEXACT, "NULL returned despite a complete version")
        m, payload = result
        if m < latest:
            return Violation(S, T, BITEXACT,
                             f"version {m} is older than the latest complete {latest}")
        if payload != messages[m]:
            return Violation(S, T, BITEXACT, f"payload mismatch for version {m}")
    return None


def check_state_bitexact(scheme: Scheme, S: SystemState, p: Params,
                         seed: int) -> Violation | None:
    messages = random_payloads(p, seed)
    stores = encode_all(scheme, S, messages, p)
    return bitexact_violations(scheme, S, stores, messages, p)


def _decode_pairs(counts: np.ndarray, versions: np.ndarray, slots: np.ndarray,
                  p: Params, denom: int) -> tuple[list[tuple[int, tuple[int, ...]]],
                                                  np.ndarray, np.ndarray]:
    """What quorum_decode reads, for every read set of every state of a
    block. Server t of read set r contributes its counts[b, t, m-1] slots of
    version m = versions[b, r], and the decode reads the `denom` smallest of
    those indices. Returns the distinct reads, as (version, indices), and
    the distinct (state, read) pairs, as block positions and positions in
    that list."""
    states, reads = versions.shape
    in_read = _read_set_matrix(p).T.astype(counts.dtype)  # (reads, n)
    at = np.take_along_axis(counts, np.broadcast_to(versions[:, None, :] - 1,
                                                    (states, p.n, reads)), axis=2)
    keys = np.concatenate([versions[:, :, None], at.transpose(0, 2, 1) * in_read], axis=2)
    unique, inverse = np.unique(keys.reshape(-1, p.n + 1), axis=0, return_inverse=True)
    distinct: dict[tuple[int, tuple[int, ...]], int] = {}  # read -> its position
    read_of_key = []
    for m, *held in unique.tolist():
        chosen = tuple(j for t, count in enumerate(held)
                       for j in slot_indices(t, count, int(slots[m - 1])))[:denom]
        read_of_key.append(distinct.setdefault((m, chosen), len(distinct)))
    pairs = np.unique(np.arange(states).repeat(reads) * len(distinct)
                      + np.array(read_of_key)[inverse.reshape(-1)])
    return list(distinct), pairs // len(distinct), pairs % len(distinct)


def bitexact_block(scheme: Scheme, p: Params, states: Sequence[SystemState],
                   counts: np.ndarray, seeds: Sequence[int],
                   latest: Sequence[int] | np.ndarray) -> list[Violation | None]:
    """check_state_bitexact for a block of states, given their symbol counts
    as block_allocations returns them and their latest complete versions
    (0 for none).

    The states with a complete version are encoded together, one matmul per
    version, and decoded together, one stacked product per version: each
    distinct (state, read) pair multiplies the symbols it reads by the
    cached decode matrix of their indices. The stack is cut into slices of
    about _BLOCK_BYTES of temporaries; at c1 n=6 a version's stack is one
    slice. A state that is not encodable, has a read set with no decodable
    version, or decodes to other bytes goes through check_state_bitexact,
    which reports exactly what the reference reports.
    """
    if states:
        _require_byte_aligned(p)
    denom = scheme_granularity(scheme, p).denom
    counts, latest = np.asarray(counts), np.asarray(latest)
    ids = p.versions
    slots = np.array([slots_per_server(scheme, u, p) for u in ids])
    held = np.array([u in s for S in states for s in S.subsets for u in ids],
                    dtype=bool).reshape(counts.shape)
    # what server_encode accepts: only versions the server received, within
    # their slots, and every version's slots inside the index universe
    encodable = ((counts == 0) | (held & (counts > 0) & (counts <= slots)
                                  & (p.n * slots <= gf.ORDER))).all(axis=(1, 2))
    versions = decode_versions(counts, latest, p, denom)
    redo = ~encodable | ((latest > 0) & (versions == 0).any(1))
    live = np.flatnonzero(~redo & (latest > 0))  # every read set returns None elsewhere

    if live.size:
        payloads = [random_payloads(p, seeds[b]) for b in live.tolist()]
        reads, owner, which = _decode_pairs(counts[live], versions[live], slots, p, denom)
        version = np.array([m for m, _ in reads])[which]
        matrices = np.stack([gf.decode_matrix(denom, chosen) for _, chosen in reads])
        indices = np.array([chosen for _, chosen in reads])
        for m in np.unique(version).tolist():
            messages = message_elements([pl[m] for pl in payloads], p, denom)
            coded = encode_slots(scheme, p, m, messages)
            # the product's temporaries take about 6 bytes per decode-matrix
            # entry and 20 per decoded element of each pair
            step = max(1, _BLOCK_BYTES // (denom * (6 * denom + 20 * messages.shape[2])))
            pair_b, pair_r = owner[version == m], which[version == m]
            for lo in range(0, pair_b.size, step):
                b, r = pair_b[lo:lo + step], pair_r[lo:lo + step]
                decoded = gf.matmul_stack(matrices[r], coded[indices[r], b[:, None]])
                wrong = (decoded != messages[:, b].transpose(1, 0, 2)).any(axis=(1, 2))
                redo[live[b[wrong]]] = True

    return [check_state_bitexact(scheme, S, p, seed) if again else None
            for S, seed, again in zip(states, seeds, redo.tolist())]


def _block_masks(p: Params, mode: VerifyMode, lo: int, hi: int) -> np.ndarray:
    """The masks of states [lo, hi), one row each. Exhaustive state idx is
    rank idx (state_at); sampled state idx under seed k is row idx of
    sample_masks(p, k, ...)."""
    if mode.kind == "exhaustive":
        return rank_masks(p, lo, hi)
    return sample_masks(p, mode.seed, lo, hi)


def _mask_blocks(p: Params, mode: VerifyMode, start: int, stop: int, block: int):
    """(lo, hi, masks of states [lo, hi)) for the blocks of `block` states
    that cover [start, stop)."""
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        yield lo, hi, _block_masks(p, mode, lo, hi)


def _state(p: Params, mode: VerifyMode, masks: np.ndarray, idx: int, b: int) -> SystemState:
    """The SystemState of state `idx`, row b of its block's masks."""
    if mode.kind == "exhaustive":
        return state_at(p, idx)
    return state_from_masks(masks[b].tolist())


def _verify_range(scheme: Scheme, p: Params, mode: VerifyMode,
                  layers: tuple[str, ...], start: int, stop: int,
                  max_violations: int) -> dict:
    gran = scheme_granularity(scheme, p)
    block = _BLOCK
    if BITEXACT in layers:
        block = max(1, min(_BITEXACT_BLOCK, 8 * _BLOCK_BYTES // (p.nu * p.k_bits)))
    worst_symbols = 0
    violations: list[Violation] = []
    total = 0
    for lo, hi, masks in _mask_blocks(p, mode, start, stop, block):
        counts, latest = block_allocations(scheme, masks, p)
        worst_symbols = max(worst_symbols, int(counts.sum(-1).max()))
        found: list[tuple[int, Violation | None]] = []  # (block position, violation)
        if COUNTING in layers:
            for b in np.flatnonzero(short_states(counts, latest, p, gran.denom)).tolist():
                S = _state(p, mode, masks, lo + b, b)
                found.append((b, check_state_counting(scheme, S, p)))
        if BITEXACT in layers:
            states = [_state(p, mode, masks, lo + b, b) for b in range(hi - lo)]
            seeds = [mode.seed * _SEED_STRIDE + idx for idx in range(lo, hi)]
            found.extend(enumerate(bitexact_block(scheme, p, states, counts, seeds, latest)))
        # in state order, a state's counting violation before its bit-exact one
        for _, violation in sorted(found, key=lambda pair: pair[0]):
            if violation is not None:
                total += 1
                if len(violations) < max_violations:
                    violations.append(violation)
    return {"worst": worst_symbols * gran.symbol_bits(p.k_bits), "violations": violations,
            "violations_total": total, "states": stop - start}


def verify(scheme: Scheme, p: Params, mode: VerifyMode,
           layers: tuple[str, ...] = (COUNTING, BITEXACT),
           jobs: int = 1, max_violations: int = 100,
           budget: int | None = None) -> VerifyReport:
    """Run the requested layers over all (or sampled) states.

    Deterministic for a fixed (scheme, params, mode, layers) regardless of
    jobs: sampled states and payloads are functions of (seed, index), and
    partial results merge in range order.
    """
    validate_regime(scheme, p)
    if p.nu > _MAX_NU:
        raise ValueError(f"verify needs nu <= {_MAX_NU} (states are int64 bit masks), "
                         f"got nu={p.nu}")
    if max_violations < 0:
        raise ValueError(f"max_violations must be >= 0, got {max_violations}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for layer in layers:
        if layer not in (COUNTING, BITEXACT):
            raise ValueError(f"unknown layer {layer!r}")
    if not layers or len(set(layers)) < len(layers):
        raise ValueError(f"layers must name at least one layer, none twice; got {list(layers)}")
    n_states = state_count(p) if mode.kind == "exhaustive" else mode.count
    n_reads = check_work(p, n_states, budget)

    started = time.monotonic()
    chunk = max(1, -(-n_states // jobs))
    ranges = [(lo, min(lo + chunk, n_states))
              for lo in range(0, n_states, chunk)] or [(0, 0)]
    arg_sets = [(scheme, p, mode, layers, lo, hi, max_violations)
                for lo, hi in ranges]
    if jobs == 1 or len(arg_sets) == 1:
        partials = [_verify_range(*a) for a in arg_sets]
    else:
        # multiprocessing loads only for runs that use it
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                partials = list(pool.map(_verify_range, *zip(*arg_sets)))
        except BrokenProcessPool as exc:
            raise WorkerError(f"a verification worker stopped abnormally: {exc}") from exc

    worst = max((part["worst"] for part in partials), default=Fraction(0))
    violations: list[Violation] = []
    for part in partials:
        violations.extend(part["violations"])
    violations = violations[:max_violations]
    report = VerifyReport(
        scheme=scheme.value,
        params=p.to_dict(),
        mode=mode.to_dict(),
        layers=layers,
        states_checked=sum(part["states"] for part in partials),
        read_sets_per_state=n_reads,
        violations_total=sum(part["violations_total"] for part in partials),
        violations=violations,
        worst_case_bits=worst,
        alpha_bits=alpha_bits(scheme, p),
        jobs=jobs,
        elapsed_s=time.monotonic() - started,
    )
    return report
