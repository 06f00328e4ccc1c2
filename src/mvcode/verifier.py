"""Scheme verification by exhaustive or sampled state enumeration.

Two layers with independent failure modes:

  counting  for every read set, some version at or above the latest
            complete one must reach `denom` allocated symbols: the pure
            budget argument, no coded bytes involved.
  bitexact  seeded payloads are encoded through the real codec and decoded
            through every read set; the returned bytes must equal the
            original message of the returned version.

Both layers run on blocks of states and take the block's symbol counts
from `block_allocations` as one (states, n, nu) array. `decode_versions`
gives, once per block, for every read set of every state, the version the
counting rule decodes there: the counting layer flags the states where
some read set has none (`short_states`), and the bit-exact layer
(`bitexact_block`) draws the block's payloads in one call, makes one
encode per version for the whole block and decodes every distinct
(state, read) pair, the reads keyed as packed integers
(`model.unique_rows`). The block's decode matrices come
from one batched interpolation. A decoded symbol whose anchor the read
holds verbatim is checked as a copy of that systematic symbol; only the
other rows go through the field product, one stack-major product per
version and count of such rows. A state either block check cannot clear
goes back through its per-state reference, `check_state_counting` or
`check_state_bitexact`, which reports its violation.

Worst-case cost is measured over every (state, server) pair as an exact
fraction of k_bits, so it can be compared against the scheme budget with
zero tolerance.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from . import gf65536 as gf
from .allocation import (Scheme, allocation_for, alpha_bits, block_allocations, newest,
                         scheme_granularity, validate_regime)
from .codec import (encode_all, encode_slots, message_elements, quorum_decode,
                    slots_per_server)
from .errors import (CodecError, DecodeContractError, InconsistentSymbolsError,
                     WorkerError)
from .model import (Params, SystemState, block_size, check_work, distinct, latest_complete,
                    rank_masks, sample_masks, seeded_words, state_at, state_bytes, state_count,
                    state_from_masks, unique_rows)

COUNTING = "counting"
BITEXACT = "bitexact"

_SEED_STRIDE = 1_000_003  # spreads per-state payload seeds; keeps payloads jobs-independent
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
        if self.kind == "sampled" and self.count < 1:
            raise ValueError(f"sample count must be >= 1, got {self.count}")

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
def _read_set_tables(p: Params) -> tuple[np.ndarray, np.ndarray]:
    """The read sets of read_sets(p) as 0/1 tables, both read-only: R[t, r]
    = 1 when server t is in the r-th read set, in float64 for the BLAS
    product of decode_versions, and its int32 transpose for _decode_pairs."""
    sets = np.array(read_sets(p))
    members = np.zeros((len(sets), p.n), dtype=np.int32)
    members[np.arange(len(sets))[:, None], sets] = 1
    R = np.ascontiguousarray(members.T, dtype=np.float64)
    R.flags.writeable = members.flags.writeable = False
    return R, members


def decode_versions(holdings: np.ndarray, latest: np.ndarray, p: Params,
                    threshold: int) -> np.ndarray:
    """The counting rule of decodability for a block of states.
    `holdings[b, i, u-1]` is the symbols server i stores of version u in
    state b, and `latest[b]` that state's latest complete version, 0 when
    none is. Entry [b, r] is the newest version in [latest, nu] that reaches
    `threshold` symbols in the r-th read set of read_sets(p), 0 when none
    does."""
    R = _read_set_tables(p)[0]
    # read-set totals of integer counts, summed exactly in float64 by BLAS
    return newest([(holdings[:, :, u - 1].astype(np.float64) @ R >= threshold)
                   & (u >= latest)[:, None] for u in p.versions])


def short_states(holdings: np.ndarray, latest: np.ndarray, p: Params,
                 threshold: int) -> np.ndarray:
    """short_read_set for a block of states, with the arguments of
    decode_versions: True where a version is complete and some read set
    decodes none at or above it."""
    return (latest > 0) & (decode_versions(holdings, latest, p, threshold) == 0).any(1)


def check_state_counting(scheme: Scheme, S: SystemState, p: Params,
                         allocs: Sequence[Mapping[int, int]] | None = None) -> Violation | None:
    """First read set (if any) where no fresh-enough version reaches the
    symbol threshold. `allocs` may inject other {version: symbols} allocations,
    which is how broken-scheme behavior is exercised."""
    if allocs is None:
        allocs = [allocation_for(scheme, S, i, p) for i in range(p.n)]
    denom = scheme_granularity(scheme, p)
    latest = latest_complete(S, p)
    if latest is None:
        return None
    short = short_read_set(allocs, p, latest, denom)
    if short is None:
        return None
    T, totals = short
    return Violation(
        state=S, read_set=T, layer=COUNTING,
        reason=f"no version >= {latest} reaches {denom} symbols; counts {totals}")


def _require_byte_aligned(p: Params) -> None:
    if p.k_bits % 8 != 0:
        raise CodecError(f"the bit-exact layer needs byte-aligned K, got {p.k_bits}")


def _payload_bytes(p: Params, seeds: Sequence[int]) -> np.ndarray:
    """Each seed's payloads, (seeds, nu, K/8) bytes: version u's are the big-endian
    bytes of the seed's seeded_words (u-1)W .. uW-1, W = ceil(K/64), cut to K/8."""
    _require_byte_aligned(p)
    words = seeded_words(seeds, 0, p.nu * -(-p.k_bits // 64)).astype(">u8")
    return words.view(np.uint8).reshape(len(seeds), p.nu, -1)[:, :, :p.k_bits // 8]


def random_payloads(p: Params, seed: int) -> dict[int, bytes]:
    """The payload of every version under one seed, as _payload_bytes draws it."""
    return {u: row.tobytes() for u, row in zip(p.versions, _payload_bytes(p, [seed])[0])}


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
                  p: Params, denom: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What quorum_decode reads, for every read set of every state of a
    block that decodes a version. Server t of read set r contributes its
    counts[b, t, m-1] slots of version m = versions[b, r], and the decode
    reads the `denom` smallest of those indices. Returns the distinct
    reads, one row each: the version, then the indices in ascending order;
    and the distinct (state, read) pairs, as block positions and rows of
    the reads."""
    reads = versions.shape[1]
    # at[b, r, t]: server t's count of the version read set r decodes in
    # state b, kept where t is in r
    at = counts.transpose(0, 2, 1)[np.arange(len(versions))[:, None], versions - 1]
    at *= _read_set_tables(p)[1]
    # each array is freed once the next is built: the peak per read set is
    # what model.state_bytes counts
    keys = np.concatenate([versions[:, :, None], at], axis=2).reshape(-1, p.n + 1)
    del at
    decodes = np.flatnonzero(keys[:, 0])  # state * reads + read set
    keys = keys[decodes]
    unique, inverse = unique_rows(keys)
    del keys
    version, held = unique[:, 0], unique[:, 1:]
    # slot s of server t is index t * slots + s (slot_indices), so walking
    # (server, slot) in order walks the held indices in ascending order
    taken = np.arange(int(slots.max())) < held[:, :, None]
    taken &= taken.reshape(len(unique), -1).cumsum(1, dtype=np.int32).reshape(taken.shape) <= denom
    row, server, slot = np.nonzero(taken)
    chosen = (server * slots[version[row] - 1] + slot).reshape(-1, denom)
    read_rows, read_of_key = unique_rows(np.column_stack([version, chosen]))
    pairs = distinct(decodes // reads * len(read_rows) + read_of_key[inverse])
    return read_rows, pairs // len(read_rows), pairs % len(read_rows)


def bitexact_block(scheme: Scheme, p: Params, states: Sequence[SystemState],
                   counts: np.ndarray, seeds: Sequence[int], latest: np.ndarray,
                   versions: np.ndarray, masks: np.ndarray) -> list[Violation | None]:
    """check_state_bitexact for a block of states, given their symbol counts
    as block_allocations returns them, their latest complete versions (0
    for none), their decode table (decode_versions) and their version
    masks, one row each.

    The states with a complete version are encoded together, one matmul per
    version, and decoded together. Every distinct read's decode matrix
    comes from one batched `_lagrange` call. In a read's decode matrix, the
    row of an anchor the read holds verbatim is a unit row: that decoded
    symbol is a copy of the systematic symbol read, and is compared as
    such. The other rows go through the field product, one stacked,
    stack-major `matmul_stack` per version and count of unit rows, so every
    pair of a stack has as many product rows. A stack is cut into slices of
    model.block_size pairs. A state that is not encodable, has a
    read set with no decodable version, or decodes to other bytes goes
    through check_state_bitexact, which reports exactly what the reference
    reports.
    """
    if states:
        _require_byte_aligned(p)
    denom = scheme_granularity(scheme, p)
    slots = np.array([slots_per_server(scheme, u, p) for u in p.versions])
    held = (masks[:, :, None] >> np.arange(p.nu)) & 1 == 1
    # what server_encode accepts: only versions the server received, within
    # their slots, and every version's slots inside the index universe
    encodable = ((counts == 0) | (held & (counts > 0) & (counts <= slots)
                                  & (p.n * slots <= gf.ORDER))).all(axis=(1, 2))
    redo = ~encodable | ((latest > 0) & (versions == 0).any(1))
    live = np.flatnonzero(~redo & (latest > 0))  # every read set returns None elsewhere

    if live.size:
        payloads = _payload_bytes(p, [seeds[b] for b in live.tolist()])
        reads, owner, which = _decode_pairs(counts[live], versions[live], slots, p, denom)
        version, indices = reads[:, 0], reads[:, 1:]
        matrices = gf._lagrange(indices, range(denom))
        # indices ascend, so the anchors a read holds verbatim come first;
        # the rest of its anchors, ascending, are its product rows
        verbatim = indices < denom
        copies = verbatim.sum(1)
        product_rows = np.ones((len(indices), denom), dtype=bool)
        product_rows[np.nonzero(verbatim)[0], indices[verbatim]] = False
        pair_version, pair_copies = version[which], copies[which]
        for m in distinct(version).tolist():
            messages = message_elements(payloads[:, m - 1], p, denom)
            coded = encode_slots(scheme, p, m, messages)
            # a pair's temporaries take about 10 bytes per decode-matrix
            # entry, 10 per element read and 11 per element decoded
            step = block_size(denom * (10 * denom + 21 * messages.shape[2]))
            for copied in distinct(pair_copies[pair_version == m]).tolist():
                group = (pair_version == m) & (pair_copies == copied)
                pair_b, pair_r = owner[group], which[group]
                for lo in range(0, pair_b.size, step):
                    b, r = pair_b[lo:lo + step, None], pair_r[lo:lo + step]
                    rest = np.nonzero(product_rows[r])[1].reshape(len(r), denom - copied)
                    read = coded[indices[r], b]
                    wrong = (read[:, :copied] != messages[indices[r, :copied], b]).any((1, 2))
                    if copied < denom:
                        decoded = gf.matmul_stack(matrices[r[:, None], rest], read)
                        wrong |= (decoded != messages[rest, b]).any((1, 2))
                    redo[live[b[wrong, 0]]] = True

    return [check_state_bitexact(scheme, S, p, seed) if again else None
            for S, seed, again in zip(states, seeds, redo.tolist())]


def _block_masks(p: Params, mode: VerifyMode, lo: int, hi: int) -> np.ndarray:
    """The masks of states [lo, hi), one row each. Exhaustive state idx is
    rank idx (state_at); sampled state idx under seed k is row idx of
    sample_masks(p, k, ...)."""
    if mode.kind == "exhaustive":
        return rank_masks(p, lo, hi)
    return sample_masks(p, mode.seed, lo, hi)


def _state(p: Params, mode: VerifyMode, masks: np.ndarray, idx: int, b: int) -> SystemState:
    """The SystemState of state `idx`, row b of its block's masks."""
    if mode.kind == "exhaustive":
        return state_at(p, idx)
    return state_from_masks(masks[b].tolist())


def _verify_range(scheme: Scheme, p: Params, mode: VerifyMode,
                  layers: tuple[str, ...], start: int, stop: int,
                  max_violations: int) -> tuple[Fraction, list[Violation], int]:
    """States [start, stop) of the run: the worst per-server cost in bits,
    the first max_violations violations and the count of all of them."""
    denom = scheme_granularity(scheme, p)
    block = block_size(state_bytes(p, BITEXACT in layers))
    worst_symbols = 0
    violations: list[Violation] = []
    total = 0
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        masks = _block_masks(p, mode, lo, hi)
        counts, latest = block_allocations(scheme, masks, p)
        worst_symbols = max(worst_symbols, int(counts.sum(-1).max()))
        versions = decode_versions(counts, latest, p, denom)
        found: list[tuple[int, Violation | None]] = []  # (block position, violation)
        if COUNTING in layers:
            # short_states, from the block's one decode table
            for b in np.flatnonzero((latest > 0) & (versions == 0).any(1)).tolist():
                S = _state(p, mode, masks, lo + b, b)
                found.append((b, check_state_counting(scheme, S, p)))
        if BITEXACT in layers:
            states = [_state(p, mode, masks, lo + b, b) for b in range(hi - lo)]
            seeds = [mode.seed * _SEED_STRIDE + idx for idx in range(lo, hi)]
            found.extend(enumerate(bitexact_block(scheme, p, states, counts, seeds, latest,
                                                  versions, masks)))
        # in state order, a state's counting violation before its bit-exact one
        for _, violation in sorted(found, key=lambda pair: pair[0]):
            if violation is not None:
                total += 1
                if len(violations) < max_violations:
                    violations.append(violation)
    return Fraction(worst_symbols * p.k_bits, denom), violations, total


def verify(scheme: Scheme, p: Params, mode: VerifyMode,
           layers: tuple[str, ...] = (COUNTING, BITEXACT),
           jobs: int = 1, max_violations: int = 100,
           budget: int | None = None) -> VerifyReport:
    """Run the requested layers over all (or sampled) states.

    Deterministic for a fixed (scheme, params, mode, layers) regardless of
    jobs: sampled states and payloads are functions of (seed, index), and
    partial results merge in range order. The states are cut into one range
    per worker, and at most one worker runs per CPU.
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
    # the pool forks every worker at its first task; more than one per CPU
    # would only add forks
    workers = min(jobs, os.cpu_count() or 1)
    chunk = -(-n_states // workers)
    arg_sets = [(scheme, p, mode, layers, lo, min(lo + chunk, n_states), max_violations)
                for lo in range(0, n_states, chunk)]
    if len(arg_sets) == 1:
        partials = [_verify_range(*arg_sets[0])]
    else:
        # multiprocessing loads only for runs that use it
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                partials = list(pool.map(_verify_range, *zip(*arg_sets)))
        except BrokenProcessPool as exc:
            raise WorkerError(f"a verification worker stopped abnormally: {exc}") from exc

    violations = [v for _, found, _ in partials for v in found][:max_violations]
    report = VerifyReport(
        scheme=scheme.value,
        params=p.to_dict(),
        mode=mode.to_dict(),
        layers=layers,
        states_checked=n_states,
        read_sets_per_state=n_reads,
        violations_total=sum(total for _, _, total in partials),
        violations=violations,
        worst_case_bits=max(worst for worst, _, _ in partials),
        alpha_bits=alpha_bits(scheme, p),
        jobs=jobs,
        elapsed_s=time.monotonic() - started,
    )
    return report
