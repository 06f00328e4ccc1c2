"""Outside-in tracing of mvcode: wrap public functions, keep spans, derive per-layer metrics.

Nothing under ``src/`` is changed. mvcode modules import names directly
(``verifier`` holds its own ``encode_all``, ``codec`` its own
``latest_complete``), so each traced function is replaced in *every* mvcode
module that holds it, and every replacement is undone when tracing ends.

A span is (name, start, end, parent, request). A span opened while no other
span is open starts a new request: one top-level call from the benchmark
into mvcode. Spans live in flat arrays while the run is going and are
written out only at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import combinations
from time import perf_counter

from mvcode import gf65536
from workloads import latest_complete_of


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_read_sets(counts, args, kwargs, result):
    """Read sets the counting layer walked: all of them on a pass, up to
    the failing one on a violation, none when nothing is complete."""
    S, p = _arg(args, kwargs, 1, "S"), _arg(args, kwargs, 2, "p")
    if latest_complete_of(S.subsets, p.cw) is None:
        return
    sets = list(combinations(range(p.n), p.cr))
    counts["verifier.read_sets_checked"] += (
        len(sets) if result is None else sets.index(tuple(result.read_set)) + 1)


def _count_useful_encode(counts, args, kwargs, result):
    S, p = _arg(args, kwargs, 1, "S"), _arg(args, kwargs, 3, "p")
    if latest_complete_of(S.subsets, p.cw) is not None:
        counts["codec.encode_all.useful"] += 1


def _count_symbols(counts, args, kwargs, result):
    counts["codec.mds_encode.symbols"] += len(result)


def _count_json_bytes(counts, args, kwargs, result):
    counts["codec.stores_to_json.bytes"] += len(result)


def _count_matmul(counts, args, kwargs, result):
    A, B = _arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "B")
    m, k = A.shape
    counts["gf65536.matmul.mults"] += m * k * B.shape[1]
    counts["gf65536.matmul.bytes_computed"] += A.nbytes + B.nbytes + result.nbytes


def _record_solve(counts, args, kwargs, result):
    A = kwargs["constraints"].A
    counts["oracle.vars"] = len(_arg(args, kwargs, 0, "c"))
    counts["oracle.rows"] = A.shape[0]
    counts["oracle.nnz"] = A.nnz
    counts["oracle.mip_nodes"] = result.mip_node_count
    counts["oracle.mip_gap"] = result.mip_gap
    counts["oracle.status"] = result.status


# (module under mvcode, public name, hook run on each successful return,
#  per-layer times reported: "calls" for calls and self time, "self" for self
#  time only, None where the span feeds a derived metric such as oracle.solve_s)
TARGETS = (
    ("model", "state_at", None, "calls"),
    ("model", "random_state", None, "calls"),
    ("model", "side_view", None, "calls"),
    ("model", "latest_complete", None, "calls"),
    ("allocation", "allocation_for", None, "calls"),
    ("allocation", "validate_regime", None, "calls"),
    ("verifier", "verify", None, "self"),
    ("verifier", "check_state_counting", _count_read_sets, "calls"),
    ("verifier", "check_state_bitexact", None, "calls"),
    ("verifier", "random_payloads", None, "calls"),
    ("codec", "encode_all", _count_useful_encode, "calls"),
    ("codec", "server_encode", None, "calls"),
    ("codec", "mds_encode", _count_symbols, "calls"),
    ("codec", "quorum_decode", None, "calls"),
    ("codec", "mds_decode", None, "calls"),
    ("codec", "stores_to_json", _count_json_bytes, "self"),
    ("codec", "stores_from_json", None, "self"),
    ("gf65536", "matmul", _count_matmul, "calls"),
    ("gf65536", "mat_inv", None, "calls"),
    ("oracle", "oracle_min_cost_with_witness", None, None),
    ("oracle", "strategy_feasible", None, "self"),
    ("oracle", "milp", _record_solve, None),  # scipy's solver as oracle sees it
)


class Tracer:
    """In-memory span store; `wrap` returns a timed stand-in for a function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._requests = 0

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, nid: int, start: float, end: float, parent: int, request: int) -> int:
        """Append a span; returns its id. An open span has end 0.0 until it closes."""
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(request)
        return len(self.start) - 1

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        add, starts, ends = self.add, self.start, self.end
        requests, stack = self.request, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                req = requests[parent]
            else:
                parent = -1
                req = self._requests
                self._requests += 1
            sid = add(nid, 0.0, 0.0, parent, req)
            stack.append(sid)
            starts[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        traced.perfbench_traced = True
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def span_name(self, sid: int) -> str:
        return self.names[self.name[sid]]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that child spans cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append(sid)
        out = []
        for sid in range(len(self)):
            lo, hi = self.start[sid], self.end[sid]
            covered, reach = 0.0, lo
            for s, e in sorted((self.start[c], self.end[c]) for c in children.get(sid, ())):
                s, e = max(s, reach), min(e, hi)
                if e > s:
                    covered += e - s
                    reach = e
            out.append(hi - lo - covered)
        return out

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for sid, self_s in enumerate(self.self_times()):
            name = self.span_name(sid)
            calls[name] += 1
            total[name] += self.end[sid] - self.start[sid]
            own[name] += self_s
        return {name: (calls[name], total[name], own[name]) for name in calls}

    def write_spans(self, path) -> None:
        """Gzipped TSV: id, name, start, end, parent, request (times in s)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            t0 = self.start[0] if len(self) else 0.0
            for sid in range(len(self)):
                fh.write(f"{sid}\t{self.span_name(sid)}\t{self.start[sid] - t0:.9f}\t"
                         f"{self.end[sid] - t0:.9f}\t{self.parent[sid]}\t{self.request[sid]}\n")


def _mvcode_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "mvcode" or name.startswith("mvcode.")]


@contextmanager
def traced(tracer: Tracer):
    """Replace every target in every mvcode module that holds it; restore on exit."""
    replaced = []
    try:
        modules = _mvcode_modules()
        for module, attr, hook, _ in TARGETS:
            original = getattr(importlib.import_module(f"mvcode.{module}"), attr)
            wrapper = tracer.wrap(f"{module}.{attr}", original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced.append((mod, key, original))
        yield tracer
    finally:
        for mod, key, original in reversed(replaced):
            setattr(mod, key, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, verdict_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced verdict, as name -> (value, unit).

    Self times are in seconds (``*.self_s``). Each is also given as a share of
    the traced verdict (``*.self_share``), which cancels a change in host
    speed but is coupled across layers: when one layer gets faster, every
    other layer's share grows. Layers a workload never reaches read 0 calls
    and 0 s.
    """
    agg = tracer.aggregate()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    for module, attr, _, reported in TARGETS:
        if reported is None:
            continue
        name = f"{module}.{attr}"
        calls, _, own = agg.get(name, (0, 0.0, 0.0))
        if reported == "calls":
            out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (own, "s")
        out[f"{name}.self_share"] = (_ratio(own, verdict_s), "ratio")

    # a decode is systematic when it needs no matmul
    decodes, bitexact_decodes = 0, 0
    decodes_with_matmul: set[int] = set()
    for sid in range(len(tracer)):
        name, parent = tracer.span_name(sid), tracer.parent[sid]
        parent_name = tracer.span_name(parent) if parent >= 0 else None
        if name == "codec.mds_decode":
            decodes += 1
        elif name == "gf65536.matmul" and parent_name == "codec.mds_decode":
            decodes_with_matmul.add(parent)
        elif name == "codec.quorum_decode" and parent_name == "verifier.check_state_bitexact":
            bitexact_decodes += 1
    systematic = decodes - len(decodes_with_matmul)

    out["verifier.read_sets_checked"] = (
        counts["verifier.read_sets_checked"] + bitexact_decodes, "count")
    out["verifier.encode_useful_ratio"] = (
        _ratio(counts["codec.encode_all.useful"], agg.get("codec.encode_all", (0,))[0]), "ratio")
    out["codec.mds_encode.symbols"] = (counts["codec.mds_encode.symbols"], "count")
    out["codec.mds_decode.systematic_ratio"] = (_ratio(systematic, decodes), "ratio")
    out["codec.stores_to_json.bytes"] = (counts["codec.stores_to_json.bytes"], "B")

    matmuls = agg.get("gf65536.matmul", (0,))[0]
    out["gf65536.matmul.mults"] = (counts["gf65536.matmul.mults"], "count")
    out["gf65536.matmul.bytes_computed"] = (counts["gf65536.matmul.bytes_computed"], "B")
    out["gf65536.matmul.mults_per_call"] = (_ratio(counts["gf65536.matmul.mults"], matmuls),
                                            "count")
    for cached in ("generator_row", "decode_matrix"):
        info = getattr(gf65536, cached).cache_info()
        out[f"gf65536.{cached}.hit_ratio"] = (_ratio(info.hits, info.hits + info.misses), "ratio")

    solve_s = agg.get("oracle.milp", (0, 0.0))[1]
    build_s = agg.get("oracle.oracle_min_cost_with_witness", (0, 0.0))[1] - solve_s
    out["oracle.build_s"] = (build_s, "s")
    out["oracle.solve_s"] = (solve_s, "s")
    out["oracle.build_share"] = (_ratio(build_s, verdict_s), "ratio")
    out["oracle.solve_share"] = (_ratio(solve_s, verdict_s), "ratio")
    for key, unit in (("vars", "count"), ("rows", "count"), ("nnz", "count"),
                      ("mip_nodes", "count"), ("mip_gap", "ratio")):
        out[f"oracle.{key}"] = (counts[f"oracle.{key}"], unit)
    out["oracle.status"] = (counts.get("oracle.status", -1), "code")
    return out
