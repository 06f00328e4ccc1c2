"""The names the benchmark's tracer reads from mvcode still resolve.

perfbench/tracing.py wraps mvcode functions by module and name and reads
lru_cache statistics of gf65536; a rename under src/ would break a traced
benchmark run while every other test stays green. This traces one small
verify and one oracle solve and checks that every per-layer metric
BENCHMARK.json declares (apart from the harness's own setup.* and trace.*
figures) comes out of `layer_metrics`.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from mvcode import Params, Scheme, VerifyMode, verify
from mvcode.oracle import oracle_min_cost_with_witness

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402

P = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=1024)


def test_layer_metrics_names_every_declared_per_layer_metric():
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        started = perf_counter()
        assert verify(Scheme.C1, P, VerifyMode.exhaustive()).passed
        oracle_min_cost_with_witness(P, 2)
        verdict_s = perf_counter() - started
    metrics = tracing.layer_metrics(tracer, verdict_s)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                if not m["name"].startswith(("setup.", "trace."))}
    assert declared - set(metrics) == set()
    # the wrapped functions were reached, not just named
    assert metrics["model.state_at.calls"][0] > 0
    assert metrics["oracle.vars"][0] > 0
