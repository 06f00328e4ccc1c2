"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED [SPANS_OUT]

MODE is ``import`` (time ``import mvcode`` only), ``run`` (one untraced
verdict) or ``trace`` (one verdict with every traced function wrapped; the
spans go to SPANS_OUT when given). A fresh process per verdict means codec
caches start cold, as they do for every CLI invocation. The last line of
standard output is one JSON object; run.py reads it.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[1], argv[2], int(argv[3])
    spans_out = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, str(SRC))

    started = perf_counter()
    import mvcode
    setup_s = perf_counter() - started
    if Path(mvcode.__file__).resolve().parent != SRC / "mvcode":
        print(f"error: imported mvcode from {mvcode.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    record: dict = {"setup_s": setup_s}

    if mode != "import":
        from workloads import WORKLOADS

        wl = WORKLOADS[workload]
        inputs = wl.prepare(seed)
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                outcome = wl.run(inputs)
            record["layers"] = tracing.layer_metrics(tracer, outcome.verdict_s)
            record["spans"] = len(tracer)
            if spans_out:
                tracer.write_spans(spans_out)
        else:
            outcome = wl.run(inputs)
        failures = [name for name, ok in outcome.checks if not ok]
        record.update(
            config=wl.config, verdict_s=outcome.verdict_s, states=outcome.states,
            attempted=len(outcome.checks), failed=len(failures), failures=failures[:20],
            encode_bytes=outcome.encode_bytes, encode_s=outcome.encode_s,
            decode_bytes=outcome.decode_bytes, decode_s=outcome.decode_s)

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
