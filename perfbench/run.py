"""mvcode benchmark: run a workload for a fixed time, check every output, print its metrics.

    python3 perfbench/run.py --workload verify-c1-exh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each repetition is one verdict in a fresh interpreter (see worker.py). The
loop is closed: one caller, and the next repetition starts when the previous
one has ended, until --seconds have passed. --trace 0 reports the end-to-end
metrics; --trace 1 runs one untraced repetition, then at least two traced
ones, and reports the per-layer metrics. The last line of standard output is
one JSON object with the metrics that BENCHMARK.json names; every metric,
with the run's context and raw samples, also goes to perfbench/out/. Exits 1 if any check failed and
2 if the sources or BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("verify-c1-exh", "verify-c2-count", "oracle-n5", "roundtrip-wide")
MIN_SETUP_SAMPLES = 5
REP_TIMEOUT_S = 120
E2E_UNITS = {"setup_s": "s", "verdict_s": "s", "states_per_s": "states/s", "peak_rss_mb": "MB"}
IMPORT_METRICS = {"mvcode.gf65536": "setup.import_s.gf65536",
                  "mvcode.oracle": "setup.import_s.oracle",
                  "mvcode": "setup.import_s.total"}


class RepFailed(Exception):
    """A repetition crashed, timed out or printed no result."""


def run_child(mode: str, workload: str, seed: int, spans_out: Path | None = None) -> dict:
    cmd = [sys.executable]
    if mode == "trace":
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "worker.py"), mode, workload, str(seed)]
    if spans_out is not None:
        cmd.append(str(spans_out))
    env = dict(os.environ)
    env.pop("MVCODE_BUDGET", None)  # the workloads fit the default budget
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{mode} repetition timed out after {REP_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise RepFailed(f"{mode} repetition exited {proc.returncode}: {tail}")
    record = json.loads(lines[-1])
    if mode == "trace":
        record["import_s"] = parse_importtime(proc.stderr)
    return record


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of the mvcode modules, from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[-1].strip()
        if name in IMPORT_METRICS:
            out[IMPORT_METRICS[name]] = int(fields[1]) / 1e6
    return out


def context() -> dict:
    """What a result must carry to be compared with another one."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat verdicts for `seconds`; returns metrics, samples and check totals."""
    untraced: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    attempted = failed = 0
    spans_out = OUT / f"{workload}-seed{seed}.spans.tsv.gz"
    started = perf_counter()
    while True:
        # traced mode: one untraced verdict for the overhead ratio, then at
        # least two traced ones, whose counts must agree
        mode = ("trace" if trace and untraced and len(traced) < max(2, len(untraced))
                else "run")
        try:
            rec = run_child(mode, workload, seed,
                            spans_out if mode == "trace" and not traced else None)
        except RepFailed as exc:
            attempted, failed = attempted + 1, failed + 1
            failures.append(str(exc))
            break
        (traced if mode == "trace" else untraced).append(rec)
        attempted += rec["attempted"]
        failed += rec["failed"]
        failures.extend(rec["failures"])
        if perf_counter() - started >= seconds and (len(traced) >= 2 or not trace):
            break

    metrics: dict[str, tuple[float, str]] = {}
    samples: dict[str, list] = {}
    if untraced:
        samples["verdict_s"] = [r["verdict_s"] for r in untraced]
        samples["setup_s"] = [r["setup_s"] for r in untraced]
        while not trace and not failures and len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
            try:
                samples["setup_s"].append(run_child("import", workload, seed)["setup_s"])
            except RepFailed as exc:
                attempted, failed = attempted + 1, failed + 1
                failures.append(str(exc))
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in untraced]
        samples["states_per_s"] = [r["states"] / r["verdict_s"] for r in untraced]
        for key, unit in E2E_UNITS.items():
            metrics[key] = (statistics.median(samples[key]), unit)
        if untraced[0]["encode_bytes"]:
            for side in ("encode", "decode"):
                samples[f"{side}_MBps"] = [r[f"{side}_bytes"] / 1e6 / r[f"{side}_s"]
                                           for r in untraced]
                metrics[f"{side}_MBps"] = (statistics.median(samples[f"{side}_MBps"]), "MB/s")

    differing = []
    if traced:
        layers = [r["layers"] for r in traced]
        for name, (value, unit) in layers[0].items():
            values = [layer[name][0] for layer in layers]
            if unit == "s" or name.endswith("_share"):
                metrics[name] = (statistics.median(values), unit)
            else:
                metrics[name] = (value, unit)
                if any(v != value for v in values):
                    differing.append(f"per-layer count {name} differs between traced runs: {values}")
        for name in IMPORT_METRICS.values():
            metrics[name] = (statistics.median([r["import_s"][name] for r in traced]), "s")
        samples["trace.verdict_s"] = [r["verdict_s"] for r in traced]
        metrics["trace.verdict_s"] = (statistics.median(samples["trace.verdict_s"]), "s")
        if untraced:
            metrics["trace.overhead_ratio"] = (
                metrics["trace.verdict_s"][0] / statistics.median(samples["verdict_s"]), "ratio")
        samples["spans"] = [r["spans"] for r in traced]
    if trace:  # counts must repeat exactly
        if len(traced) < 2:
            differing.append(f"{len(traced)} traced verdicts: per-layer counts not compared")
        attempted += 1
        failed += bool(differing)
        failures.extend(differing)
    metrics["fail_ratio"] = (failed / attempted if attempted else 1.0, "ratio")

    config = (untraced or traced or [{"config": None}])[0]["config"]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "config": config, "repetitions": {"untraced": len(untraced), "traced": len(traced)},
            "attempted": attempted, "failed": failed, "failures": failures[:50],
            "metrics": metrics, "samples": samples,
            "spans_file": str(spans_out.relative_to(ROOT)) if traced else None}


def select(result: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order, with its units."""
    out = {}
    for spec in declared:
        value, unit = result["metrics"][spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} measured in {unit}, declared in {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def report(result: dict, ctx: dict) -> None:
    result_path = OUT / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    doc = dict(result, context=ctx,
               metrics={k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()})
    result_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    reps = result["repetitions"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"untraced={reps['untraced']} traced={reps['traced']} "
          f"checks={result['attempted'] - result['failed']}/{result['attempted']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{result['workload']:<16} {name:<40} {value:>16.6g} {unit}")
    for failure in result["failures"]:
        print(f"{result['workload']:<16} FAILED {failure}")
    print(f"# results: {result_path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mvcode" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/mvcode or BENCHMARK.json", file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    ctx = context()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        report(result, ctx)
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        if result["failed"]:
            combined["correct"] = False
            continue
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in select(result, declared).items():
            combined["metrics"][prefix + key] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
