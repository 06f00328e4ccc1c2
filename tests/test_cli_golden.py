"""Golden CLI transcript: a fixed battery of invocations that reaches every
subcommand and every exit code, pinned by exit code, stdout, stderr and the
bytes of every file a run writes.

Paths are written as ``{tmp}``; the ``elapsed_s`` field of ``verify`` is
blanked because it is wall time. After an intended change of output,
regenerate the golden file with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and review its diff.
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

from mvcode import Params, Scheme, SystemState, encode_all
from mvcode.cli import main
from mvcode.codec import stores_to_json

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"

RING6 = ["--n", "6", "--cw", "5", "--cr", "5", "--nu", "2", "--h", "2", "--K", "1024"]
RING4 = ["--n", "4", "--cw", "4", "--cr", "4", "--nu", "2", "--K", "1024"]
RT_C1 = ["roundtrip", "--scheme", "c1"] + RING6
FULL = ["--state", "{tmp}/full.json"]
PAYLOADS = ["--payloads", "{tmp}/v1.bin", "{tmp}/v2.bin"]

# (case name, argv, files the run writes under {tmp})
BATTERY = [
    ("verify-c1-exhaustive-counting",
     ["verify", "--scheme", "c1", *RING6, "--layers", "counting",
      "--out", "{tmp}/verify-c1.json"], ["verify-c1.json"]),
    ("verify-c2-sampled-both-layers",
     ["verify", "--scheme", "c2", *RING6, "--mode", "sampled", "--samples", "40",
      "--seed", "3", "--out", "{tmp}/verify-c2.json"], ["verify-c2.json"]),
    ("verify-central-sampled-bitexact",
     ["verify", "--scheme", "central", *RING4, "--h", "2", "--mode", "sampled",
      "--samples", "25", "--seed", "1", "--layers", "bitexact", "--max-violations", "0"], []),
    ("verify-odd-n", ["verify", "--scheme", "c1", "--n", "7", "--cw", "6", "--cr", "6",
                      "--h", "2"], []),
    ("verify-over-budget", ["verify", "--scheme", "c2", "--n", "8", "--cw", "7", "--cr", "7",
                            "--nu", "3", "--h", "3", "--budget", "1000"], []),
    ("verify-unknown-layer", ["verify", "--scheme", "c1", *RING6, "--layers", "counting,nope"],
     []),
    ("verify-no-layers", ["verify", "--scheme", "c1", "--n", "4", "--cw", "3", "--cr", "3",
                          "--h", "1", "--layers", ",,"], []),
    ("verify-repeated-layer", ["verify", "--scheme", "c1", *RING6,
                               "--layers", "counting,counting"], []),
    ("verify-bad-mode", ["verify", "--scheme", "c1", *RING6, "--mode", "random"], []),
    ("verify-zero-samples", ["verify", "--scheme", "c2", *RING6, "--mode", "sampled",
                             "--samples", "0"], []),
    ("table-csv", ["table", "--nu", "2", "--c", "3:10"], []),
    ("table-json-file", ["table", "--nu", "3", "--c", "4:6", "--K", "999", "--format", "json",
                         "--out", "{tmp}/table.json"], ["table.json"]),
    ("table-single", ["table", "--c", "5"], []),
    ("table-reversed-range", ["table", "--nu", "2", "--c", "9:3"], []),
    ("table-zero-k", ["table", "--c", "3:4", "--K", "0"], []),
    ("table-not-a-number", ["table", "--c", "x:y"], []),
    ("fixtures-thm3-file", ["fixtures", "--which", "thm3", "--n", "6",
                            "--out", "{tmp}/thm3.json"], ["thm3.json"]),
    ("fixtures-thm4", ["fixtures", "--which", "thm4", "--n", "11", "--c", "3"], []),
    ("fixtures-thm4-h1", ["fixtures", "--which", "thm4", "--n", "11", "--c", "3", "--h", "1"],
     []),
    ("fixtures-thm4-h0", ["fixtures", "--which", "thm4", "--n", "11", "--c", "3", "--h", "0",
                          "--K", "64"], []),
    ("fixtures-thm4-bad-n", ["fixtures", "--which", "thm4", "--n", "12", "--c", "3"], []),
    # state seed 5 is the first whose c1 n=6 state has a complete version
    ("roundtrip-seeded-stores-out",
     [*RT_C1, "--state-seed", "5", "--payload-seed", "5", "--read-seed", "2",
      "--stores-out", "{tmp}/seeded-stores.json"], ["seeded-stores.json"]),
    ("roundtrip-c2-state-file", ["roundtrip", "--scheme", "c2", *RING6, *FULL,
                                 "--payload-seed", "4", "--read-seed", "1"], []),
    ("roundtrip-null", [*RT_C1, "--state", "{tmp}/empty.json", "--payload-seed", "1"], []),
    ("roundtrip-payload-files",
     [*RT_C1, *FULL, *PAYLOADS, "--read-set", "0,1,2,3,5",
      "--stores-out", "{tmp}/file-stores.json"], ["file-stores.json"]),
    ("roundtrip-tampered-store",
     [*RT_C1, *FULL, *PAYLOADS, "--read-set", "0,1,2,3,5",
      "--stores-in", "{tmp}/tampered.json"], []),
    ("roundtrip-truncated-store",
     [*RT_C1, *FULL, "--payload-seed", "1", "--stores-in", "{tmp}/truncated.json"], []),
    ("roundtrip-partial-store",
     [*RT_C1, *FULL, "--payload-seed", "1", "--stores-in", "{tmp}/partial.json"], []),
    ("roundtrip-short-payload",
     [*RT_C1, *FULL, "--payloads", "{tmp}/short.bin", "{tmp}/v2.bin"], []),
    ("roundtrip-one-payload", [*RT_C1, *FULL, "--payloads", "{tmp}/v1.bin"], []),
    ("roundtrip-comma-directory",
     [*RT_C1, *FULL, "--payloads", "{tmp}/a,b/v1.bin", "{tmp}/a,b/v2.bin",
      "--read-set", "0,1,2,3,5"], []),
    ("roundtrip-missing-state", [*RT_C1, "--state", "{tmp}/absent.json"], []),
    ("roundtrip-unaligned-k", ["roundtrip", "--scheme", "c1", *RING6[:-1], "1020"], []),
    ("roundtrip-short-read-set", [*RT_C1, *FULL, "--read-set", "0,1"], []),
    ("oracle-full-information", ["oracle", *RING4, "--h", "2", "--G", "4"], []),
    ("oracle-max-g", ["oracle", *RING4, "--h", "0", "--G", "12", "--max-g", "12"], []),
    ("oracle-over-granularity", ["oracle", *RING4, "--h", "0", "--G", "5"], []),
    ("oracle-over-size", ["oracle", "--n", "7", "--cw", "7", "--cr", "7", "--G", "4"], []),
    ("oracle-zero-granularity", ["oracle", *RING4, "--G", "0"], []),
    ("help", ["--help"], []),
    ("no-arguments", [], []),
    ("unknown-subcommand", ["frobnicate"], []),
    ("missing-required", ["verify", "--n", "6"], []),
]


def write_inputs(tmp: Path) -> None:
    """The state, payload and store files the battery reads."""
    (tmp / "full.json").write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
    (tmp / "empty.json").write_text("[[], [], [], [], [], []]")
    v1, v2 = bytes(range(128)), bytes(reversed(range(128)))
    (tmp / "a,b").mkdir()
    for folder in (tmp, tmp / "a,b"):
        (folder / "v1.bin").write_bytes(v1)
        (folder / "v2.bin").write_bytes(v2)
    (tmp / "short.bin").write_bytes(b"x")
    (tmp / "truncated.json").write_text('{"0": [[1, 0, "ab')
    (tmp / "partial.json").write_text('{"0": [], "3": []}')
    # the payload-files stores with server 0's first version-2 share altered
    p = Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=1024)
    state = SystemState.of(p, [{1, 2}] * 5 + [set()])
    doc = json.loads(stores_to_json(encode_all(Scheme.C1, state, {1: v1, 2: v2}, p)))
    entry = next(e for e in doc["0"] if e[0] == 2)
    entry[2] = ("1" if entry[2][0] == "0" else "0") + entry[2][1:]
    (tmp / "tampered.json").write_text(json.dumps(doc))


def run_case(tmp: Path, argv: list[str], files: list[str]) -> dict:
    """Run one invocation in-process; return its normalized transcript."""
    args = [a.replace("{tmp}", str(tmp)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage text at the terminal width
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)

    def clean(text: str) -> str:
        text = text.replace(str(tmp), "{tmp}")
        return re.sub(r"elapsed_s=\d+\.\d+", "elapsed_s=_", text)

    return {"argv": argv, "exit": code, "stdout": clean(out.getvalue()),
            "stderr": clean(err.getvalue()),
            "files": {name: (tmp / name).read_bytes().decode() for name in files}}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    tmp = tmp_path_factory.mktemp("golden")
    write_inputs(tmp)
    return tmp


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_battery_reaches_every_subcommand_and_exit_code(golden):
    assert [name for name, _, _ in BATTERY] == list(golden)
    assert {case["exit"] for case in golden.values()} == {0, 1, 2}
    commands = {case["argv"][0] for case in golden.values() if case["argv"]}
    assert {"verify", "table", "fixtures", "roundtrip", "oracle"} <= commands


@pytest.mark.parametrize("name,argv,files", BATTERY, ids=[c[0] for c in BATTERY])
def test_transcript_matches_golden(name, argv, files, inputs, golden):
    assert run_case(inputs, argv, files) == golden[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        write_inputs(tmp)
        transcript = {name: run_case(tmp, argv, files) for name, argv, files in BATTERY}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(transcript, indent=1) + "\n")
    print(f"wrote {len(transcript)} cases to {GOLDEN}", file=sys.stderr)
