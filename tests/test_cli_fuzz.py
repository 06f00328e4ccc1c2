"""Malformed input files through `mvcode roundtrip`: every --state,
--stores-in and --payloads file, however broken, ends in exit 0, 1 or 2,
never in a traceback, and an exit 2 prints exactly one `error:` line."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from mvcode.cli import EXIT_CONFIG, EXIT_OK, main

ARGS = ["roundtrip", "--scheme", "c1", "--n", "6", "--cw", "5", "--cr", "5",
        "--nu", "2", "--h", "2", "--K", "256"]
STATE = "[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]"
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.integers(-(1 << 70), 1 << 70)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=16)
# mostly well-formed: n lists of version ids, some out of range or repeated
near_states = st.lists(st.lists(st.integers(1, 2) | st.integers(-1, 3), max_size=3),
                       min_size=5, max_size=7)
raw_text = st.text(max_size=40) | st.binary(max_size=40).map(lambda b: b.decode("latin-1"))


def run_cli(argv):
    """Run the CLI, check the exit-code contract, and return the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == EXIT_CONFIG:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A scratch directory holding the valid state file and the store file
    of an exit-0 round trip, which the store fuzz mutates."""
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "state.json").write_text(STATE)
    stores = folder / "valid.json"
    assert run_cli(ARGS + ["--state", str(folder / "state.json"), "--payload-seed", "1",
                           "--stores-out", str(stores)]) == EXIT_OK
    return folder, json.loads(stores.read_text())


@FUZZ
@given(st.one_of(json_values.map(json.dumps), near_states.map(json.dumps), raw_text))
def test_state_files(files, text):
    folder, _ = files
    state = folder / "fuzzed_state.json"
    state.write_bytes(text.encode("utf-8", "surrogatepass"))
    run_cli(ARGS + ["--state", str(state), "--payload-seed", "1"])


def hex_edits(payload):
    """A payload with other bytes of its length, truncated, extended, or
    with a non-hex or odd tail."""
    return st.one_of(st.text("0123456789abcdef", min_size=len(payload), max_size=len(payload)),
                     st.integers(0, len(payload)).map(lambda k: payload[:k]),
                     st.text("0123456789abcdefABCDEF", max_size=6).map(lambda t: payload + t),
                     st.text(max_size=3).map(lambda t: payload[:-1] + t))


@st.composite
def store_docs(draw, valid):
    """The valid store document with one or two random edits: a server's
    key, its entry list, one entry, one field or one payload replaced, a
    server or an entry dropped, or an entry repeated."""
    doc = json.loads(json.dumps(valid))
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from(sorted(doc))) if doc else None
        entries = doc.get(key)
        kind = draw(st.sampled_from(["key", "server", "drop server", "entry", "field",
                                     "payload", "drop entry", "repeat entry"]))
        if key is None or kind == "key":
            doc[draw(st.text(max_size=3) | st.integers(0, 9).map(str))] = draw(json_values)
        elif kind == "drop server":
            del doc[key]
        elif kind == "server" or not isinstance(entries, list) or not entries:
            doc[key] = draw(json_values)
        else:
            at = draw(st.integers(0, len(entries) - 1))
            entry = entries[at]
            if kind == "drop entry":
                del entries[at]
            elif kind == "repeat entry":
                entries.insert(draw(st.integers(0, len(entries))), entry)
            elif kind == "entry" or not isinstance(entry, list) or len(entry) != 3:
                entries[at] = draw(json_values)
            elif kind == "field":
                entry[draw(st.integers(0, 2))] = draw(st.integers(-1, 20) | json_values)
            elif isinstance(entry[2], str):
                entry[2] = draw(hex_edits(entry[2]))
    return json.dumps(doc)


@FUZZ
@given(st.data())
def test_store_files(files, data):
    folder, valid = files
    text = data.draw(store_docs(valid) | raw_text
                     | st.integers(0, 400).map(lambda k: json.dumps(valid)[:k]))
    stores = folder / "fuzzed_stores.json"
    stores.write_bytes(text.encode("utf-8", "surrogatepass"))
    read_set = data.draw(st.sampled_from(["0,1,2,3,4", "1,2,3,4,5", "0,2,3,4,5"]))
    run_cli(ARGS + ["--state", str(folder / "state.json"), "--payload-seed", "1",
                    "--read-set", read_set, "--stores-in", str(stores)])


@FUZZ
@given(st.lists(st.binary(max_size=40) | st.binary(min_size=32, max_size=32),
                min_size=1, max_size=3))
def test_payload_files(files, payloads):
    folder, _ = files
    paths = []
    for u, payload in enumerate(payloads, 1):
        path = folder / f"v{u}.bin"
        path.write_bytes(payload)
        paths.append(str(path))
    code = run_cli(ARGS + ["--state", str(folder / "state.json"), "--payloads", *paths])
    # two payloads of K/8 = 32 bytes each round-trip; anything else is refused
    assert (code == EXIT_OK) == (len(payloads) == 2 and {len(b) for b in payloads} == {32})
