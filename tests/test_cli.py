"""CLI subcommands: happy paths, exit-code contract, determinism, config."""

import concurrent.futures
import itertools
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from mvcode.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, main
from mvcode.model import Params, latest_complete, random_state
from helpers import certified


def run(argv):
    return main(argv)


def _config_error(code, capsys):
    """Assert the run exited 2 with no output and one error line; return it."""
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


class TestVerifyCommand:
    def test_c1_exhaustive_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["verify", "--scheme", "c1", "--n", "6", "--cw", "5", "--cr", "5",
                    "--nu", "2", "--h", "2", "--K", "1024", "--mode", "exhaustive",
                    "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["worst_case_bits"]["float"] == 384.0
        assert "worst_case_bits=384.0" in capsys.readouterr().out

    def test_c2_worst_case(self, capsys):
        code = run(["verify", "--scheme", "c2", "--n", "6", "--cw", "5", "--cr", "5",
                    "--nu", "2", "--h", "2", "--K", "1024", "--layers", "counting"])
        assert code == EXIT_OK
        assert "worst_case_bits=512.0" in capsys.readouterr().out

    def test_central_at_a_radius_of_a_billion(self, capsys):
        # the window is computed in closed form, so a huge radius costs nothing
        code = run(["verify", "--scheme", "central", "--n", "4", "--cw", "3", "--cr", "3",
                    "--nu", "2", "--h", str(10**9), "--K", "1024", "--layers", "counting"])
        assert code == EXIT_OK
        assert "violations=0" in capsys.readouterr().out

    def test_odd_n_is_a_config_error(self, capsys):
        code = run(["verify", "--scheme", "c1", "--n", "7", "--cw", "6", "--cr", "6",
                    "--nu", "2", "--h", "2", "--K", "1024"])
        assert code == EXIT_CONFIG
        assert "even n" in capsys.readouterr().err

    def test_budget_exceeded_is_a_config_error(self):
        code = run(["verify", "--scheme", "c2", "--n", "8", "--cw", "7", "--cr", "7",
                    "--nu", "3", "--h", "3", "--K", "1024", "--mode", "exhaustive",
                    "--budget", "1000"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flags,message", [
        (["--mode", "sampled", "--samples", "-5"], "sample count must be >= 1, got -5"),
        (["--max-violations", "-1"], "max_violations must be >= 0, got -1"),
        (["--jobs", "0"], "jobs must be >= 1, got 0"),
        (["--jobs", "-3"], "jobs must be >= 1, got -3"),
    ])
    def test_negative_counts_are_config_errors(self, capsys, flags, message):
        code = run(["verify", "--scheme", "c1", "--n", "4", "--cw", "3", "--cr", "3",
                    "--h", "1", "--K", "64"] + flags)
        assert _config_error(code, capsys) == f"error: {message}\n"

    def test_nu_beyond_the_int64_masks_is_a_config_error(self, capsys):
        args = ["verify", "--scheme", "central", "--n", "4", "--cw", "3", "--cr", "3",
                "--h", "2", "--K", "1024", "--mode", "sampled", "--samples", "5"]
        assert _config_error(run(args + ["--nu", "64"]), capsys) == (
            "error: verify needs nu <= 63 (states are int64 bit masks), got nu=64\n")
        assert run(args + ["--nu", "63"]) == EXIT_OK
        assert "states=5 " in capsys.readouterr().out

    @pytest.mark.usefixtures("four_cpus")
    def test_deterministic_report_files(self, tmp_path):
        args = ["verify", "--scheme", "c2", "--n", "6", "--cw", "5", "--cr", "5",
                "--nu", "2", "--h", "2", "--K", "1024", "--mode", "sampled",
                "--samples", "200", "--seed", "11", "--layers", "counting"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(out1)]) == EXIT_OK
        assert run(args + ["--out", str(out2), "--jobs", "3"]) == EXIT_OK
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        d1.pop("jobs"), d2.pop("jobs")
        assert d1 == d2
        # byte-identical when the whole config matches
        out3 = tmp_path / "c.json"
        assert run(args + ["--out", str(out3)]) == EXIT_OK
        assert out1.read_bytes() == out3.read_bytes()


class TestTableCommand:
    def test_csv_rows(self, capsys):
        assert run(["table", "--nu", "2", "--c", "3:10"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9
        assert lines[1].startswith("3,") and lines[1].endswith("no-help")

    def test_single_row_json(self, tmp_path):
        out = tmp_path / "row.json"
        assert run(["table", "--nu", "2", "--c", "4:4", "--K", "1024",
                    "--format", "json", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc[0]["cost_c1"] == 384.0
        assert doc[0]["verdict"] == "side-info gain"

    def test_nu3_c2_column_defined_from_c5(self, capsys):
        assert run(["table", "--nu", "3", "--c", "3:12"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        cells = {int(r.split(",")[0]): r.split(",")[5] for r in rows}
        assert cells[3] == "" and cells[4] == ""
        assert all(cells[c] != "" for c in range(5, 13))

    def test_bad_range(self):
        assert run(["table", "--nu", "2", "--c", "9:3"]) == EXIT_CONFIG


class TestFixturesCommand:
    def test_thm3(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["fixtures", "--which", "thm3", "--n", "6",
                    "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["check_ok"] is True
        assert doc["s1"] == [[1, 2]] * 5 + [[]]
        assert doc["s2"] == [[1, 2]] * 4 + [[1], []]
        assert doc["indistinguishable"] == [1]
        assert doc["latest_complete"] == {"s1": 2, "s2": 1}

    def test_thm4(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["fixtures", "--which", "thm4", "--n", "11", "--c", "3",
                    "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["check_ok"] is True
        assert doc["indistinguishable"] == [0, 1, 2]
        assert "l=1" in doc["read_sets"]

    def test_thm4_honours_h(self, tmp_path):
        out = tmp_path / "f.json"
        assert run(["fixtures", "--which", "thm4", "--n", "11", "--c", "3", "--h", "1",
                    "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["params"]["h"] == 1
        assert doc["check_ok"] is True

    def test_thm4_regime_violation(self):
        assert run(["fixtures", "--which", "thm4", "--n", "12", "--c", "3"]) == EXIT_CONFIG

    def test_thm3_below_four_servers(self, capsys):
        err = _config_error(run(["fixtures", "--which", "thm3", "--n", "2"]), capsys)
        assert err == "error: the thm3 pair needs even n >= 4, got 2\n"


class TestRoundtripCommand:
    ARGS = ["roundtrip", "--scheme", "c1", "--n", "6", "--cw", "5", "--cr", "5",
            "--nu", "2", "--h", "2", "--K", "1024"]

    def test_random_payloads_match(self, capsys):
        # the first state seed whose state has a complete version
        p = Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=1024)
        seed = next(s for s in itertools.count() if latest_complete(random_state(p, s), p))
        code = run(self.ARGS + ["--state-seed", str(seed), "--payload-seed", "5",
                                "--read-seed", "2"])
        assert code == EXIT_OK
        assert "match=true" in capsys.readouterr().out

    def test_a_server_named_twice_is_a_config_error(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        code = run(self.ARGS + ["--state", str(state), "--read-set", "0,0,1,2,3,4"])
        assert _config_error(code, capsys) == (
            "error: read set must contain 5 distinct servers, got (0, 0, 1, 2, 3, 4)\n")

    NU64 = ["roundtrip", "--scheme", "central", "--n", "2", "--cw", "2", "--cr", "2",
            "--nu", "64", "--h", "1", "--K", "8"]

    def test_a_state_seed_needs_nu_at_most_63(self, capsys):
        code = run(self.NU64 + ["--state-seed", "3"])
        assert _config_error(code, capsys) == (
            "error: sampled states need nu <= 63 (int64 bit masks), got nu=64\n")

    def test_a_state_file_works_at_nu_64(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text("[[1, 64], [64]]")
        code = run(self.NU64 + ["--state", str(state), "--payload-seed", "3"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "read_set=[0, 1] decoded_version=64 match=true\n"

    def test_null_on_incomplete_state(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text("[[], [], [], [], [], []]")
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1"])
        assert code == EXIT_OK
        assert "null" in capsys.readouterr().out

    def test_payload_files_and_store_files(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        p1, p2 = tmp_path / "v1.bin", tmp_path / "v2.bin"
        p1.write_bytes(bytes(range(128)))
        p2.write_bytes(bytes(reversed(range(128))))
        stores = tmp_path / "stores.json"
        code = run(self.ARGS + ["--state", str(state),
                                "--payloads", str(p1), str(p2),
                                "--read-set", "0,1,2,3,5",
                                "--stores-out", str(stores)])
        assert code == EXIT_OK
        assert "decoded_version=2 match=true" in capsys.readouterr().out

        # corrupt one version-2 payload and decode from the store file
        doc = json.loads(stores.read_text())
        for entry in doc["0"]:
            if entry[0] == 2:
                entry[2] = ("0" if entry[2][0] != "0" else "1") + entry[2][1:]
                break
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(self.ARGS + ["--state", str(state),
                                "--payloads", str(p1), str(p2),
                                "--read-set", "0,1,2,3,5",
                                "--stores-in", str(bad)])
        assert code == EXIT_VIOLATION
        assert "match=false" in capsys.readouterr().out

    def test_payload_paths_with_commas(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        folder = tmp_path / "a,b"
        folder.mkdir()
        p1, p2 = folder / "v1.bin", folder / "v2.bin"
        p1.write_bytes(bytes(range(128)))
        p2.write_bytes(bytes(reversed(range(128))))
        code = run(self.ARGS + ["--state", str(state), "--payloads", str(p1), str(p2)])
        assert code == EXIT_OK
        assert "match=true" in capsys.readouterr().out

    def test_truncated_store_file(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        broken = tmp_path / "broken.json"
        broken.write_text('{"0": [[1, 0, "ab')
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--stores-in", str(broken)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("doc", ['{"0": 5}', '{"0": [[[1], 0, "00"]]}'])
    def test_malformed_store_file(self, tmp_path, capsys, doc):
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        stores = tmp_path / "stores.json"
        stores.write_text(doc)
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--stores-in", str(stores)])
        assert "server 0" in _config_error(code, capsys)

    def test_a_second_name_for_a_server_is_a_config_error(self, tmp_path, capsys):
        # "00" would otherwise replace server 0's store with an empty one
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        stores = tmp_path / "stores.json"
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--stores-out", str(stores)])
        assert code == EXIT_OK
        capsys.readouterr()
        doc = json.loads(stores.read_text())
        stores.write_text(json.dumps({**doc, "00": []}))
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--read-set", "0,1,2,3,4", "--stores-in", str(stores)])
        assert _config_error(code, capsys) == (
            "error: store file key '00' is not a canonical server id\n")

    @pytest.mark.parametrize("read_set,first", [("0,1,2,3,4", 0), ("1,2,3,4,5", 4)],
                             ids=["systematic", "coded"])
    def test_odd_length_payloads_are_a_config_error(self, tmp_path, capsys, read_set, first):
        # one byte more on every payload: joined, the payloads of a read set
        # still make whole 16-bit elements, but misaligned ones
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        stores = tmp_path / "stores.json"
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--stores-out", str(stores)])
        assert code == EXIT_OK
        capsys.readouterr()
        doc = json.loads(stores.read_text())
        stores.write_text(json.dumps({key: [[u, j, payload + "00"] for u, j, payload in entries]
                                      for key, entries in doc.items()}))
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--read-set", read_set, "--stores-in", str(stores)])
        assert _config_error(code, capsys) == (
            f"error: payload of symbol index {first} is 9 bytes, "
            "not a positive whole number of 16-bit elements\n")

    def test_surplus_payloads_are_length_checked(self, tmp_path, capsys):
        # only server 4's payloads grow: the k symbols the decoder picks come
        # from servers 0-3, so server 4's are surplus yet still checked
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        stores = tmp_path / "stores.json"
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--stores-out", str(stores)])
        assert code == EXIT_OK
        capsys.readouterr()
        doc = json.loads(stores.read_text())
        doc["4"] = [[u, j, payload + "00"] for u, j, payload in doc["4"]]
        stores.write_text(json.dumps(doc))
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--read-set", "0,1,2,3,4", "--stores-in", str(stores)])
        assert _config_error(code, capsys) == (
            "error: payload of symbol index 16 is 9 bytes, "
            "not a positive whole number of 16-bit elements\n")

    @pytest.mark.parametrize("bad", [-1, 65536])
    def test_a_store_index_outside_the_field_is_a_config_error(self, tmp_path, capsys, bad):
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        stores = tmp_path / "stores.json"
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--stores-out", str(stores)])
        assert code == EXIT_OK
        capsys.readouterr()
        doc = json.loads(stores.read_text())
        last = max(e for e, (u, _, _) in enumerate(doc["4"]) if u == 2)
        doc["4"][last][1] = bad
        stores.write_text(json.dumps(doc))
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--read-set", "1,2,3,4,5", "--stores-in", str(stores)])
        assert _config_error(code, capsys) == (
            f"error: symbol index {bad} outside the field universe\n")

    def test_deeply_nested_store_file(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        stores = tmp_path / "stores.json"
        stores.write_text("[" * 200_000)
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1",
                                "--stores-in", str(stores)])
        assert _config_error(code, capsys) == (
            "error: store file is nested too deeply to parse\n")

    def test_deeply_nested_state_file(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text("[" * 200_000)
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1"])
        assert _config_error(code, capsys) == (
            "error: state JSON is nested too deeply to parse\n")

    @pytest.mark.parametrize("first", ['[1, "a"]', "[[1]]", "[1.5]", "[true]"])
    def test_state_version_ids_must_be_integers(self, tmp_path, capsys, first):
        state = tmp_path / "state.json"
        state.write_text(f"[{first}, [1], [1], [1], [1], []]")
        code = run(self.ARGS + ["--state", str(state), "--payload-seed", "1"])
        assert _config_error(code, capsys) == (
            "error: state JSON must be an array of arrays of integer version ids\n")

    def test_wrong_payload_size(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text("[[1, 2], [1, 2], [1, 2], [1, 2], [1, 2], []]")
        p1, p2 = tmp_path / "v1.bin", tmp_path / "v2.bin"
        p1.write_bytes(b"x")
        p2.write_bytes(bytes(128))
        code = run(self.ARGS + ["--state", str(state),
                                "--payloads", str(p1), str(p2)])
        assert code == EXIT_CONFIG


class TestOracleCommand:
    def test_full_information(self, capsys):
        code = run(["oracle", "--n", "4", "--cw", "4", "--cr", "4", "--nu", "2",
                    "--h", "2", "--K", "1024", "--G", "4"])
        assert code == EXIT_OK
        assert "oracle_min_cost=256/1" in capsys.readouterr().out

    def test_single_version(self, capsys):
        code = run(["oracle", "--n", "4", "--cw", "4", "--cr", "4", "--nu", "1",
                    "--h", "0", "--K", "1024", "--G", "4"])
        assert code == EXIT_OK
        assert "oracle_min_cost=256/1" in capsys.readouterr().out

    def test_over_granularity_budget(self):
        assert run(["oracle", "--n", "4", "--cw", "4", "--cr", "4", "--nu", "2",
                    "--h", "0", "--K", "1024", "--G", "5"]) == EXIT_CONFIG

    def test_max_g_override(self, capsys):
        code = run(["oracle", "--n", "4", "--cw", "4", "--cr", "4", "--nu", "2",
                    "--h", "0", "--K", "1024", "--G", "12", "--max-g", "12"])
        assert code == EXIT_OK
        assert "oracle_min_cost=1280/3" in capsys.readouterr().out


    @staticmethod
    def assert_the_search_runs():
        # the rounded strategy is short at n=4, cw=cr=4, h=0, G=4, so the
        # oracle reaches milp
        assert not certified(Params(n=4, cw=4, cr=4, nu=2, h=0, k_bits=1024), 4)

    def test_solver_failure_is_a_config_error(self, monkeypatch, capsys):
        # HiGHS status 1 is an iteration or time limit: no proven optimum
        import types
        import mvcode.oracle
        self.assert_the_search_runs()
        limit = types.SimpleNamespace(status=1, message="Time limit reached. (HiGHS Status 13)")
        monkeypatch.setattr(mvcode.oracle, "milp", lambda *args, **kwargs: limit)
        code = run(["oracle", "--n", "4", "--cw", "4", "--cr", "4", "--nu", "2",
                    "--h", "0", "--K", "1024", "--G", "4"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == ("error: strategy search failed: "
                                "Time limit reached. (HiGHS Status 13)\n")

    def test_failed_capped_solve_is_a_config_error(self, monkeypatch, capsys):
        # the first capped solve proves its cap, 1 unit, infeasible; the one
        # at 2 units that follows does not finish
        import types
        import mvcode.oracle
        self.assert_the_search_runs()
        solve = mvcode.oracle.milp
        limit = types.SimpleNamespace(status=1, message="Time limit reached. (HiGHS Status 13)")
        monkeypatch.setattr(mvcode.oracle, "milp", lambda *args, **kwargs:
                            limit if kwargs["bounds"].ub[0] > 1 else solve(*args, **kwargs))
        code = run(["oracle", "--n", "4", "--cw", "4", "--cr", "4", "--nu", "2",
                    "--h", "0", "--K", "1024", "--G", "4"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == ("error: strategy search failed: "
                                "Time limit reached. (HiGHS Status 13)\n")


class TestDispatch:
    def test_unknown_subcommand_is_config_error(self):
        assert run(["frobnicate"]) == EXIT_CONFIG

    def test_every_lazy_name_resolves(self):
        import importlib
        import mvcode
        names = [name for names in mvcode._LAZY.values() for name in names]
        assert names and len(names) == len(set(names))
        for module, names in mvcode._LAZY.items():
            loaded = importlib.import_module(f"mvcode.{module}")
            for name in names:
                assert getattr(mvcode, name) is getattr(loaded, name)
        with pytest.raises(AttributeError):
            mvcode.__getattr__("no_such_name")

    def test_scipy_loads_only_for_the_oracle(self):
        script = """if True:
            import sys
            UNUSED = ("scipy", "multiprocessing", "concurrent.futures.process", "csv",
                      "mvcode.bounds", "mvcode.fixtures")

            def loaded():
                return [name for name in UNUSED if name in sys.modules]

            import mvcode
            assert loaded() == [], ("import mvcode", loaded())
            from mvcode import cli
            code = cli.main(["verify", "--scheme", "c1", "--n", "4", "--cw", "3",
                             "--cr", "3", "--h", "1", "--K", "64"])
            assert code == 0 and loaded() == [], ("verify", loaded())
            from mvcode import Params, Scheme, VerifyMode, verify
            p = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=64)
            import os
            os.cpu_count = lambda: 4  # jobs=2 reaches the worker pool on any runner
            one, two = (verify(Scheme.C1, p, VerifyMode.exhaustive(seed=1), jobs=jobs).to_dict()
                        for jobs in (1, 2))
            assert (one.pop("jobs"), two.pop("jobs")) == (1, 2) and one == two
            from mvcode import oracle_min_cost
            assert "scipy" in sys.modules and callable(oracle_min_cost)
        """
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert done.returncode == 0, done.stderr


class _CrashingPool:
    """Stands in for ProcessPoolExecutor: a worker dies during map."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")


@pytest.mark.usefixtures("four_cpus")
def test_a_crashed_worker_is_a_config_error(monkeypatch, capsys):
    # verify imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CrashingPool)
    code = run(["verify", "--scheme", "c1", "--n", "4", "--cw", "3", "--cr", "3",
                "--h", "1", "--K", "64", "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == ("error: a verification worker stopped abnormally: "
                            "A process in the process pool was terminated abruptly\n")


HUGE_K = ["--scheme", "central", "--n", "1", "--cw", "1", "--cr", "1", "--nu", "1",
          "--h", "0", "--K", "800000000000"]
NUMPY_MESSAGE = ("Unable to allocate 93.1 GiB for an array with shape (12500000000,) "
                 "and data type uint64")


@pytest.mark.parametrize("argv", [["verify", *HUGE_K, "--layers", "bitexact"],
                                  ["roundtrip", *HUGE_K]], ids=["verify", "roundtrip"])
@pytest.mark.parametrize("message,line", [
    (NUMPY_MESSAGE, f"error: out of memory: {NUMPY_MESSAGE}\n"),
    ("", "error: out of memory\n")], ids=["numpy", "bare"])
def test_out_of_memory_is_a_config_error(monkeypatch, capsys, argv, message, line):
    # a 100 GB message draws its payload words in one array; the draw raises
    # here as numpy's allocator does, so nothing of that size is asked for
    import mvcode.verifier

    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(mvcode.verifier, "seeded_words", exhausted)
    assert _config_error(run(argv), capsys) == line
