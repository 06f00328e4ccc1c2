"""No verdict imports a module: once `mvcode.codec`, `mvcode.oracle` and
`mvcode.verifier` are imported, a call shaped like each benchmark workload
leaves `sys.modules` as it found it, so a run pays only for the modules its
own work needs. Checked in a fresh interpreter, since pytest's process has
loaded scipy and `numpy.ma` long before."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """if True:
    import sys
    from itertools import combinations

    from mvcode import codec, oracle, verifier
    from mvcode.allocation import Scheme
    from mvcode.model import Params, SystemState

    def exhaustive_c1():
        p = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=1024)
        report = verifier.verify(Scheme.C1, p, verifier.VerifyMode.exhaustive(seed=1),
                                 layers=("counting", "bitexact"), jobs=1)
        assert report.passed and report.states_checked == 256

    def sampled_c2():
        p = Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024)
        report = verifier.verify(Scheme.C2, p, verifier.VerifyMode.sampled(200, 7),
                                 layers=("counting",), jobs=1)
        assert report.passed and report.states_checked == 200

    def certified_oracle():
        p = Params(n=5, cw=4, cr=4, nu=2, h=1, k_bits=1024)
        value, witness = oracle.oracle_min_cost_with_witness(p, 4)
        assert value == 512 and oracle.strategy_feasible(p, 4, witness)

    def roundtrip_c1():
        p = Params(n=6, cw=5, cr=5, nu=2, h=2, k_bits=8 * 1024)
        S = SystemState.of(p, [[1, 2], [1], [1, 2], [2], [1, 2], [1, 2]])
        messages = {u: bytes((u * 37 + i) % 256 for i in range(1024)) for u in p.versions}
        stores = codec.stores_from_json(codec.stores_to_json(
            codec.encode_all(Scheme.C1, S, messages, p)))
        for T in combinations(range(p.n), p.cr):
            m, payload = codec.quorum_decode(Scheme.C1, S, T, stores, p)
            assert payload == messages[m]

    for verdict in (exhaustive_c1, sampled_c2, certified_oracle, roundtrip_c1):
        before = set(sys.modules)
        verdict()
        changed = sorted(set(sys.modules) ^ before)
        assert changed == [], (verdict.__name__, changed)
"""


def test_no_verdict_imports_a_module():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
