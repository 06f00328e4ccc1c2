"""The tracer: self-time arithmetic, transparency and clean restoration."""

from mvcode import codec, verifier
from mvcode.allocation import Scheme
from mvcode.model import Params

import tracing


def test_self_time_on_a_hand_built_span_tree():
    t = tracing.Tracer()
    root = t.add(t.name_id("root"), 0.0, 10.0, -1, 0)
    a = t.add(t.name_id("a"), 1.0, 4.0, root, 0)
    t.add(t.name_id("a.child"), 2.0, 3.0, a, 0)
    t.add(t.name_id("b"), 3.0, 6.0, root, 0)      # overlaps a: [1, 6] is covered once
    t.add(t.name_id("late"), 9.0, 12.0, root, 0)  # runs past its parent: only [9, 10] counts
    other = t.add(t.name_id("root"), 20.0, 21.0, -1, 1)
    assert t.self_times() == [4.0, 2.0, 1.0, 3.0, 3.0, 1.0]
    agg = t.aggregate()
    assert agg["root"] == (2, 11.0, 5.0)
    assert agg["a"] == (1, 3.0, 2.0)
    assert t.span_name(other) == "root"


def test_traced_verify_report_is_byte_identical():
    p = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=1024)
    mode = verifier.VerifyMode.exhaustive(seed=5)
    untraced = verifier.verify(Scheme.C1, p, mode).to_json()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced = verifier.verify(Scheme.C1, p, mode).to_json()
    assert traced == untraced
    agg = tracer.aggregate()
    assert agg["verifier.verify"][0] == 1
    assert agg["model.state_at"][0] == 4 ** 4
    assert set(tracer.request) == {0}  # one top-level call, one request


def _modules():
    return {mod.__name__: mod for mod in tracing._mvcode_modules()}


def test_wrappers_are_gone_after_a_traced_run():
    import mvcode
    before = {(name, key): value for name, mod in _modules().items()
              for key, value in vars(mod).items()}
    tracer = tracing.Tracer()
    p = Params(n=4, cw=3, cr=3, nu=2, h=1, k_bits=1024)
    with tracing.traced(tracer):
        assert getattr(verifier.encode_all, "perfbench_traced", False)
        assert getattr(codec.latest_complete, "perfbench_traced", False)
        verifier.verify(Scheme.C1, p, verifier.VerifyMode.sampled(20, 1))
    assert len(tracer) > 0
    after = {(name, key): value for name, mod in _modules().items()
             for key, value in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert mvcode.verify is verifier.verify
