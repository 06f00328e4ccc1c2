"""Workload inputs: seeded, and only states the round-trip can be checked on."""

from mvcode.model import latest_complete

import workloads


def test_roundtrip_generator_yields_only_states_with_a_complete_version():
    cfg = dict(workloads.ROUNDTRIP_WIDE, states=40, message_bytes=64)
    for seed in (0, 1, 2):
        items = list(workloads.roundtrip_inputs(cfg, seed))
        assert len(items) == 40
        for scheme, p, S, messages in items:
            assert latest_complete(S, p) is not None
            assert latest_complete(S, p) == workloads.latest_complete_of(S.subsets, p.cw)
            assert sorted(messages) == list(p.versions)
        assert {scheme.value for scheme, *_ in items} == {"c1", "c2"}


def test_roundtrip_inputs_repeat_for_a_seed():
    cfg = dict(workloads.ROUNDTRIP_WIDE, states=6, message_bytes=64)
    first = list(workloads.roundtrip_inputs(cfg, 7))
    assert first == list(workloads.roundtrip_inputs(cfg, 7))
    assert first != list(workloads.roundtrip_inputs(cfg, 8))
