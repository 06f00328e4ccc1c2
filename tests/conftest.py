"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def four_cpus(monkeypatch):
    """Four CPUs, whatever the runner has. verify runs at most one worker per
    CPU and a single range in process, so a test with jobs > 1 that should
    reach the worker pool uses this: on a one-CPU runner it would silently
    take the serial path."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
