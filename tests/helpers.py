"""Shared test helpers."""

from mvcode.model import state_at, state_count


def all_states(p):
    """Every state of p once, in rank order."""
    return [state_at(p, b) for b in range(state_count(p))]
