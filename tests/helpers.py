"""Shared test helpers."""

import numpy as np

from mvcode import gf65536 as gf
from mvcode.model import SideView, ring_window, side_view, state_at, state_count
from mvcode.verifier import read_sets


def mul_s(a, b):
    """The product of two field elements as Python ints, one table lookup
    at a time: the scalar reference for gf65536's array arithmetic."""
    if a == 0 or b == 0:
        return 0
    return int(gf._EXP[int(gf._LOG[a]) + int(gf._LOG[b])])


def coefficient_stack(A, B):
    """(P x m x k) @ (P x k x w) over the field, one coefficient of each A
    at a time through gf65536.mul: no unit-row copy, no column chunks. The
    reference for matmul_stack, checked against a triple loop of mul_s."""
    out = np.zeros((A.shape[0], A.shape[1], B.shape[2]), dtype=np.uint16)
    for t in range(A.shape[2]):
        out ^= gf.mul(A[:, :, t, None], B[:, None, t])
    return out


def ring_window_walk(i, n, h):
    """The reference of model.ring_window: offsets -h..+h mod n walked one
    at a time, each server kept on its first appearance."""
    seen = []
    for d in range(-h, h + 1):
        j = (i + d) % n
        if j not in seen:
            seen.append(j)
    return tuple(seen)


def decode_versions_loop(holdings, latest, p, threshold):
    """The reference of verifier.decode_versions: one pass per version,
    oldest first, each writing u into the read sets where u reaches
    `threshold` symbols and is at or above the state's latest complete
    version."""
    sets = read_sets(p)
    R = np.zeros((p.n, len(sets)))
    for r, T in enumerate(sets):
        R[list(T), r] = 1
    versions = np.zeros((len(latest), len(sets)), dtype=np.int32)
    for u in p.versions:
        reaches = holdings[:, :, u - 1].astype(np.float64) @ R >= threshold
        versions[reaches & (u >= latest)[:, None]] = u
    return versions


def rounded_table(p, g, centers):
    """The reference of oracle._rounded: a center mask's newest version is
    its bit_length, looked up in a table over every mask."""
    newest = np.array([m.bit_length() for m in range(1 << p.nu)])[centers]
    return -(-g // p.c) * (newest[..., None] == np.arange(1, p.nu + 1))


def state_masks(p, states):
    """The version masks of `states`, one int64 row each: bit u-1 of entry
    [b, i] is set when server i of state b holds version u."""
    return np.array([[sum(1 << (u - 1) for u in s) for s in S.subsets] for S in states],
                    dtype=np.int64).reshape(len(states), p.n)


def certified(p, g):
    """Whether the oracle's block check accepts its rounded strategy, which
    settles the instance with no solve."""
    from mvcode import oracle
    return oracle._no_short_state(p, g, lambda masks: oracle._rounded(p, g, masks))


def all_states(p):
    """Every state of p once, in rank order."""
    return [state_at(p, b) for b in range(state_count(p))]


def reference_orbits(p, generators):
    """The readable reference of model.view_orbits: every SideView of p, in
    first-appearance order, mapped view by view (server i's view goes to
    server perm[i], which sees what perm's preimages held), and the orbits
    found by search. One label per view class, numbered by first appearance."""
    views = {}
    for S in all_states(p):
        for i in range(p.n):
            views.setdefault(side_view(S, i, p), len(views))

    def image(view, perm):
        held = dict(view.window)
        preimage = {int(perm[j]): j for j in range(p.n)}
        center = int(perm[view.center])
        return SideView(center, tuple((j, held[preimage[j]])
                                      for j in ring_window(center, p.n, p.h)))

    orbit = {}
    for view in views:
        if view in orbit:
            continue
        label, stack = len(set(orbit.values())), [view]
        orbit[view] = label
        while stack:
            current = stack.pop()
            for perm in generators:
                if (seen := image(current, perm)) not in orbit:
                    orbit[seen] = label
                    stack.append(seen)
    return np.array([orbit[view] for view in views])


def witness_reference(p, first, units):
    """The reference of oracle._witness: each key is side_view of the state
    state_at decodes from its first position's rank."""
    return {side_view(state_at(p, b), i, p): {u: s for u, s in enumerate(held, 1) if s > 0}
            for (b, i), held in zip((divmod(f, p.n) for f in first.tolist()), units.tolist())}


def view_code_reference(view, p):
    """The reference of model.view_code: the window's server ids compared as
    one tuple with ring_window, each version set's mask summed from its ids."""
    if not (0 <= view.center < p.n
            and tuple(sid for sid, _ in view.window) == ring_window(view.center, p.n, p.h)):
        return None
    code = 0
    for _, versions in view.window:
        if not all(1 <= u <= p.nu for u in versions):
            return None
        code = code << p.nu | sum(1 << (u - 1) for u in versions)
    return code * p.n + view.center
