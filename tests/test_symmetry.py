"""Ring automorphisms and view orbits: the dihedral generators map windows
onto windows at every small size, a non-automorphism is refused, and the
closed-form view_orbits equals orbits found by mapping SideViews one by one."""

import numpy as np
import pytest

from mvcode.model import (Params, dihedral_generators, rank_masks, ring_automorphism,
                          ring_window, state_count, view_classes, view_orbits)
from helpers import reference_orbits

K = 1024


def params(n, h, nu=2):
    return Params(n=n, cw=n, cr=n, nu=nu, h=h, k_bits=K)


def class_images(p, perm):
    """Every (class, class of its image) pair under perm, once each."""
    masks = rank_masks(p, 0, state_count(p))
    classes, _ = view_classes(masks, p)
    ranks = (masks[:, np.argsort(perm)] << np.arange(p.n) * p.nu).sum(1)
    pairs = np.stack([classes.ravel(), classes[ranks][:, perm].ravel()], axis=1)
    return int(classes.max()) + 1, np.unique(pairs, axis=0)


@pytest.mark.parametrize("n", range(1, 9))
def test_dihedral_generators_map_windows_onto_windows(n):
    for h in range(5):
        rotation, reflection = dihedral_generators(params(n, h, nu=1))
        assert rotation.tolist() == [(i + 1) % n for i in range(n)]
        assert reflection.tolist() == [-i % n for i in range(n)]
        for perm in (rotation, reflection):
            for i in range(n):
                assert sorted(perm[j] for j in ring_window(i, n, h)) == sorted(
                    ring_window(perm[i], n, h))


def test_a_non_automorphism_is_refused():
    # swapping servers 0 and 1 at n=6, h=1 sends window {5, 0, 1} of server
    # 0 onto itself, not onto server 1's window {0, 1, 2}
    p = Params(n=6, cw=5, cr=5, nu=2, h=1, k_bits=K)
    swap = [1, 0, 2, 3, 4, 5]
    with pytest.raises(ValueError, match=r"\[1, 0, 2, 3, 4, 5\] does not map ring windows"):
        ring_automorphism(swap, p)
    with pytest.raises(ValueError, match="does not map ring windows"):
        ring_automorphism([0, 1, 2, 3, 4, 4], p)
    # what the check guards: an automorphism sends every view class to one
    # class, a bijection of classes; the swap sends some class to two, so
    # the classes it would join are no group's orbits
    for perm in dihedral_generators(p):
        n_classes, pairs = class_images(p, perm)
        assert len(pairs) == n_classes == len(np.unique(pairs[:, 1]))
    n_classes, pairs = class_images(p, np.array(swap))
    assert len(pairs) > n_classes


# at n=4, h=2 server 0 sees servers 2, 3, 0, 1, and its mirror image sees there
# what 2, 1, 0, 3 held: a saturated window's reflection is not a reversal
@pytest.mark.parametrize("p", [params(4, 1), params(5, 1), params(5, 0), params(6, 2),
                               params(6, 1, nu=1), params(3, 2), params(2, 0), params(4, 2),
                               params(4, 1, nu=3)],
                         ids=["n4h1", "n5h1", "n5h0", "n6h2", "n6h1nu1", "n3h2-saturated",
                              "n2h0", "n4h2-saturated", "n4h1nu3"])
def test_class_orbits_equal_the_side_view_reference(p):
    masks = rank_masks(p, 0, state_count(p))
    classes, _ = view_classes(masks, p)
    orbits, first = view_orbits(masks, p)
    assert np.array_equal(orbits, reference_orbits(p, dihedral_generators(p))[classes])
    # every orbit holds views of one center mask, so of one received set
    centers = masks.reshape(-1)[first]
    flat = orbits.ravel()
    assert np.array_equal(masks.reshape(-1), centers[flat])
    assert np.array_equal(first, np.unique(flat, return_index=True)[1])


@pytest.mark.parametrize("n,h,classes,orbits", [(6, 2, 6144, 544), (7, 1, 448, 40),
                                                (8, 3, 131072, 8320)])
def test_orbit_counts(n, h, classes, orbits):
    p = params(n, h)
    masks = rank_masks(p, 0, state_count(p))
    orbit_ids, first = view_orbits(masks, p)
    assert (len(view_classes(masks, p)[1]), len(first)) == (classes, orbits)
    assert orbit_ids.max() + 1 == orbits
