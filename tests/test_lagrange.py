"""The closed-form Lagrange matrices against two references.

`gf65536._lagrange` builds both the generator rows and the decode matrices
in the log domain. `lagrange_reference` is the definition, one mul_s at a
time; `mat_inv` of the generator submatrix is the other reference for a
decode matrix, by Gauss-Jordan elimination.
"""

import itertools
import random

import numpy as np
import pytest

from mvcode import Scheme
from mvcode import gf65536 as gf
from mvcode.allocation import scheme_granularity
from mvcode.codec import slots_per_server
from mvcode.fixtures import make_thm3_params
from helpers import mul_s


def lagrange_reference(points, at):
    """Entry [a, i]: the product over s != i of (at[a] + points[s]) /
    (points[i] + points[s]), in scalar field arithmetic."""
    rows = []
    for x in at:
        row = []
        for i, point in enumerate(points):
            num, den = 1, 1
            for s, other in enumerate(points):
                if s != i:
                    num = mul_s(num, x ^ other)
                    den = mul_s(den, point ^ other)
            row.append(mul_s(num, gf.inv_s(den)))
        rows.append(row)
    return np.array(rows, dtype=np.uint16).reshape(len(at), len(points))


def assert_both_references(k, chosen):
    """decode_matrix(k, chosen) equals both references, and the generator
    rows of `chosen` equal the scalar definition."""
    G = gf.generator_matrix(k, chosen)
    assert np.array_equal(G, lagrange_reference(range(k), chosen))
    D = gf.decode_matrix(k, chosen)
    assert np.array_equal(D, gf.mat_inv(G))
    assert np.array_equal(D, lagrange_reference(chosen, range(k)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_every_small_subset(k):
    for chosen in itertools.combinations(range(12), k):
        assert_both_references(k, chosen)


def test_c1_n6_decodes_seeded():
    # k = 16 from the 36 slot indices of version 1 at c1 n=6
    p = make_thm3_params(6, 1024)
    k = scheme_granularity(Scheme.C1, p)
    universe = range(p.n * slots_per_server(Scheme.C1, 1, p))
    assert (k, len(universe)) == (16, 36)
    rng = random.Random(1416)
    for _ in range(12):
        assert_both_references(k, tuple(sorted(rng.sample(universe, k))))


def test_dimension_one():
    for j in (0, 1, 7, gf.ORDER - 1):
        assert gf.generator_row(1, j) == (1,)
        assert gf.decode_matrix(1, (j,)).tolist() == [[1]]
        assert_both_references(1, (j,))


def test_the_last_field_element():
    top = gf.ORDER - 1
    for k in (2, 5, 16):
        assert gf.generator_row(k, top) == tuple(lagrange_reference(range(k), (top,))[0])
        assert_both_references(k, (*range(k - 1), top))
        assert_both_references(k, tuple(range(top - k + 1, top + 1)))


def test_points_at_the_evaluation_points_give_unit_rows():
    # anchors read verbatim: the decode copies them
    chosen = (0, 3, 9, 20)
    D = gf.decode_matrix(4, chosen)
    assert D[0].tolist() == [1, 0, 0, 0] and D[3].tolist() == [0, 1, 0, 0]
    assert gf.generator_matrix(4, (2, 0)).tolist() == [[0, 0, 1, 0], [1, 0, 0, 0]]


@pytest.mark.parametrize("points,at", [((0, -1), (0, 1)), ((0, 1), (gf.ORDER,)),
                                       ((gf.ORDER, 1), (0,)), ((0, 1), (-1,))])
def test_points_outside_the_field_are_refused(points, at):
    # the log table would otherwise be indexed from its end, or past it
    with pytest.raises(ValueError, match="outside the field universe"):
        gf._lagrange(points, at)


def test_repeated_points_are_refused():
    with pytest.raises(ValueError, match="repeated interpolation point"):
        gf._lagrange((4, 2, 4), (0, 1, 2))
