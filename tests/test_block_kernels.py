"""The array kernels of the bit-exact layer against their references.

`model.unique_rows` against `np.unique(rows, axis=0, return_inverse=True)`;
a stack of `gf65536._lagrange` interpolations against `decode_matrix`, one
read at a time; and `gf65536.matmul_stack` against the coefficient
reference, for stacks much taller and much shorter than the messages are
wide.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcode import Scheme
from mvcode import gf65536 as gf
from mvcode.allocation import scheme_granularity
from mvcode.codec import slots_per_server
from mvcode.fixtures import make_thm3_params
from mvcode.model import unique_rows
from helpers import coefficient_stack


def assert_like_numpy(rows):
    expected, expected_inverse = np.unique(rows, axis=0, return_inverse=True)
    got, inverse = unique_rows(rows)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert inverse.shape == expected_inverse.shape
    assert np.array_equal(inverse, expected_inverse)


@st.composite
def row_arrays(draw):
    """Rows drawn from a small pool, so most are repeats; each column's
    largest entry fills the width drawn for it, which sets how many 63-bit
    words the rows pack into."""
    widths = draw(st.lists(st.integers(1, 63), min_size=1, max_size=6))
    pool = [[(1 << w) - 1 for w in widths]]
    pool += draw(st.lists(st.tuples(*(st.integers(0, (1 << w) - 1) for w in widths)),
                          min_size=0, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=40))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), len(widths))


class TestUniqueRows:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(row_arrays())
    def test_drawn_rows(self, rows):
        assert_like_numpy(rows)

    @pytest.mark.parametrize("widths", [(63,), (1,) * 63, (2, 6, 6, 6, 6, 6, 6),
                                        (32, 32), (62, 2), (40, 40, 40), (63, 63, 63)],
                             ids=["one-63", "one-63x1", "one-oracle", "two-32x2", "two-62+2",
                                  "three-40x3", "three-63x3"])
    def test_one_two_and_three_words(self, widths):
        rng = np.random.default_rng(len(widths) * 100 + widths[0])
        pool = np.array([[int(rng.integers(0, 1 << w, dtype=np.uint64)) for w in widths]
                         for _ in range(30)] + [[(1 << w) - 1 for w in widths]], dtype=np.int64)
        rows = pool[rng.integers(0, len(pool), 500)]
        rows[0] = pool[-1]
        assert_like_numpy(rows)

    def test_zero_rows_and_one_column(self):
        assert_like_numpy(np.zeros((0, 4), dtype=np.int32))
        assert_like_numpy(np.array([[3], [0], [3], [1 << 40], [0]]))

    def test_order_is_numeric_not_bytewise(self):
        # 256 < 1 as little-endian bytes; as numbers it comes last
        assert_like_numpy(np.array([[256, 0], [1, 5], [256, 0], [1, 4]], dtype=np.int32))

    def test_a_negative_entry_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            unique_rows(np.array([[1, -1]]))


P6 = make_thm3_params(6, 1024)
K = scheme_granularity(Scheme.C1, P6)
UNIVERSE = P6.n * slots_per_server(Scheme.C1, 1, P6)


def index_sets(rng, count):
    """Sorted k-subsets of version 1's universe at c1 n=6: every anchor,
    no anchor, and mixed."""
    sets = [tuple(range(K)), tuple(range(UNIVERSE - K, UNIVERSE))]
    for _ in range(count):
        sets.append(tuple(sorted(rng.sample(range(UNIVERSE), K))))
    return sets


class TestBatchedLagrange:
    def test_a_stack_equals_decode_matrix_read_by_read(self):
        sets = index_sets(random.Random(22), 40)
        assert any(0 < sum(j < K for j in s) < K for s in sets)
        stack = gf._lagrange(np.array(sets), range(K))
        assert stack.shape == (len(sets), K, K)
        for chosen, D in zip(sets, stack):
            assert np.array_equal(D, gf.decode_matrix(K, chosen))

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_a_batch_of_one_is_decode_matrix(self, which):
        chosen = index_sets(random.Random(23), 1)[which]
        got = gf._lagrange(np.array([chosen]), range(K))[0]
        expected = gf.decode_matrix(K, chosen)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_a_repeated_point_in_one_set_of_a_stack_is_refused(self):
        with pytest.raises(ValueError, match=r"repeated interpolation point in \[0, 2, 2\]"):
            gf._lagrange(np.array([[0, 1, 2], [0, 2, 2]]), range(3))


class TestStackShapes:
    @pytest.mark.parametrize("P,w", [(0, 3), (0, gf.CHUNK + 1), (300, 1), (500, 4),
                                     (1, gf.CHUNK + 3), (2, 2 * gf.CHUNK), (3, 700)])
    def test_each_slice_is_a_matmul(self, P, w):
        rng = np.random.default_rng(P * 7 + w)
        m, k = (int(x) for x in rng.integers(1, 17, 2))
        A = rng.integers(0, gf.ORDER, (P, m, k), dtype=np.uint16)
        A[rng.random(A.shape) < 0.2] = 0
        A[rng.random(A.shape) < 0.1] = 1
        B = rng.integers(0, gf.ORDER, (P, k, w), dtype=np.uint16)
        got = gf.matmul_stack(A, B)
        assert got.dtype == np.uint16 and got.shape == (P, m, w)
        assert np.array_equal(got, coefficient_stack(A, B))
