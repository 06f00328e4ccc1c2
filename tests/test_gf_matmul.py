"""gf65536.matmul and matmul_stack against scalar references, and wide
messages through the codec.

matmul copies unit rows and runs the other rows through matmul_stack, the
one product kernel, which walks the columns in chunks of CHUNK // P.
`scalar_matmul` is the definition: a triple loop of mul_s.
`coefficient_stack` multiplies one row of each B by one coefficient at a
time, through gf.mul, with no unit-row copy and no chunking; it is checked
against the triple loop here and stands in for it where a triple loop over
messages wider than a chunk, or over thousands of slices, would take
minutes.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcode import Params, Scheme, SystemState, codec, encode_all, quorum_decode
from mvcode import gf65536 as gf
from mvcode.allocation import scheme_granularity
from mvcode.fixtures import make_thm3_params
from mvcode.model import latest_complete
from helpers import coefficient_stack, mul_s

CHUNK = gf.CHUNK
WIDTHS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)


def scalar_matmul(A, B):
    m, k = A.shape
    w = B.shape[1]
    a, b = A.tolist(), B.tolist()
    out = np.zeros((m, w), dtype=np.uint16)
    for r in range(m):
        for c in range(w):
            acc = 0
            for t in range(k):
                acc ^= mul_s(a[r][t], b[t][c])
            out[r, c] = acc
    return out


def coefficient_matmul(A, B):
    return coefficient_stack(A[None], B[None])[0]


def structured(rng, m, k):
    """A random m x k matrix with unit rows, repeated unit rows, rows with one
    nonzero entry other than 1, zero rows and zero columns mixed in."""
    A = rng.integers(0, gf.ORDER, (m, k), dtype=np.uint16)
    A[rng.random((m, k)) < rng.random()] = 0  # a random share of zero entries
    for r in range(m):
        kind = rng.integers(6)
        if kind in (0, 1):  # unit row
            A[r] = 0
            A[r, rng.integers(k)] = 1
        elif kind == 2 and r:  # repeat an earlier row
            A[r] = A[rng.integers(r)]
        elif kind == 3:  # one nonzero entry, not 1
            A[r] = 0
            A[r, rng.integers(k)] = rng.integers(2, gf.ORDER)
        elif kind == 4:
            A[r] = 0
    if k > 1 and rng.random() < 0.3:
        A[:, rng.integers(k)] = 0
    return A


def probe_columns(rng, w, step=CHUNK):
    """Every column of a narrow B; the chunk edges and a random few of a wide one."""
    if w <= 16:
        return np.arange(w)
    edges = [c + d for c in range(0, w + 1, step) for d in (-2, -1, 0, 1)]
    cols = {c for c in edges if 0 <= c < w} | set(rng.integers(0, w, 8).tolist())
    return np.array(sorted(cols))


class TestAgainstTheTripleLoop:
    @pytest.mark.parametrize("case", range(24))
    def test_seeded_shapes(self, case):
        rng = np.random.default_rng(9000 + case)
        m, k = (int(x) for x in rng.integers(1, 41, 2))
        w = WIDTHS[case % len(WIDTHS)] if case < 15 else int(rng.integers(1, 12))
        A = structured(rng, m, k)
        B = rng.integers(0, gf.ORDER, (k, w), dtype=np.uint16)
        if case % 7 == 6:
            B[:] = 0
        got = gf.matmul(A, B)
        assert got.dtype == np.uint16 and got.shape == (m, w)
        cols = probe_columns(rng, w)
        assert np.array_equal(got[:, cols], scalar_matmul(A, B[:, cols]))
        # a column's product does not depend on the chunk it falls in
        perm = rng.permutation(w)
        assert np.array_equal(gf.matmul(A, B[:, perm]), got[:, perm])

    @pytest.mark.parametrize("w", WIDTHS)
    def test_identity_and_permutation_copy_rows(self, w):
        rng = np.random.default_rng(w)
        k = 17
        B = rng.integers(0, gf.ORDER, (k, w), dtype=np.uint16)
        assert np.array_equal(gf.matmul(np.eye(k, dtype=np.uint16), B), B)
        perm = rng.permutation(k)
        P = np.eye(k, dtype=np.uint16)[perm]
        assert np.array_equal(gf.matmul(P, B), B[perm])
        # the same permutation with one entry scaled is a product, not a copy
        P[0, perm[0]] = 3
        expected = B[perm]
        expected[0] = gf.mul(3, B[perm[0]])
        assert np.array_equal(gf.matmul(P, B), expected)

    @pytest.mark.parametrize("w", [CHUNK - 1, CHUNK + 1])
    @pytest.mark.parametrize("layout", ["UUPPP", "PPPUU", "PUPUP", "UPPUU", "PPPPP", "UUUUU"])
    def test_unit_and_product_rows_in_any_order(self, w, layout):
        # the products land in the last rows and move up to their own
        rng = np.random.default_rng(w)
        k = 4
        B = rng.integers(0, gf.ORDER, (k, w), dtype=np.uint16)
        A = rng.integers(2, gf.ORDER, (len(layout), k), dtype=np.uint16)
        for r, kind in enumerate(layout):
            if kind == "U":
                A[r] = 0
                A[r, (3 * r) % k] = 1
        got = gf.matmul(A, B)
        assert np.array_equal(got, coefficient_matmul(A, B))
        cols = probe_columns(rng, w)
        assert np.array_equal(got[:, cols], scalar_matmul(A, B[:, cols]))

    def test_all_zero_operands(self):
        rng = np.random.default_rng(5)
        B = rng.integers(0, gf.ORDER, (6, CHUNK + 1), dtype=np.uint16)
        assert not gf.matmul(np.zeros((4, 6), dtype=np.uint16), B).any()
        A = structured(rng, 9, 6)
        assert not gf.matmul(A, np.zeros((6, CHUNK + 1), dtype=np.uint16)).any()

    def test_decode_matrices_of_systematic_indices_copy_rows(self):
        # the inverse of a generator submatrix has a unit row wherever the
        # submatrix does, so the symbols read verbatim are copied
        k = 6
        rng = np.random.default_rng(3)
        Y = rng.integers(0, gf.ORDER, (k, 40), dtype=np.uint16)
        chosen = (0, 2, 3, 9, 11, 14)
        D = gf.decode_matrix(k, chosen)
        for row, index in enumerate(chosen[:3]):  # message symbols 0, 2 and 3
            assert D[index].tolist() == [int(t == row) for t in range(k)]
        assert np.array_equal(gf.matmul(D, Y), scalar_matmul(D, Y))

    @pytest.mark.parametrize("case", range(6))
    def test_the_coefficient_reference_is_the_triple_loop(self, case):
        rng = np.random.default_rng(100 + case)
        m, k, w = (int(x) for x in rng.integers(1, 12, 3))
        A = structured(rng, m, k)
        B = rng.integers(0, gf.ORDER, (k, w), dtype=np.uint16)
        assert np.array_equal(coefficient_matmul(A, B), scalar_matmul(A, B))


def check_stack(rng, P, w):
    """A stack of P structured slices through matmul_stack, against the
    coefficient reference, and slice 0 against the triple loop at the edges
    of its column chunks."""
    m, k = (int(x) for x in rng.integers(1, 9, 2))
    # unit, repeated, scaled and zero rows, and zero columns, per slice
    A = np.array([structured(rng, m, k) for _ in range(P)], dtype=np.uint16).reshape(P, m, k)
    B = rng.integers(0, gf.ORDER, (P, k, w), dtype=np.uint16)
    got = gf.matmul_stack(A, B)
    assert got.dtype == np.uint16 and got.shape == (P, m, w)
    assert np.array_equal(got, coefficient_stack(A, B))
    if P:
        cols = probe_columns(rng, w, max(1, CHUNK // P))
        assert np.array_equal(got[0][:, cols], scalar_matmul(A[0], B[0][:, cols]))


class TestStack:
    """matmul_stack against the coefficient reference, not against matmul,
    which calls it."""

    @pytest.mark.parametrize("P", [0, 1, 2, 7])
    @pytest.mark.parametrize("w", [1, 4, CHUNK + 1])
    def test_each_slice_is_a_matmul(self, P, w):
        check_stack(np.random.default_rng(1400 + 10 * P + w), P, w)

    @pytest.mark.parametrize("P", [0, 1, 3, CHUNK + 1])
    @pytest.mark.parametrize("edge", ["0", "1", "step-1", "step", "step+1", "2step+1"])
    def test_the_chunk_edges(self, P, edge):
        # the columns go CHUNK // P at a time, so the edges move with P
        step = max(1, CHUNK // max(P, 1))
        w = {"0": 0, "1": 1, "step-1": step - 1, "step": step, "step+1": step + 1,
             "2step+1": 2 * step + 1}[edge]
        check_stack(np.random.default_rng(1500 + P + w), P, w)

    def test_into_a_given_output(self):
        # the result lands in `out`, a strided view here, and nowhere else
        rng = np.random.default_rng(15)
        A = rng.integers(0, gf.ORDER, (3, 4, 5), dtype=np.uint16)
        B = rng.integers(0, gf.ORDER, (3, 5, 2 * CHUNK // 3 + 1), dtype=np.uint16)
        frame = np.zeros((3, 6, B.shape[2] + 2), dtype=np.uint16)
        view = frame[:, 1:5, 1:-1]
        assert gf.matmul_stack(A, B, view) is view
        assert np.array_equal(view, coefficient_stack(A, B))
        view[:] = 0
        assert not frame.any()

    def test_a_gathered_stack_of_read_only_matrices(self):
        # the shape bitexact_block gives it: cached decode matrices, gathered
        rng = np.random.default_rng(14)
        reads = [(0, 1, 2, 3), (0, 2, 9, 40), (5, 6, 7, 8)]
        which = np.array([2, 0, 1, 1, 0, 2])
        matrices = np.stack([gf.decode_matrix(4, chosen) for chosen in reads])
        Y = rng.integers(0, gf.ORDER, (len(which), 4, 3), dtype=np.uint16)
        got = gf.matmul_stack(matrices[which], Y)
        for r, y, out in zip(which, Y, got):
            assert np.array_equal(out, scalar_matmul(gf.decode_matrix(4, reads[r]), y))


element = st.one_of(st.just(0), st.just(1), st.integers(0, gf.ORDER - 1))


@st.composite
def operands(draw):
    m, k, w = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    A = draw(st.lists(st.lists(element, min_size=k, max_size=k), min_size=m, max_size=m))
    B = draw(st.lists(st.lists(element, min_size=w, max_size=w), min_size=k, max_size=k))
    return np.array(A, dtype=np.uint16), np.array(B, dtype=np.uint16)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operands())
def test_small_shapes_sampled(ab):
    A, B = ab
    assert np.array_equal(gf.matmul(A, B), scalar_matmul(A, B))


# Messages whose symbols are one element wider than a column chunk.
def _wide(p, scheme):
    denom = scheme_granularity(scheme, p)
    k_bits = 16 * denom * CHUNK + 8  # padded to CHUNK + 1 elements per symbol
    return Params(n=p.n, cw=p.cw, cr=p.cr, nu=p.nu, h=p.h, k_bits=k_bits)


WIDE = [
    (Scheme.C1, _wide(make_thm3_params(6, 1024), Scheme.C1),
     [[1, 2], [2], [1, 2], [1, 2], [1, 2], [1, 2]]),
    (Scheme.C2, _wide(Params(n=8, cw=7, cr=7, nu=3, h=3, k_bits=1024), Scheme.C2),
     [[1, 2, 3], [2, 3], [1, 3], [1, 2, 3], [1, 2, 3], [2, 3], [1, 2, 3], [1, 2, 3]]),
]


@pytest.mark.parametrize("scheme,p,subsets", WIDE, ids=["c1-n6", "c2-n8-nu3"])
def test_wide_messages_through_the_codec(monkeypatch, scheme, p, subsets):
    S = SystemState.of(p, subsets)
    rng = random.Random(77)
    messages = {u: rng.randbytes(p.k_bits // 8) for u in p.versions}
    read_sets = list(itertools.combinations(range(p.n), p.cr))

    def run():
        stores = encode_all(scheme, S, messages, p)
        return stores, [quorum_decode(scheme, S, T, stores, p) for T in read_sets]

    stores, decoded = run()
    latest = latest_complete(S, p)
    assert all(m >= latest and payload == messages[m] for m, payload in decoded)
    text = codec.stores_to_json(stores)
    assert codec.stores_to_json(run()[0]) == text

    monkeypatch.setattr(gf, "matmul", coefficient_matmul)
    assert run() == (stores, decoded)
