"""The operands the kernels read, each built once and cached once: the 0/1
read-set tables of `verifier._read_set_tables` and the window table of
`allocation._window_matrix`, each filled by one scatter, against the loops
that fill them one read set or one window at a time; and every cached
operand, field matrices included, shared read-only."""

import numpy as np
import pytest

from mvcode import Params
from mvcode import gf65536 as gf
from mvcode.allocation import _window_matrix
from mvcode.verifier import _read_set_tables
from helpers import read_set_matrix_loop, window_matrix_loop

def read_set_params(n, cr):
    return Params(n=n, cw=n, cr=cr, nu=1, h=0, k_bits=8)


def assert_read_set_tables(p):
    R, members = _read_set_tables(p)
    expected = read_set_matrix_loop(p)
    assert R.dtype == np.float64 and np.array_equal(R, expected)
    assert members.dtype == np.int32 and np.array_equal(members, expected.T)


@pytest.mark.parametrize("n,cr", [(n, cr) for n in range(1, 9) for cr in range(1, n + 1)])
def test_read_set_tables_equal_the_loop(n, cr):
    assert_read_set_tables(read_set_params(n, cr))


def test_read_set_tables_of_184756_read_sets_equal_the_loop():
    assert_read_set_tables(read_set_params(20, 10))


@pytest.mark.parametrize("n,h", [(n, h) for n in range(1, 9) for h in range(n + 1)])
def test_window_matrix_equals_the_loop(n, h):
    assert np.array_equal(_window_matrix(n, h), window_matrix_loop(n, h))


def test_cached_operands_are_shared_read_only():
    # a write would silently change every later encode, decode or count
    p = read_set_params(6, 5)
    for build in (lambda: gf.generator_matrix(4, (1, 5, 9, 30)),
                  lambda: gf.decode_matrix(4, (1, 5, 9, 30)),
                  lambda: _read_set_tables(p)[0], lambda: _read_set_tables(p)[1],
                  lambda: _window_matrix(6, 2)):
        cached = build()
        assert build() is cached
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] += 1
