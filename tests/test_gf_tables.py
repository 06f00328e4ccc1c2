"""gf65536's log/antilog tables against the scalar shift loop that defines them.

The module builds the powers of x by doubling through byte tables. The
reference here is the definition: 65,535 scalar multiplications by x, each
a shift with a reduction by the primitive polynomial.
"""

import numpy as np

from mvcode import gf65536 as gf

ORDER = gf.ORDER
LOG_ZERO = 2 * (ORDER - 1)


def reference_tables():
    powers = []
    b = 1
    for _ in range(ORDER - 1):
        powers.append(b)
        b <<= 1
        if b & ORDER:
            b ^= 0x1100B
    exp = np.zeros(2 * LOG_ZERO + 1, dtype=np.uint16)
    exp[:ORDER - 1] = powers
    exp[ORDER - 1:LOG_ZERO] = powers
    log = np.empty(ORDER, dtype=np.int32)
    log[powers] = np.arange(ORDER - 1, dtype=np.int32)
    log[0] = LOG_ZERO
    return exp, log


def test_tables_equal_the_shift_loop():
    exp, log = reference_tables()
    assert gf._PRIM_POLY == 0x1100B
    assert (gf._EXP.dtype, gf._LOG.dtype) == (exp.dtype, log.dtype)
    assert (gf._EXP.shape, gf._LOG.shape) == (exp.shape, log.shape)
    assert np.array_equal(gf._EXP, exp)
    assert np.array_equal(gf._LOG, log)


def test_table_layout():
    exp, log = gf._EXP, gf._LOG
    assert len(exp) == 2 * LOG_ZERO + 1 and len(log) == ORDER
    # two copies of the antilog table, then a zero tail for products with 0
    assert np.array_equal(exp[:ORDER - 1], exp[ORDER - 1:LOG_ZERO])
    assert not exp[LOG_ZERO:].any()
    assert log[0] == LOG_ZERO
    # x is primitive: its powers run through every nonzero element once
    assert np.array_equal(np.sort(exp[:ORDER - 1]), np.arange(1, ORDER))
    assert np.array_equal(exp[log[1:]], np.arange(1, ORDER))

