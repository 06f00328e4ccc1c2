"""Arithmetic over GF(2^16) and the evaluation-code generator rows.

Multiplication uses log/antilog tables built from the primitive polynomial
x^16 + x^12 + x^3 + x + 1 (0x1100B), in the table-lookup style of Plank,
Greenan & Miller, "Screaming Fast Galois Field Arithmetic Using Intel SIMD
Instructions" (FAST 2013). The antilog table is doubled so a sum of two logs
never needs a modular reduction, and the log of 0 is a sentinel that lands
every product with 0 in a zero tail of the antilog table, so `mul` needs no
zero mask.

The powers of x are built at import by doubling, not by 65,535 scalar
shifts: given x^0 .. x^(n-1), multiplying all of them by x^n gives x^n ..
x^(2n-1), in 16 steps for n = 1, 2, 4, .... Multiplication by a fixed
element is linear over GF(2), so each step is the split-table product of
the same paper: two 256-entry tables, indexed by the low and the high byte
of each element, whose entries are XORs of the images of the 16 bits.

`matmul_stack` is the one product kernel: a stack of products, (P x m x
k) @ (P x k x w), every row a product. It takes the logs of A once, then
walks the columns of B about CHUNK // P at a time through one set of log,
index, product and accumulator buffers, so no temporary grows with the
message width. Its passes run stack-major, on operands laid out (k, m, P)
and (k, w, P), so each pass is one array operation over the whole stack,
not over a message a few elements wide.

`matmul` is systematic-aware: a unit row of the left matrix is a row copy,
not a product. The remaining rows are a stack of one through
`matmul_stack`, written straight into the result.

The code realized here is a polynomial evaluation code with a systematic
prefix: message symbols are the values of a degree-< k polynomial at the
anchor points 0..k-1, and the coded symbol with global index j is the value
at point j. Any k distinct points determine the polynomial, which is the
MDS guarantee; indices below k reproduce message symbols verbatim.

Both the generator rows and the decode matrices are Lagrange interpolation
matrices, built in closed form by `_lagrange`: the generator interpolates
through the anchors and evaluates at the coded points, and the inverse of
the generator submatrix of any k distinct points interpolates through those
points and evaluates at the anchors (MacWilliams & Sloane, *The Theory of
Error-Correcting Codes*, ch. 10). `_lagrange` takes a stack of point sets,
so many decode matrices are one call; `decode_matrix` is its cached batch
of one. No elimination is needed; `mat_inv`, a Gauss-Jordan inverse, stays
as the reference the closed form is tested against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

ORDER = 1 << 16
_PRIM_POLY = 0x1100B
_LOG_ZERO = 2 * (ORDER - 1)  # sum with any log indexes the zero tail of _EXP
CHUNK = 4096  # columns of B per pass of the product kernel, summed over the stack


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    # one doubling step writes powers[n:2n] = powers[:n] * x^n; the last
    # step also writes x^(ORDER-1) = 1, which is dropped
    powers = np.empty(ORDER, dtype=np.uint16)
    powers[0] = 1
    n = 1
    while n < ORDER:
        tables = np.zeros((2, 256), dtype=np.uint16)
        image = int(powers[n - 1])
        for bit in range(16):  # image = x^(n+bit), the image of bit `bit`
            image <<= 1
            if image & ORDER:
                image ^= _PRIM_POLY
            half, low = divmod(bit, 8)
            tables[half, 1 << low:2 << low] = tables[half, :1 << low] ^ image
        head = powers[:n]
        powers[n:2 * n] = tables[0, head & 0xFF] ^ tables[1, head >> 8]
        n *= 2
    powers = powers[:ORDER - 1]
    exp = np.zeros(2 * _LOG_ZERO + 1, dtype=np.uint16)
    exp[:ORDER - 1] = powers
    exp[ORDER - 1:_LOG_ZERO] = powers
    log = np.empty(ORDER, dtype=np.int32)
    log[powers] = np.arange(ORDER - 1, dtype=np.int32)
    log[0] = _LOG_ZERO
    return exp, log


_EXP, _LOG = _build_tables()


def mul(a, b):
    """Elementwise product of two arrays (or scalars) of field elements."""
    return _EXP[_LOG[a] + _LOG[b]]


def inv_s(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^16)")
    return int(_EXP[(ORDER - 1) - int(_LOG[a])])


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(m x k) @ (k x w) over the field.

    A unit row of A (one nonzero entry, equal to 1, in column t) is a copy
    of row t of B: the systematic generator rows, and the decode-matrix rows
    of message symbols that were read verbatim. Every other row, a single
    nonzero other than 1 included, is a product, computed by `matmul_stack`
    as a stack of one straight into the last rows of the result and then
    moved up to its own row.
    """
    m, k = A.shape
    k2, w = B.shape
    assert k == k2, (A.shape, B.shape)
    out = np.empty((m, w), dtype=np.uint16)
    ones = A == 1
    unit = (np.count_nonzero(A, axis=1) == 1) & ones.any(axis=1)
    rest = np.flatnonzero(~unit)
    if rest.size:
        top = m - rest.size
        matmul_stack(A[None, rest], B[None], out[None, top:])
        # rest ascends, so rest[j] <= top + j: no move overwrites a product
        # still to move, and the copies come after every move
        for j, r in enumerate(rest.tolist()):
            if r != top + j:
                out[r] = out[top + j]
    for r in np.flatnonzero(unit).tolist():
        out[r] = B[ones[r].argmax()]
    return out


def matmul_stack(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(P x m x k) @ (P x k x w) over the field, into `out` (P x m x w) when
    given: slice p of the result is A[p] @ B[p], every row a product. The
    passes run stack-axis innermost, CHUNK // P columns of B at a time (at
    least one), so the buffers hold about k * CHUNK and m * CHUNK elements
    whatever the width."""
    P, m, k = A.shape
    w = B.shape[2]
    assert B.shape[:2] == (P, k), (A.shape, B.shape)
    if out is None:
        out = np.empty((P, m, w), dtype=np.uint16)
    step = max(1, min(w, CHUNK // max(P, 1)))
    log_a = np.ascontiguousarray(_LOG[A].transpose(2, 1, 0))
    log_b = np.empty(k * step * P, dtype=np.int32)
    index = np.empty(m * step * P, dtype=np.int32)
    product, total = np.empty((2, m * step * P), dtype=np.uint16)
    for lo in range(0, w, step):
        cw = min(step, w - lo)
        lb = log_b[:k * cw * P].reshape(k, cw, P)
        np.take(_LOG, B[:, :, lo:lo + cw].transpose(1, 2, 0), out=lb, mode="clip")
        idx, prod, tot = (buf[:m * cw * P].reshape(m, cw, P) for buf in (index, product, total))
        _sum_products(((log_a[t, :, None], lb[t, None]) for t in range(k)), idx, prod, tot)
        out[:, :, lo:lo + cw] = tot.transpose(2, 0, 1)
    return out


def _sum_products(terms, index: np.ndarray, product: np.ndarray, total: np.ndarray) -> None:
    """total = the XOR over (log a, log b) in terms of _EXP[log a + log b],
    each pair broadcast to the buffers' shape: one add, one antilog lookup
    and one XOR per term, all in place."""
    total.fill(0)
    for log_a, log_b in terms:
        np.add(log_a, log_b, out=index)
        np.take(_EXP, index, out=product, mode="clip")
        np.bitwise_xor(total, product, out=total)


def mat_inv(A: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse; raises if A is singular."""
    n = A.shape[0]
    assert A.shape == (n, n)
    work = A.astype(np.uint16)
    inv = np.eye(n, dtype=np.uint16)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r, col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix over GF(2^16)")
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        scale = inv_s(int(work[col, col]))
        work[col] = mul(work[col], scale)
        inv[col] = mul(inv[col], scale)
        # clear the column in every other row at once; a zero factor is a no-op
        factors = work[:, col:col + 1].copy()
        factors[col] = 0
        work ^= mul(factors, work[col])
        inv ^= mul(factors, inv[col])
    return inv


def _lagrange(points, at) -> np.ndarray:
    """Entry [..., a, i] is the Lagrange basis polynomial of points[..., i]
    through points[...], evaluated at at[..., a]: the product over s != i
    of (at[a] + points[s]) / (points[i] + points[s]). A row whose `at` is
    one of the points is the unit row of that point. `points` may be a
    stack of point sets, (..., k), and `at`, (..., a), is broadcast against
    it, so a stack of interpolations is one call.

    The products are sums of logs, taken for all entries at once: the
    denominator of column i is the sum over s != i of log(points[i] +
    points[s]), and the numerator of entry [a, i] is the sum over all s of
    log(at[a] + points[s]) less its own term. Raises ValueError for a point
    or an evaluation point outside the field, or a repeated point.
    """
    p = np.asarray(points, dtype=np.int64)
    x = np.asarray(at, dtype=np.int64)
    for values in (p, x):
        outside = values[(values < 0) | (values >= ORDER)]
        if outside.size:
            raise ValueError(f"symbol index {outside[0]} outside the field universe "
                             f"[0, {ORDER})")
    ordered = np.sort(p, axis=-1)
    repeated = (ordered[..., 1:] == ordered[..., :-1]).any(-1)
    if repeated.any():
        raise ValueError(f"repeated interpolation point in {p[repeated][0].tolist()}")
    # the diagonal's log of 0, the sentinel 2(ORDER-1), is 0 modulo ORDER-1;
    # rows that hit a point are wrong through it and are overwritten
    near = x[..., :, None] ^ p[..., None, :]
    logs = _LOG[near]
    den = _LOG[p[..., :, None] ^ p[..., None, :]].sum(-1)
    out = _EXP[(logs.sum(-1, keepdims=True) - logs - den[..., None, :]) % (ORDER - 1)]
    hit = near == 0
    out[hit.any(-1)] = 0
    out[hit] = 1
    return out


@lru_cache(maxsize=65536)
def generator_row(k: int, index: int) -> tuple[int, ...]:
    """Row of the evaluation-code generator for global symbol `index`.

    Entry t is the Lagrange basis polynomial through anchors 0..k-1,
    evaluated at the point `index`; rows with index < k are unit rows,
    which is what makes the prefix systematic.
    """
    return tuple(_lagrange(range(k), (index,))[0].tolist())


def generator_matrix(k: int, indices: tuple[int, ...]) -> np.ndarray:
    """The generator rows of `indices`, one row per index."""
    return _lagrange(range(k), indices)


@lru_cache(maxsize=4096)
def decode_matrix(k: int, indices: tuple[int, ...]) -> np.ndarray:
    """Inverse of the k x k generator submatrix for k distinct indices: the
    interpolation through those points, evaluated at the anchors 0..k-1,
    as `_lagrange` builds it for a batch of one. Read-only, since every
    later decode of the same indices shares it."""
    if len(indices) != k:
        raise ValueError(f"a decode needs {k} indices, got {len(indices)}")
    D = _lagrange(indices, range(k))
    D.flags.writeable = False
    return D
