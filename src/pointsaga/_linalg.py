"""Small dense solves that preserve extended-precision dtypes, row dots,
norms and stacked mat-vecs, per-row scale factors, and sums over a stack's
leading axis in index order.

LAPACK-backed ``np.linalg.solve`` rejects ``np.longdouble``; the elimination
fallback here keeps whatever dtype the caller works in.

Each kernel is picked so that a row of a stacked result is bitwise the
product taken alone. Row dots run through ``np.vecdot`` in every dtype: its
loop is the one a 1-d ``a @ b`` calls. Stacked mat-vecs keep matmul, whose
per-matrix product is BLAS gemv, for float32 and float64: a dot per row
rounds differently there. numpy has no BLAS for any other dtype (notably
longdouble), so matmul runs its generic loop there, a sum over k from 0 for
each entry; ``np.vecdot`` computes that same sum in fewer passes.
"""

import functools

import numpy as np

from .errors import SingularSystem


def _dots(A, B):
    """Row k is A[k] @ B[k], or A[k] @ B for a vector B, bitwise the 1-d dot
    in every dtype: np.vecdot runs the loop a 1-d dot calls, which a
    matrix-vector product need not match. So a row computed alone equals the
    same row inside a pass over all rows. vecdot conjugates a complex A;
    _check_array admits no complex array, so the rows here are real."""
    return np.vecdot(A, B)


def _matvecs(M, V):
    """Row k is M[k] @ V[k], or M[k] @ V for a vector V; M @ V for one matrix.
    Each row is bitwise the product taken alone: float32 and float64 run
    matmul, whose stacked loop calls the same BLAS gemv per matrix; any other
    dtype runs np.vecdot, whose sum over k from 0 is matmul's no-BLAS loop."""
    if np.result_type(M, V) in (np.float32, np.float64):
        return (M @ V[..., None])[..., 0]
    return np.vecdot(M, V[..., None, :])


def _per_row(value, a):
    """value as it scales the rows of a (value * a, a / value): a scalar as it
    is; a 1-d ndarray, one value per row, as a column in a's dtype. That is
    the dtype a Python float or int takes against a, so row k of the result
    is bitwise row k scaled by the Python number value[k] alone."""
    if not (isinstance(value, np.ndarray) and value.ndim):
        return value
    return value.astype(a.dtype, copy=False)[:, None]


@functools.cache
def _square_limit(dtype):
    """A total of squares up to which no partial sum of them can overflow."""
    return np.finfo(dtype).max / 2


def _norms(D):
    """Row k is the Euclidean norm of D[k]: sqrt(_dots(D, D)[k]), bitwise,
    unless that square overflows although the row is finite; such a row is
    normed scaled by its largest entry, so its norm stays finite. One vdot
    over D (an overflowing total reads inf) shows whether any square can
    overflow, so below the limit the norms cost one pass more than the dots."""
    if not np.vdot(D, D) > _square_limit(D.dtype):  # a NaN total takes this path too
        return np.sqrt(_dots(D, D))
    with np.errstate(over="ignore"):
        norms = np.sqrt(_dots(D, D))
    big = np.isinf(norms) & np.isfinite(D).all(axis=1)
    if big.any():
        peak = abs(D[big]).max(axis=1)
        B = D[big] / peak[:, None]
        norms[big] = peak * np.sqrt(_dots(B, B))
    return norms


def _sum_rows(G):
    """G[0] + G[1] + ... added in index order: bitwise np.cumsum(G, axis=0)[-1].

    On a C-ordered stack whose rows hold two or more entries, np.add.reduce
    over the leading axis adds whole rows one after another, so it gives the
    same bits without cumsum's n partial sums. Where a row holds one entry
    (or the stack is not C-ordered) numpy reduces along memory instead and
    sums pairwise, which rounds differently, so there cumsum stays.
    """
    if G.flags.c_contiguous and G[0].size > 1:
        return np.add.reduce(G, axis=0)
    return np.cumsum(G, axis=0)[-1]


def solve(A, b):
    """Solve A x = b for a square dense A, preserving the input dtype.

    Uses LAPACK for float32/float64 and Gaussian elimination with partial
    pivoting for anything else (notably longdouble). Raises SingularSystem
    when no pivot can be found.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    if A.dtype in (np.float32, np.float64):
        try:
            return np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
    return _gauss_solve(A, b)


def _gauss_solve(A, b):
    n = A.shape[0]
    M = A.astype(A.dtype, copy=True)
    x = b.astype(A.dtype, copy=True)
    scale = np.abs(M).max()
    if scale == 0:
        raise SingularSystem("zero matrix")
    tiny = np.finfo(M.dtype).eps * scale * n
    for k in range(n):
        p = k + int(np.argmax(np.abs(M[k:, k])))
        if np.abs(M[p, k]) <= tiny:
            raise SingularSystem(f"pivot {k} below {tiny:g}")
        if p != k:
            M[[k, p]] = M[[p, k]]
            x[[k, p]] = x[[p, k]]
        inv = 1.0 / M[k, k]
        for i in range(k + 1, n):
            f = M[i, k] * inv
            if f != 0.0:
                M[i, k + 1 :] -= f * M[k, k + 1 :]
                x[i] -= f * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - M[k, k + 1 :] @ x[k + 1 :]) / M[k, k]
    return x
