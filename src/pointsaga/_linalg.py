"""Small dense solves that preserve extended-precision dtypes, and row dots.

LAPACK-backed ``np.linalg.solve`` rejects ``np.longdouble``; the elimination
fallback here keeps whatever dtype the caller works in.
"""

import numpy as np

from .errors import SingularSystem


def _dots(A, B):
    """Row k is A[k] @ B[k], or A[k] @ B for a vector B; each is bitwise the
    1-d dot, which a matrix-vector product need not be. So a row computed
    alone equals the same row inside a pass over all rows."""
    return (A[:, None, :] @ B[..., None])[:, 0, 0]


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
