"""Proximity operators for the component families shipped with the library.

For a smooth f, ``p = prox_{gamma f}(z)`` is characterized by the resolvent
identity ``p + gamma * grad f(p) = z``; every operator here reports the norm
of its defect in that identity as ``residual``.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import _norms
from .errors import DimensionMismatch, MaxInnerIterations
from .model import _check_array

#: Default residual tolerance. Closed forms land far below this; iterative
#: proxes are driven to it.
TOL_PROX = 1e-10

#: Iteration cap for the scalar Newton/bisection solve.
NEWTON_BUDGET = 200

#: |h(u)| at which the logistic prox's root counts as found (logistic_root_tol).
TOL_LOGISTIC_ROOT = 1e-12

#: logistic_root_tol's multiple of the float64 unit roundoff, looked up once.
_ROOT_EPS = 8.0 * np.finfo(float).eps


@dataclass
class ProxResult:
    """Prox output: the point, its resolvent defect, and inner-solve cost."""

    point: np.ndarray
    residual: float
    inner_iters: int = 0


def sigmoid(v):
    """Numerically stable logistic function 1 / (1 + exp(-v))."""
    if v >= 0:
        return 1.0 / (1.0 + np.exp(-v))
    e = np.exp(v)
    return e / (1.0 + e)


def prox_rank_one_quadratic(a, y, mu_reg, gamma, z):
    """Prox of f(x) = (a'x - y)^2 / 2 + mu_reg ||x||^2 / 2 in O(d).

    Solves ((1 + gamma mu_reg) I + gamma a a') x = z + gamma y a by the
    rank-one inverse formula; never singular for gamma > 0, mu_reg >= 0.
    a and z are taken as model._check_array admits them.
    """
    a, z = _check_array(a, None, "a"), _check_array(z, None, "z")
    if a.shape != z.shape:
        raise DimensionMismatch(f"a has shape {a.shape}, z has shape {z.shape}")
    alpha = 1.0 + gamma * mu_reg
    w = z + gamma * y * a
    aa = a @ a
    x = (w - (gamma * (a @ w) / (alpha + gamma * aa)) * a) / alpha
    defect = x + gamma * (a * (a @ x - y) + mu_reg * x) - z
    return ProxResult(x, _norms(defect[None])[0])


def prox_logistic_ridge(a, y, mu_reg, gamma, z):
    """Prox of f(x) = log(1 + exp(-y a'x)) + mu_reg ||x||^2 / 2.

    The optimality condition reduces to a scalar root-find in u = a'x:

        h(u) = (1 + gamma mu_reg) u - a'z - gamma y ||a||^2 sigmoid(-y u) = 0,

    h is strictly increasing, so Newton with a bisection safeguard on a
    bracket derived from |u| <= (||a|| ||z|| + gamma ||a||^2) / (1 + gamma mu_reg)
    terminates once |h(u)| <= logistic_root_tol. Raises MaxInnerIterations
    past the safeguard budget. It works in float64, gamma included, on a and
    z as model._check_array admits them.
    """
    gamma = float(gamma)
    a = _check_array(a, None, "a").astype(float, copy=False)
    z = _check_array(z, None, "z").astype(float, copy=False)
    if a.shape != z.shape:
        raise DimensionMismatch(f"a has shape {a.shape}, z has shape {z.shape}")
    alpha = 1.0 + gamma * mu_reg
    aa = float(a @ a)
    if aa == 0.0:
        # Loss is constant in x; only the ridge term acts.
        x = z / alpha
        return ProxResult(x, _logistic_defect(a, y, mu_reg, gamma, z, x), 0)

    az = float(a @ z)

    def h(u):
        return alpha * u - az - gamma * y * aa * sigmoid(-y * u)

    bound = (np.sqrt(aa) * float(_norms(z[None])[0]) + gamma * aa) / alpha + 1.0
    ends = [-bound, bound]
    iters = 0
    # h(-bound) <= 0 <= h(bound) by the bound's derivation; widen defensively,
    # the lower end first.
    for k, side in ((0, -1.0), (1, 1.0)):
        while side * h(ends[k]) < 0.0:
            ends[k] *= 2.0
            iters += 1
            if iters > NEWTON_BUDGET:
                raise MaxInnerIterations("could not bracket logistic prox root")
    lo, hi = ends

    u = 0.5 * (lo + hi)
    while True:
        hu = h(u)
        hu_tol = logistic_root_tol(alpha, u, abs(az), gamma * aa)
        if abs(hu) <= hu_tol:
            break
        iters += 1
        if iters > NEWTON_BUDGET:
            raise MaxInnerIterations(
                f"logistic prox: |h(u)| = {abs(hu):.3e} > tol = {hu_tol:.3g} "
                f"after {NEWTON_BUDGET} iterations"
            )
        if hu > 0.0:
            hi = u
        else:
            lo = u
        s = sigmoid(-y * u)
        step = hu / (alpha + gamma * aa * s * (1.0 - s))
        u_new = u - step
        if not (lo < u_new < hi):
            u_new = 0.5 * (lo + hi)
        u = u_new

    x = (z + gamma * y * sigmoid(-y * u) * a) / alpha
    return ProxResult(x, _logistic_defect(a, y, mu_reg, gamma, z, x), iters)


def logistic_root_tol(alpha, u, abs_az, gamma_aa):
    """max(TOL_LOGISTIC_ROOT, 8 eps (alpha |u| + abs_az + gamma ||a||^2)), abs_az = |a'z|,
    elementwise: |h(u)| at which the root counts as found, never below h's rounding."""
    return np.maximum(TOL_LOGISTIC_ROOT,
                      _ROOT_EPS * (alpha * abs(u) + abs_az + gamma_aa))


def _logistic_defect(a, y, mu_reg, gamma, z, x):
    grad = -y * sigmoid(-y * float(a @ x)) * a + mu_reg * x
    defect = x + gamma * grad - z
    return float(_norms(defect[None])[0])


def prox_generic(f, gamma, z, tol, mu, L):
    """Prox of an arbitrary mu-strongly convex, L-smooth f by inner descent.

    Minimizes phi(x) = f(x) + ||x - z||^2 / (2 gamma) with the fixed step
    1/(L + 1/gamma); phi is (L + 1/gamma)-smooth and (mu + 1/gamma)-strongly
    convex, so the iteration is linearly convergent. Stops once the resolvent
    defect ||x + gamma grad f(x) - z|| drops to tol.
    """
    z = np.asarray(z)
    kappa = (1.0 + gamma * L) / (1.0 + gamma * mu)
    budget = 10 * max(int(np.ceil(kappa * np.log(1.0 / tol))), 1)
    step = 1.0 / (L + 1.0 / gamma)
    x = z.copy()
    for it in range(budget + 1):
        g = f.gradient(x)
        defect = x + gamma * g - z
        res = _norms(defect[None])[0]
        if res <= tol:
            return ProxResult(x, res, it)
        x = x - step * (g + (x - z) / gamma)
    raise MaxInnerIterations(
        f"generic prox: residual {res:.3e} > tol {tol:g} after {budget} iterations"
    )

