"""Dense linear-algebra kernels: norms, Lyapunov solves, matrix exponential.

Everything here is deterministic (no randomized starts, no environment
dependence) so that repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteMatrixError


def frobenius_norm(m) -> float:
    a = np.asarray(m, dtype=float)
    return float(np.sqrt(np.sum(a * a)))


def spectral_norm(m) -> float:
    """Largest singular value: LAPACK SVD, capped at the Frobenius norm.

    The SVD can exceed the Frobenius norm by an ulp on vector-shaped
    inputs; the cap keeps ``spectral_norm(m) <= frobenius_norm(m)`` exact.
    """
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.size == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        raise NonFiniteMatrixError("spectral norm of a non-finite matrix")
    return min(float(np.linalg.norm(a, 2)), frobenius_norm(a))


def max_real_eigenvalue(m) -> float:
    return float(np.max(np.linalg.eigvals(np.asarray(m, dtype=float)).real))


def is_hurwitz(m, margin: float = 0.0) -> bool:
    return max_real_eigenvalue(m) < -margin


# Newton sign-function steps allowed before a Lyapunov solve gives up, and
# the 1-norm distance from the limit sign matrix that ends the iteration.
_SIGN_MAX_ITER = 100
_SIGN_TOL = 1e-8


def solve_lyapunov(f, w, stable: bool = True):
    """Solve ``F' X + X F + W = 0`` by Newton iteration for the matrix sign.

    ``w`` is one (n, n) matrix or a stack (k, n, n) of right-hand sides
    sharing F; the result has the shape of ``w``. ``stable`` says whether F
    is Hurwitz (True) or anti-stable (False); the caller knows, so no
    eigenvalues are computed here. The sign of [[F', W], [0, -F]] is
    [[s I, -2 s X], [0, -s I]] with s = -1 for Hurwitz F, and its Newton
    iteration runs on the two blocks: E <- (E/c + c E^-1)/2 and
    W <- (W/c + c E^-1 W E^-T)/2, one inverse per step for the whole
    stack, with Frobenius scaling c = sqrt(||E|| / ||E^-1||). Once
    ||E - s I||_1 <= _SIGN_TOL one unscaled step finishes W. O(n^3) per
    step. Raises LinAlgError if E does not reach s I within
    _SIGN_MAX_ITER steps (F not of the stated class).
    """
    f = np.asarray(f, dtype=float)
    w = np.asarray(w, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"solve_lyapunov expects a square F, got shape {f.shape}")
    n = f.shape[0]
    if w.ndim not in (2, 3) or w.shape[-2:] != (n, n):
        raise ValueError(f"W must be ({n}, {n}) or a stack (k, {n}, {n}), got shape {w.shape}")
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(w))):
        raise NonFiniteMatrixError("Lyapunov equation with non-finite entries")
    s = -1.0 if stable else 1.0
    target = s * np.eye(n)
    e = f.T
    for _ in range(_SIGN_MAX_ITER):
        einv = np.linalg.inv(e)
        c = np.sqrt(np.sqrt(np.vdot(e, e) / np.vdot(einv, einv)))  # sqrt(||E||_F / ||E^-1||_F)
        e = (0.5 / c) * e + (0.5 * c) * einv
        w = (0.5 / c) * w + (0.5 * c) * (einv @ w @ einv.T)
        if np.abs(e - target).sum(axis=0).max() <= _SIGN_TOL:  # ||E - s I||_1
            break
    else:
        raise np.linalg.LinAlgError(f"sign iteration did not converge in {_SIGN_MAX_ITER} steps")
    einv = np.linalg.inv(e)
    x = (-0.25 * s) * (w + einv @ w @ einv.T)
    return 0.5 * (x + np.swapaxes(x, -1, -2))


# 13th-order diagonal rational approximant coefficients for the scaled
# exponential, combined with squaring back up.
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def _expm_core(a: np.ndarray, norm) -> np.ndarray:
    """Scaling-and-squaring exponential of a stack, spectral norms supplied.

    ``a`` has shape (k, n, n) and ``norm`` holds one spectral norm per
    matrix. Each matrix is scaled by its own power of two
    2^ceil(log2(norm / theta13)), the scaled stack goes through one Pade-13
    evaluation and one broadcast solve, and each result is squared back as
    often as it was scaled. Every member comes out bit-identical to the
    exponential of that matrix alone; zero-norm members are the identity.
    """
    norm = np.asarray(norm, dtype=float)
    ident = np.eye(a.shape[-1])
    squarings = np.zeros(norm.shape, dtype=int)
    big = norm > _PADE13_THETA
    squarings[big] = np.ceil(np.log2(norm[big] / _PADE13_THETA))
    a = a / (2.0**squarings)[:, None, None]

    b = _PADE13_B
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for k in range(squarings.max()):
        sel = squarings > k
        r[sel] = r[sel] @ r[sel]
    r[norm == 0.0] = ident
    return r


def matrix_exponential(m):
    """e^M by scaling-and-squaring with a 13th-order rational approximant.

    The squaring depth is chosen from the spectral norm of M.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix_exponential expects a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteMatrixError("matrix_exponential of a non-finite matrix")
    return _expm_core(a[None], [spectral_norm(a)])[0]
