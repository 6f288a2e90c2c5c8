"""Dense linear-algebra kernels: norms, Lyapunov solves, matrix exponential.

Everything here is deterministic (no randomized starts, no environment
dependence) so that repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import math

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


# Newton sign-function steps allowed before a Lyapunov solve (or the CARE's
# Hamiltonian iteration) gives up, and the 1-norm distance from the limit sign
# matrix (for the CARE: the relative 1-norm step) that ends the iteration.
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


# Degree m of the truncated Taylor series T_m(A) = sum_{j<=m} A^j / j! that
# approximates the scaled exponential, its coefficients, and the largest
# scaled norm theta_m it accepts: the first neglected term theta^(m+1)/(m+1)!
# equals the unit roundoff u = eps / 2.
_TAYLOR_DEGREE = 16
_TAYLOR_COEF = tuple(1.0 / math.factorial(j) for j in range(_TAYLOR_DEGREE + 1))
_TAYLOR_THETA = (np.finfo(float).eps / 2 * math.factorial(_TAYLOR_DEGREE + 1)) ** (1.0 / (_TAYLOR_DEGREE + 1))


def _expm_core(a: np.ndarray, norm) -> np.ndarray:
    """Scaling-and-squaring exponential of a stack, spectral norms supplied.

    ``a`` has shape (k, n, n) and ``norm`` holds one spectral norm per
    matrix, in non-decreasing order. Each matrix A is scaled by its own
    power of two 2^s, s = max(0, ceil(log2(||A|| / theta_m))), so that
    ||A / 2^s|| <= theta_m, where the Taylor remainder obeys

        ||e^X - T_m(X)|| <= ||X||^(m+1) / (m+1)! * (m+2) / (m+2 - ||X||)

    (at most 1.05 u for m = 16, theta_m = 0.83). T_16 is evaluated by
    Paterson-Stockmeyer (Higham, Functions of Matrices, 2008, 4.2): with
    the powers A^2, A^3, A^4 and the blocks
    B_i = sum_{j<4} A^j / (4i+j)!, T_16 = B_0 + A^4 (B_1 + A^4 (B_2 +
    A^4 (B_3 + A^4 / 16!))), six products in all and no solve. Each result
    is then squared back s times. Since the norms never decrease, neither
    do the depths, so each squaring acts on a contiguous tail of the stack.
    Products are per member and coefficient sums element-wise, so every
    member comes out bit-identical to the exponential of that matrix
    alone; a zero matrix gives the identity exactly.
    """
    norm = np.asarray(norm, dtype=float)
    k, n = a.shape[0], a.shape[-1]
    squarings = np.ceil(np.log2(np.maximum(norm, _TAYLOR_THETA) / _TAYLOR_THETA)).astype(int)
    a = a / (2.0**squarings)[:, None, None]

    c = _TAYLOR_COEF
    a2 = a @ a
    a3 = a2 @ a
    a4 = a2 @ a2

    def add_block(r, j):  # r + c_j I + c_{j+1} A + c_{j+2} A^2 + c_{j+3} A^3, in place
        r += c[j + 1] * a
        r += c[j + 2] * a2
        r += c[j + 3] * a3
        r.reshape(k, n * n)[:, :: n + 1] += c[j]
        return r

    r = add_block(c[16] * a4, 12)
    for j in (8, 4, 0):
        r = add_block(a4 @ r, j)
    for lo in np.searchsorted(squarings, np.arange(squarings[-1]), side="right"):
        r[lo:] = r[lo:] @ r[lo:]
    return r


def matrix_exponential(m):
    """e^M by scaling-and-squaring with a degree-16 Taylor polynomial.

    The squaring depth is chosen from the spectral norm of M.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix_exponential expects a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteMatrixError("matrix_exponential of a non-finite matrix")
    return _expm_core(a[None], [spectral_norm(a)])[0]
