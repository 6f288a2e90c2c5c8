"""Riccati solvers for the potential control problem and the feedback Nash
equilibrium, plus the closed-loop system matrices they induce.

The single-agent continuous-time algebraic Riccati equation is solved by
the matrix sign function of its Hamiltonian, which needs no stabilizing
start, with Newton steps only while the residual is above the tolerance.
The coupled equations of the N-player game are solved by
simultaneous policy iteration (the Lyapunov iterations of Li & Gajic,
1995), of which Newton's method is the one-player case: every sweep
evaluates all players' costs under the shared closed loop with one stacked
Lyapunov solve and moves every gain to its player's best response. Both
solvers work on P, not the gains: from per-game constants formed once,
``_step`` gives every player's residual, the next closed loop and the next
right-hand sides. Fixed points satisfy the player-wise stationarity
residual of ``coupled_residuals``, the solver-independent oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._records import Record
from .errors import (
    DivergedError,
    MaxIterationsError,
    NonFiniteMatrixError,
    NotStabilizableError,
    SolverError,
)
from .games import GameSpec, PotentialSpec, aggregate_inputs
from .linalg import _SIGN_MAX_ITER, _SIGN_TOL, frobenius_norm, is_hurwitz, solve_lyapunov

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER_CARE = 3  # Newton steps after the Hamiltonian sign function
DEFAULT_MAX_ITER_COUPLED = 200
DIVERGENCE_GUARD = 1e12


@dataclass
class RiccatiSolution(Record):
    """Stabilizing Riccati matrices with their stationarity residuals.

    ``P`` holds one matrix per player for a coupled solve and a single
    matrix for the potential problem. ``residual_history`` traces the max
    residual per outer iteration (diagnostic; not part of ``to_dict``).
    """

    P: list[np.ndarray]
    residual_norms: list[float]
    iterations: int
    converged: bool
    tol: float
    residual_history: list[float] = field(default_factory=list, metadata={"json": False})


@dataclass
class ClosedLoop(Record):
    """Feedback loop matrix Ac = A - sum_i B_i K_i and the gains behind it."""

    Ac: np.ndarray
    gains: list[np.ndarray]
    stable: bool


def _solver_boundary(solver):
    """Report a singular linear solve inside ``solver`` as a SolverError.

    numpy's LinAlgError subclasses ValueError, which callers read as bad
    input; a solve that breaks down mid-iteration is a solver failure.
    """

    @functools.wraps(solver)
    def wrapper(*args, **kwargs):
        try:
            return solver(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"linear solve failed: {exc}") from exc

    return wrapper


def _as_square(m, name) -> np.ndarray:
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got {a.shape}")
    return a


def _constants(A, qs, bs, r):
    """Per-game constants (A, Q, S, W) of the Riccati step; ``r(i, j)`` gives R_ij.

    Q stacks Q_i, S stacks S_j = B_j R_jj^-1 B_j' and W[i, j] = G_j' R_ij G_j
    with G_j = R_jj^-1 B_j', so that K_j' R_ij K_j = P_j W_ij P_j.
    """
    gs = [np.linalg.solve(r(j, j), b.T) for j, b in enumerate(bs)]
    s = np.stack([b @ g for b, g in zip(bs, gs)])
    w = np.array([[g.T @ r(i, j) @ g for j, g in enumerate(gs)] for i in range(len(bs))])
    return A, np.stack(qs), s, w


def _step(consts, p):
    """Residuals of the stacked candidates ``p`` (N, n, n) and the next Lyapunov data.

    With T = sum_j S_j P_j and D[i, j] = P_j W_ij P_j, the closed loop of
    the gains K_j = G_j P_j is Ac = A - T and player i's right-hand side is
    rhs_i = Q_i + sum_j D[i, j]. For symmetric P the residual of
    ``coupled_residuals`` is Ac' P_i + P_i Ac + rhs_i. Returns (residual
    stack, spectral norms, Ac, rhs); the norms come from one batched SVD,
    capped at the Frobenius norm as in ``spectral_norm``.
    """
    a, q, s, w = consts
    ac = a - (s @ p).sum(axis=0)
    rhs = q + (p @ w @ p).sum(axis=1)
    res = ac.T @ p + p @ ac + rhs
    if not np.all(np.isfinite(res)):
        raise NonFiniteMatrixError("spectral norm of a non-finite matrix")
    norms = np.minimum(np.linalg.svd(res, compute_uv=False)[:, 0], np.sqrt(np.sum(res * res, axis=(1, 2))))
    return res, norms, ac, rhs


def care_residual(A, B, Q, R, P) -> float:
    """Spectral norm of A'P + PA - P B R^-1 B' P + Q."""
    A = _as_square(A, "A")
    P = _as_square(P, "P")
    Q = _as_square(Q, "Q")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    R = _as_square(R, "R")
    return float(_step(_constants(A, [Q], [B], lambda i, j: R), P[None])[1][0])


def _stabilizing_gain(A, B) -> np.ndarray:
    """A gain K with A - BK Hurwitz for a non-Hurwitz A, via shifted-Lyapunov construction.

    With beta above the spectral abscissa of A, the unique solution Z of
    (A + beta I) Z + Z (A + beta I)' = 2 B B' is positive definite for a
    controllable pair, and K = B' Z^-1 yields A_K Z + Z A_K' = -2 beta Z,
    a Lyapunov certificate for A_K = A - BK. The shift is escalated a few
    times before giving up.
    """
    n = A.shape[0]
    if not np.any(B):
        raise NotStabilizableError("system matrix is not Hurwitz and the input matrix is zero")
    beta = frobenius_norm(A) + 0.5
    for _ in range(6):
        shifted = (A + beta * np.eye(n)).T
        try:
            z = solve_lyapunov(shifted, -2.0 * (B @ B.T), stable=False)
            k = np.linalg.solve(z, B).T
        except np.linalg.LinAlgError:
            beta *= 2.0
            continue
        if np.all(np.isfinite(k)) and is_hurwitz(A - B @ k):
            return k
        beta *= 2.0
    raise NotStabilizableError("no stabilizing initial gain found (pair may not be stabilizable)")


def _newton_care(A, B, Q, R, tol):
    """Stabilizing CARE solution from the sign of the Hamiltonian H = [[A, -S], [-Q, -A']].

    Returns (P, spectral residual, steps). The scaled Newton sign iteration
    of ``solve_lyapunov`` runs on H to a relative 1-norm step of _SIGN_TOL;
    [I; P] spans the null space of Z = sign(H) + I (Roberts 1980; Byers
    1987), so P solves [Z12; Z22] P = -[Z11; Z21] by least squares. While
    the residual is above ``tol``, up to DEFAULT_MAX_ITER_CARE Newton steps
    follow, one Lyapunov solve on ``_step``'s next data each; ``steps``
    counts sign and Newton steps. Eigenvalues of H on the imaginary axis, or
    a stable subspace that is not a graph, raise NotStabilizableError.
    """
    consts = _constants(A, [Q], [B], lambda i, j: R)
    n = A.shape[0]
    z = np.block([[A, -consts[2][0]], [-consts[1][0], -A.T]])
    for steps in range(1, _SIGN_MAX_ITER + 1):
        try:
            zinv = np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            raise NotStabilizableError(f"Hamiltonian sign iteration failed: {exc}") from exc
        c = np.sqrt(np.sqrt(np.vdot(z, z) / np.vdot(zinv, zinv)))  # sqrt(||Z||_F / ||Z^-1||_F)
        z, prev = (0.5 / c) * z + (0.5 * c) * zinv, z
        if np.abs(z - prev).sum(axis=0).max() <= _SIGN_TOL * np.abs(z).sum(axis=0).max():
            break
    else:
        raise NotStabilizableError(f"Hamiltonian sign iteration failed: no convergence in {_SIGN_MAX_ITER} steps")
    z[np.diag_indices(2 * n)] += 1.0
    p, _, rank, _ = np.linalg.lstsq(z[:, n:], -z[:, :n], rcond=None)
    if rank < n:
        raise NotStabilizableError("stable invariant subspace of the Hamiltonian is not a graph")
    p = 0.5 * (p + p.T)
    for newton in range(DEFAULT_MAX_ITER_CARE + 1):
        _, norms, ac, rhs = _step(consts, p[None])
        if norms[0] <= tol or newton == DEFAULT_MAX_ITER_CARE:
            break
        p = solve_lyapunov(ac, rhs[0])
    return p, float(norms[0]), steps + newton


@_solver_boundary
def solve_care(A, B, Q, R, tol: float = DEFAULT_TOL) -> RiccatiSolution:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Raises NotStabilizableError if no stabilizing solution is found (or
    the closed loop fails the eigenvalue check) and MaxIterationsError if
    the residual tolerance is not reached within the Newton budget.
    """
    A = _as_square(A, "A")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = _as_square(Q, "Q")
    R = _as_square(R, "R")
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"B must have {A.shape[0]} rows, got {B.shape}")
    if not 0 < tol < np.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")

    p, res, iterations = _newton_care(A, B, Q, R, tol)
    if res > tol:
        raise MaxIterationsError(f"CARE residual {res:.3e} above tolerance {tol:.3e} after {iterations} kernel steps")
    loop = A - B @ np.linalg.solve(R, B.T @ p)
    if not is_hurwitz(loop, margin=0.0):
        raise NotStabilizableError("computed solution does not stabilize the closed loop")
    return RiccatiSolution(P=[p], residual_norms=[res], iterations=iterations, converged=True, tol=tol, residual_history=[res])


def _game_constants(game: GameSpec):
    return _constants(game.A, [pl.Q for pl in game.players], [pl.B for pl in game.players], game.cross_R)


def coupled_residuals(game: GameSpec, P: list[np.ndarray]) -> list[float]:
    """Player-wise stationarity residuals of a candidate solution set.

    For player i, with S_j = B_j R_jj^-1 B_j' and K_j = R_jj^-1 B_j' P_j:

        Q_i + A'P_i + P_i A - P_i S_i P_i
            - sum_{j != i} (P_i S_j P_j + P_j S_j P_i - K_j' R_ij K_j)

    measured in the spectral norm. Independent of how P was produced; P is
    taken to be symmetric, as Riccati solutions are.
    """
    n_players = game.n_players
    if len(P) != n_players:
        raise ValueError(f"expected {n_players} matrices, got {len(P)}")
    ps = [_as_square(pj, f"P[{j}]") for j, pj in enumerate(P)]
    for j, pj in enumerate(ps):
        if pj.shape != (game.n, game.n):
            raise ValueError(f"P[{j}] must be {game.n}x{game.n}, got {pj.shape}")
    return _step(_game_constants(game), np.stack(ps))[1].tolist()


@_solver_boundary
def solve_coupled_riccati(
    game: GameSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER_COUPLED,
) -> RiccatiSolution:
    """Feedback Nash solution {P_i} of the coupled Riccati equations.

    Simultaneous policy iteration from a jointly stabilizing gain set: each
    sweep forms the shared closed loop Ac = A - sum_j B_j K_j, evaluates
    every player by one stacked Lyapunov solve on Ac

        Ac' P_i + P_i Ac + Q_i + sum_j K_j' R_ij K_j = 0,  i = 1..N

    and moves to the gains K_i = R_ii^-1 B_i' P_i for the next sweep. The
    iteration carries P, not the gains: ``_step`` gives the residuals of
    ``coupled_residuals`` and the next Ac and right-hand sides from the
    per-game constants. A sweep whose closed loop is not Hurwitz raises
    NotStabilizableError, so a returned solution always comes from a
    stabilizing gain set.
    """
    if not (0 < tol < np.inf and max_iter >= 1):  # NaN fails too
        raise ValueError(f"tol must be finite and > 0 and max_iter >= 1, got tol={tol!r}, max_iter={max_iter!r}")
    n = game.n
    n_players = game.n_players
    A = game.A
    consts = _game_constants(game)

    if is_hurwitz(A):
        gains = [np.zeros((pl.p, n)) for pl in game.players]
    else:
        bp, blocks = aggregate_inputs(game)
        joint = _stabilizing_gain(A, bp)
        edges = np.concatenate(([0], np.cumsum(blocks)))
        gains = [joint[edges[i] : edges[i + 1], :] for i in range(n_players)]
    ac = A - sum(pl.B @ k for pl, k in zip(game.players, gains))
    rhs = np.stack(
        [pl.Q + sum(k.T @ game.cross_R(i, j) @ k for j, k in enumerate(gains)) for i, pl in enumerate(game.players)]
    )

    # Iterate past the requested tolerance (down to target) so that reported
    # gains sit well inside it; accept a stagnated residual once under tol.
    target = 0.01 * tol
    history: list[float] = []
    best = (np.inf, None, None, 0)  # (max residual, P, residuals, outer iteration)
    for outer in range(1, max_iter + 1):
        if not is_hurwitz(ac):
            raise NotStabilizableError(f"closed loop not stabilizing at outer iteration {outer}")
        candidates = solve_lyapunov(ac, rhs)

        if not np.sqrt(np.sum(candidates * candidates, axis=(1, 2))).max() <= DIVERGENCE_GUARD:  # NaN trips it too
            raise DivergedError(f"iterate norm exceeded {DIVERGENCE_GUARD:.1e} at outer iteration {outer}")

        _, norms, ac, rhs = _step(consts, candidates)
        current = (float(norms.max()), list(candidates), norms.tolist(), outer)
        history.append(current[0])
        stagnated = len(history) >= 2 and current[0] >= history[-2]
        best = min(best, current, key=lambda c: c[0])
        if current[0] <= target or (current[0] <= tol and stagnated):
            break
    else:
        current = best
        if not best[0] <= tol:
            raise MaxIterationsError(
                f"coupled residual {best[0]:.3e} above tolerance {tol:.3e} after {max_iter} outer iterations"
            )
    _, ps, residuals, outer = current
    return RiccatiSolution(P=ps, residual_norms=residuals, iterations=outer, converged=True, tol=tol, residual_history=history)


def closed_loop_nash(game: GameSpec, P: list[np.ndarray]) -> ClosedLoop:
    """Ac = A - sum_i B_i R_ii^-1 B_i' P_i with per-player gains recorded."""
    gains = []
    ac = game.A.copy()
    for i, pl in enumerate(game.players):
        k = np.linalg.solve(game.self_R(i), pl.B.T @ np.asarray(P[i], dtype=float))
        gains.append(k)
        ac = ac - pl.B @ k
    return ClosedLoop(Ac=ac, gains=gains, stable=is_hurwitz(ac))


def closed_loop_potential(game: GameSpec, pot: PotentialSpec, Pp: np.ndarray) -> ClosedLoop:
    """Ac = A - Bp Rp^-1 Bp' Pp for the potential's optimal feedback."""
    kp = np.linalg.solve(pot.Rp, pot.Bp.T @ np.asarray(Pp, dtype=float))
    ac = game.A - pot.Bp @ kp
    return ClosedLoop(Ac=ac, gains=[kp], stable=is_hurwitz(ac))
