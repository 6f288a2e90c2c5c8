"""Riccati solvers for the potential control problem and the feedback Nash
equilibrium, plus the closed-loop system matrices they induce.

The single-agent continuous-time algebraic Riccati equation is solved by
Newton iteration on the gain (repeated Lyapunov solves), started from a
stabilizing gain obtained by eigenvalue shifting. The coupled equations of
the N-player game are solved by simultaneous policy iteration (the Lyapunov
iterations of Li & Gajic, 1995): every sweep evaluates all players' costs
under the shared closed loop with one Lyapunov solve each and then moves
every gain to its player's best response. Fixed points of that map satisfy
the player-wise stationarity residual evaluated by ``coupled_residuals``,
which is the solver-independent convergence oracle.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergedError,
    MaxIterationsError,
    NotStabilizableError,
    SolverError,
)
from .games import GameSpec, PotentialSpec, aggregate_inputs
from .linalg import frobenius_norm, is_hurwitz, max_real_eigenvalue, solve_lyapunov, spectral_norm

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER_CARE = 50
DEFAULT_MAX_ITER_COUPLED = 200
DIVERGENCE_GUARD = 1e12


@dataclass
class RiccatiSolution:
    """Stabilizing Riccati matrices with their stationarity residuals.

    ``P`` holds one matrix per player for a coupled solve and a single
    matrix for the potential problem. ``residual_history`` traces the max
    residual per outer iteration (diagnostic).
    """

    P: list[np.ndarray]
    residual_norms: list[float]
    iterations: int
    converged: bool
    tol: float
    residual_history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "P": [p.tolist() for p in self.P],
            "residual_norms": self.residual_norms,
            "iterations": self.iterations,
            "converged": self.converged,
            "tol": self.tol,
        }


@dataclass
class ClosedLoop:
    """Feedback loop matrix Ac = A - sum_i B_i K_i and the gains behind it."""

    Ac: np.ndarray
    gains: list[np.ndarray]
    stable: bool

    def to_dict(self) -> dict:
        return {
            "Ac": self.Ac.tolist(),
            "gains": [k.tolist() for k in self.gains],
            "stable": self.stable,
        }


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


def _care_residual_matrix(A, B, Q, R, P) -> np.ndarray:
    s = B @ np.linalg.solve(R, B.T)
    return A.T @ P + P @ A - P @ s @ P + Q


def care_residual(A, B, Q, R, P) -> float:
    """Spectral norm of A'P + PA - P B R^-1 B' P + Q."""
    A = _as_square(A, "A")
    P = _as_square(P, "P")
    Q = _as_square(Q, "Q")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    R = _as_square(R, "R")
    return spectral_norm(_care_residual_matrix(A, B, Q, R, P))


def _stabilizing_gain(A, B) -> np.ndarray:
    """A gain K with A - BK Hurwitz, via shifted-Lyapunov construction.

    With beta above the spectral abscissa of A, the unique solution Z of
    (A + beta I) Z + Z (A + beta I)' = 2 B B' is positive definite for a
    controllable pair, and K = B' Z^-1 yields A_K Z + Z A_K' = -2 beta Z,
    a Lyapunov certificate for A_K = A - BK. The shift is escalated a few
    times before giving up.
    """
    n = A.shape[0]
    m = B.shape[1]
    if max_real_eigenvalue(A) < 0:
        return np.zeros((m, n))
    if not np.any(B):
        raise NotStabilizableError("system matrix is not Hurwitz and the input matrix is zero")
    beta = frobenius_norm(A) + 0.5
    for _ in range(6):
        shifted = (A + beta * np.eye(n)).T
        try:
            z = solve_lyapunov(shifted, -2.0 * (B @ B.T))
            k = np.linalg.solve(z, B).T
        except np.linalg.LinAlgError:
            beta *= 2.0
            continue
        if np.all(np.isfinite(k)) and is_hurwitz(A - B @ k):
            return k
        beta *= 2.0
    raise NotStabilizableError("no stabilizing initial gain found (pair may not be stabilizable)")


def _newton_care(A, B, Q, R, tol, max_iter):
    """Newton iteration for the stabilizing CARE solution.

    Returns (P, spectral residual, iterations). Iterates until the residual
    drops well below ``tol`` or stops improving (quadratic convergence
    normally lands near machine precision). The loop is steered by the
    Frobenius norm, which upper-bounds the reported spectral norm.
    """
    k = _stabilizing_gain(A, B)
    target = 1e-4 * tol
    best_p = None
    best_res = np.inf
    prev_res = np.inf
    stalled = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        f = A - B @ k
        w = Q + k.T @ R @ k
        w = 0.5 * (w + w.T)
        p = solve_lyapunov(f, w)
        res = frobenius_norm(_care_residual_matrix(A, B, Q, R, p))
        if res < best_res:
            best_p, best_res = p, res
        if res <= target:
            break
        stalled = stalled + 1 if res >= prev_res else 0
        if stalled >= 2:  # rounding floor reached
            break
        prev_res = res
        k = np.linalg.solve(R, B.T @ p)
    if best_p is None:
        return None, np.inf, iterations
    return best_p, care_residual(A, B, Q, R, best_p), iterations


@_solver_boundary
def solve_care(A, B, Q, R, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER_CARE) -> RiccatiSolution:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Raises NotStabilizableError if no stabilizing gain exists (or the
    closed loop fails the eigenvalue check) and MaxIterationsError if the
    residual tolerance is not reached within the budget.
    """
    A = _as_square(A, "A")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = _as_square(Q, "Q")
    R = _as_square(R, "R")
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"B must have {A.shape[0]} rows, got {B.shape}")

    p, res, iterations = _newton_care(A, B, Q, R, tol, max_iter)
    if p is None or res > tol:
        raise MaxIterationsError(f"CARE residual {res:.3e} above tolerance {tol:.3e} after {iterations} iterations")
    loop = A - B @ np.linalg.solve(R, B.T @ p)
    if not is_hurwitz(loop, margin=0.0):
        raise NotStabilizableError("computed solution does not stabilize the closed loop")
    return RiccatiSolution(P=[p], residual_norms=[res], iterations=iterations, converged=True, tol=tol, residual_history=[res])


def coupled_residuals(game: GameSpec, P: list[np.ndarray]) -> list[float]:
    """Player-wise stationarity residuals of a candidate solution set.

    For player i, with S_j = B_j R_jj^-1 B_j' and K_j = R_jj^-1 B_j' P_j:

        Q_i + A'P_i + P_i A - P_i S_i P_i
            - sum_{j != i} (P_i S_j P_j + P_j S_j P_i - K_j' R_ij K_j)

    measured in the spectral norm. Independent of how P was produced.
    """
    n_players = game.n_players
    if len(P) != n_players:
        raise ValueError(f"expected {n_players} matrices, got {len(P)}")
    A = game.A
    s = []
    k = []
    for j, pl in enumerate(game.players):
        pj = _as_square(P[j], f"P[{j}]")
        if pj.shape != (game.n, game.n):
            raise ValueError(f"P[{j}] must be {game.n}x{game.n}, got {pj.shape}")
        rjj = game.self_R(j)
        kj = np.linalg.solve(rjj, pl.B.T @ pj)
        k.append(kj)
        s.append(pl.B @ np.linalg.solve(rjj, pl.B.T))
    out = []
    for i, pl in enumerate(game.players):
        pi = np.asarray(P[i], dtype=float)
        res = pl.Q + A.T @ pi + pi @ A - pi @ s[i] @ pi
        for j in range(n_players):
            if j == i:
                continue
            pj = np.asarray(P[j], dtype=float)
            res -= pi @ s[j] @ pj + pj @ s[j] @ pi - k[j].T @ game.cross_R(i, j) @ k[j]
        out.append(spectral_norm(res))
    return out


@_solver_boundary
def solve_coupled_riccati(
    game: GameSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER_COUPLED,
) -> RiccatiSolution:
    """Feedback Nash solution {P_i} of the coupled Riccati equations.

    Simultaneous policy iteration from a jointly stabilizing gain set: each
    sweep forms the shared closed loop Ac = A - sum_j B_j K_j, evaluates
    every player by one Lyapunov solve

        Ac' P_i + P_i Ac + Q_i + sum_j K_j' R_ij K_j = 0

    and sets K_i = R_ii^-1 B_i' P_i for the next sweep. A sweep whose closed
    loop is not Hurwitz raises NotStabilizableError, so a returned solution
    always comes from a stabilizing gain set. Convergence is declared on
    the evaluated set, judged by ``coupled_residuals``.
    """
    n = game.n
    n_players = game.n_players
    A = game.A
    bs = [pl.B for pl in game.players]
    rs = [game.self_R(i) for i in range(n_players)]

    if is_hurwitz(A):
        gains = [np.zeros((pl.p, n)) for pl in game.players]
    else:
        bp, blocks = aggregate_inputs(game)
        joint = _stabilizing_gain(A, bp)
        edges = np.concatenate(([0], np.cumsum(blocks)))
        gains = [joint[edges[i] : edges[i + 1], :] for i in range(n_players)]

    # Iterate past the requested tolerance (down to target) so that reported
    # gains sit well inside it; accept a stagnated residual once under tol.
    target = 0.01 * tol
    history: list[float] = []
    best: tuple[float, list[np.ndarray], list[float], int] | None = None
    for outer in range(1, max_iter + 1):
        ac = A - sum(b @ k for b, k in zip(bs, gains))
        if not is_hurwitz(ac):
            raise NotStabilizableError(f"closed loop not stabilizing at outer iteration {outer}")
        candidates = [
            solve_lyapunov(ac, pl.Q + sum(k.T @ game.cross_R(i, j) @ k for j, k in enumerate(gains)))
            for i, pl in enumerate(game.players)
        ]

        if not max(frobenius_norm(p) for p in candidates) <= DIVERGENCE_GUARD:  # NaN trips it too
            raise DivergedError(f"iterate norm exceeded {DIVERGENCE_GUARD:.1e} at outer iteration {outer}")

        residuals = coupled_residuals(game, candidates)
        worst = max(residuals)
        history.append(worst)
        log.debug("coupled outer %d: max residual %.3e", outer, worst)
        stagnated = len(history) >= 2 and worst >= history[-2]
        if best is None or worst < best[0]:
            best = (worst, candidates, residuals, outer)
        if worst <= target or (worst <= tol and stagnated):
            return RiccatiSolution(
                P=candidates,
                residual_norms=residuals,
                iterations=outer,
                converged=True,
                tol=tol,
                residual_history=history,
            )
        gains = [np.linalg.solve(r, b.T @ p) for r, b, p in zip(rs, bs, candidates)]

    if best is not None and best[0] <= tol:
        return RiccatiSolution(
            P=best[1],
            residual_norms=best[2],
            iterations=best[3],
            converged=True,
            tol=tol,
            residual_history=history,
        )
    worst = np.inf if best is None else best[0]
    raise MaxIterationsError(
        f"coupled residual {worst:.3e} above tolerance {tol:.3e} after {max_iter} outer iterations"
    )


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
