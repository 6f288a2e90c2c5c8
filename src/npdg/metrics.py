"""Distance metrics between a game's Nash feedback and a candidate potential.

The per-player distance is computed between feedback prescriptions: the
row block of the potential's gain Kp = Rp^-1 Bp' Pp belonging to player i
is compared against the player's own Nash gain K_i = R_ii^-1 B_i' P_i,

    d_i = || (Kp)_i - K_i ||_2,    delta_star = max_i d_i.

At unit input penalties this is exactly the raw Riccati-matrix distance
max_i ||B_i' Pp - B_i' P_i||_2, and because gains are invariant under
positive rescaling of any cost, the distance is well defined on the whole
equivalence class of cost scalings (multiplying a player's cost or the
potential cost by kappa > 0 changes the Riccati matrices by kappa but not
d_i). delta_star == 0 is equivalent to the two closed loops coinciding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._records import Record
from .errors import BlockMismatchError, GridMismatchError, NotNormalizedError
from .games import GameSpec, PotentialSpec
from .linalg import frobenius_norm, spectral_norm
from .riccati import (
    DEFAULT_MAX_ITER_COUPLED,
    closed_loop_nash,
    closed_loop_potential,
    solve_care,
    solve_coupled_riccati,
)

EXACTNESS_TOL = 1e-8


@dataclass
class DistanceReport(Record):
    per_player: list[float]
    delta_star: float
    is_exact: bool
    tolerance_used: float


@dataclass
class BoundChain(Record):
    """Pieces of the closed-loop error bound ||deltaK|| <= ||Bp|| N delta*."""

    chain_value: float
    bp_norm: float
    n_players: int
    delta_star: float
    f_tilde_norm2: float
    f_tilde_frobenius: float
    frobenius_estimate: float  # N * max_i || row block i of F ||_2
    row_block_norms: list[float]
    scaling_condition_per_player: list[bool]
    scaling_condition: bool


@dataclass
class DeltaKReport(Record):
    deltaK: np.ndarray
    norm2: float
    bound_chain: BoundChain | None = None

    def to_dict(self) -> dict:
        doc = super().to_dict()
        if self.bound_chain is None:
            del doc["bound_chain"]
        return doc


def _check_layout(game: GameSpec, pot: PotentialSpec):
    if pot.blocks != game.widths:
        raise BlockMismatchError(f"potential blocks {pot.blocks} do not match player input widths {game.widths}")
    if pot.Bp.shape != (game.n, sum(pot.blocks)):
        raise BlockMismatchError(f"Bp has shape {pot.Bp.shape}, expected {(game.n, sum(pot.blocks))}")


def _gains(game: GameSpec, P: list[np.ndarray], pot: PotentialSpec, Pp) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-player Nash gains and the matching row blocks of the potential gain."""
    kp = np.linalg.solve(pot.Rp, pot.Bp.T @ np.asarray(Pp, dtype=float))
    kp_blocks = [kp[sl, :] for sl in pot.block_slices()]
    k = [np.linalg.solve(game.self_R(i), pl.B.T @ np.asarray(P[i], dtype=float)) for i, pl in enumerate(game.players)]
    return k, kp_blocks


def delta_star(
    game: GameSpec,
    P: list[np.ndarray],
    pot: PotentialSpec,
    Pp,
    tolerance: float = EXACTNESS_TOL,
) -> DistanceReport:
    """Per-player gain distances and their maximum."""
    _check_layout(game, pot)
    k, kp_blocks = _gains(game, P, pot, Pp)
    per_player = [spectral_norm(kpb - ki) for kpb, ki in zip(kp_blocks, k)]
    worst = max(per_player)
    return DistanceReport(
        per_player=per_player,
        delta_star=worst,
        is_exact=worst <= tolerance,
        tolerance_used=tolerance,
    )


def is_exact_potential(
    game: GameSpec,
    pot: PotentialSpec,
    tol: float = EXACTNESS_TOL,
    max_iter: int = DEFAULT_MAX_ITER_COUPLED,
) -> bool:
    """Solve both sides and test whether the distance vanishes within tol; max_iter bounds the coupled solve."""
    nash = solve_coupled_riccati(game, max_iter=max_iter)
    care = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)
    return delta_star(game, nash.P, pot, care.P[0], tolerance=tol).is_exact


def dd_trajectory(game: GameSpec, P: list[np.ndarray], pot: PotentialSpec, Pp, traj_pot, traj_nash) -> list[np.ndarray]:
    """Per-player time series ||(Kp)_i x_pot(t) - K_i x_nash(t)||_2.

    Both trajectories must live on the same grid. At t=0 with a shared
    initial state this reduces to ||((Kp)_i - K_i) x0||_2 <= d_i ||x0||_2.
    """
    _check_layout(game, pot)
    if not np.array_equal(traj_pot.grid, traj_nash.grid):
        raise GridMismatchError("trajectories are on different time grids")
    k, kp_blocks = _gains(game, P, pot, Pp)
    out = []
    for kpb, ki in zip(kp_blocks, k):
        diff = traj_pot.states @ kpb.T - traj_nash.states @ ki.T
        out.append(np.linalg.norm(diff, axis=1))
    return out


def closed_loop_matrix_error(ac_nash, ac_pot) -> DeltaKReport:
    """deltaK = Ac_nash - Ac_pot and its spectral norm (no bound chain)."""
    a = np.atleast_2d(np.asarray(ac_nash, dtype=float))
    b = np.atleast_2d(np.asarray(ac_pot, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"closed-loop matrices differ in shape: {a.shape} vs {b.shape}")
    dk = a - b
    return DeltaKReport(deltaK=dk, norm2=spectral_norm(dk))


def deltaK_bound_chain(game: GameSpec, pot: PotentialSpec, P: list[np.ndarray], Pp) -> DeltaKReport:
    """Closed-loop matrix error together with the full bound diagnostics.

    Records the stacked gap matrix F (row block i: B_i' Pp minus the i-th
    row block of Rp Kstack, which is Rp_i K_i for block-diagonal Rp), its
    spectral and Frobenius norms, the N*max row-block estimate, the
    per-player scaling condition ||Rp_i R_ii^-1 B_i' P_i|| >= ||B_i' P_i||,
    and the chain value ||Bp|| * N * delta_star. Requires ||Rp||_2 > 1;
    apply normalize_potential_scaling first.
    """
    _check_layout(game, pot)
    if spectral_norm(pot.Rp) <= 1.0 + 1e-12:  # slack absorbs norm rounding at the boundary
        raise NotNormalizedError("||Rp||_2 <= 1; call normalize_potential_scaling first")

    pp = np.asarray(Pp, dtype=float)
    k, _ = _gains(game, P, pot, pp)
    k_stack = np.vstack(k)
    f_tilde = pot.Bp.T @ pp - pot.Rp @ k_stack

    slices = pot.block_slices()
    row_block_norms = [spectral_norm(f_tilde[sl, :]) for sl in slices]
    n_players = game.n_players

    condition_per_player = []
    for i, (pl, sl) in enumerate(zip(game.players, slices)):
        bp_i = pl.B.T @ np.asarray(P[i], dtype=float)
        rp_i = pot.Rp[sl, sl]
        weighted = rp_i @ np.linalg.solve(game.self_R(i), bp_i)
        condition_per_player.append(bool(spectral_norm(weighted) >= spectral_norm(bp_i) - 1e-12))

    dist = delta_star(game, P, pot, pp)
    bp_norm = spectral_norm(pot.Bp)
    chain = BoundChain(
        chain_value=bp_norm * n_players * dist.delta_star,
        bp_norm=bp_norm,
        n_players=n_players,
        delta_star=dist.delta_star,
        f_tilde_norm2=spectral_norm(f_tilde),
        f_tilde_frobenius=frobenius_norm(f_tilde),
        frobenius_estimate=n_players * max(row_block_norms),
        row_block_norms=row_block_norms,
        scaling_condition_per_player=condition_per_player,
        scaling_condition=all(condition_per_player),
    )

    nash_loop = closed_loop_nash(game, P)
    pot_loop = closed_loop_potential(game, pot, pp)
    report = closed_loop_matrix_error(nash_loop.Ac, pot_loop.Ac)
    report.bound_chain = chain
    return report
