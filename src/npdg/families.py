"""Seeded generation of near-potential game families and coupling sweeps.

A family is built from N independent single-player subsystems placed on
disjoint state blocks; the candidate potential is the sum cost (block
diagonal Qp and Rp, aggregated Bp). With zero coupling the pair is exactly
potential, so the gain distance vanishes; injecting delta * G into the
off-diagonal blocks of A (||G||_2 = 1) moves the game away from the
potential continuously in delta.

Reproducibility contract: every matrix is drawn from its own child stream
of ``numpy.random.SeedSequence(seed)``. Children are spawned in a fixed
order -- per player (A block, B block, Q diagonal, R diagonal), then the
coupling direction G, then the initial-state stream used by random-unit
sweeps -- so the same seed yields bit-identical families regardless of
which pieces a caller consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._records import Record, csv_text
from .errors import SolverError
from .games import GameSpec, PlayerSpec, PotentialSpec, make_potential
from .linalg import max_real_eigenvalue, spectral_norm
from .riccati import DEFAULT_MAX_ITER_COUPLED, DEFAULT_TOL
from .simulate import default_grid, verify_bound


@dataclass(frozen=True)
class FamilyParams:
    """Knobs of the family generator; same params imply the same family."""

    n_per_block: int
    n_players: int
    delta: float
    seed: int
    stability_margin: float = 0.5

    def __post_init__(self):
        if self.n_per_block < 1:
            raise ValueError("n_per_block must be >= 1")
        if self.n_players < 1:
            raise ValueError("n_players must be >= 1")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if not self.stability_margin > 0:
            raise ValueError("stability_margin must be > 0")


def _family_streams(params: FamilyParams):
    root = np.random.SeedSequence(params.seed)
    children = root.spawn(4 * params.n_players + 2)
    per_player = [children[4 * i : 4 * (i + 1)] for i in range(params.n_players)]
    return per_player, children[-2], children[-1]


def _family(params: FamilyParams):
    """The seed-determined part of a family: (game at a coupling delta, potential)."""
    nb = params.n_per_block
    n_players = params.n_players
    n = nb * n_players
    p_i = 1 if nb == 1 else 2

    per_player, g_stream, _ = _family_streams(params)
    a = np.zeros((n, n))
    players = []
    for i in range(n_players):
        a_ss, b_ss, q_ss, r_ss = per_player[i]
        block = slice(i * nb, (i + 1) * nb)

        a_blk = np.random.default_rng(a_ss).uniform(-1.0, 1.0, size=(nb, nb))
        shift = max_real_eigenvalue(a_blk) + params.stability_margin
        a_blk = a_blk - shift * np.eye(nb)
        a[block, block] = a_blk

        b_full = np.zeros((n, p_i))
        b_full[block, :] = np.random.default_rng(b_ss).uniform(-1.0, 1.0, size=(nb, p_i))

        q_full = np.zeros(n)
        q_full[block] = np.random.default_rng(q_ss).uniform(0.5, 2.0, size=nb)

        # diagonal entries >= 1 keep the closed-loop error chain tight on
        # the generated families (||R^-1|| <= 1)
        r_diag = np.random.default_rng(r_ss).uniform(1.0, 2.0, size=p_i)
        players.append(PlayerSpec(B=b_full, Q=np.diag(q_full), R={i: np.diag(r_diag)}))

    g = None
    if n_players > 1:
        g = np.random.default_rng(g_stream).uniform(-1.0, 1.0, size=(n, n))
        for i in range(n_players):
            block = slice(i * nb, (i + 1) * nb)
            g[block, block] = 0.0
        g = g / spectral_norm(g)

    # sum cost: block-diagonal penalties over the aggregated input
    qp = np.zeros((n, n))
    for pl in players:
        qp = qp + pl.Q
    rp_blocks = [pl.R[i] for i, pl in enumerate(players)]
    size = sum(blk.shape[0] for blk in rp_blocks)
    rp = np.zeros((size, size))
    at = 0
    for blk in rp_blocks:
        w = blk.shape[0]
        rp[at : at + w, at : at + w] = blk
        at += w

    def game_at(delta: float) -> GameSpec:
        label = f"family(seed={params.seed}, n_per_block={nb}, players={n_players}, delta={delta!r})"
        return GameSpec(n=n, A=a + delta * g if g is not None and delta > 0 else a, players=players, label=label)

    return game_at, make_potential(GameSpec(n=n, A=a, players=players), qp, rp)


def generate_family(params: FamilyParams) -> tuple[GameSpec, PotentialSpec]:
    game_at, pot = _family(params)
    return game_at(params.delta), pot


def family_x0(params: FamilyParams, mode: str = "ones") -> np.ndarray:
    """Shared initial state for a sweep; unit norm in both modes."""
    n = params.n_per_block * params.n_players
    if mode == "ones":
        return np.full(n, 1.0 / np.sqrt(n))
    if mode == "random-unit":
        _, _, x0_stream = _family_streams(params)
        x = np.random.default_rng(x0_stream).normal(size=n)
        return x / np.linalg.norm(x)
    raise ValueError(f"unknown x0 mode {mode!r}; expected 'ones' or 'random-unit'")


@dataclass
class SweepRow(Record):
    delta_in: float
    delta_star: float
    max_error: float
    bound_at_max: float
    holds: bool
    failure: str | None = None


@dataclass
class LinearFit(Record):
    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass
class SweepReport(Record):
    rows: list[SweepRow]
    fit: LinearFit | None
    failed: bool

    def to_csv(self) -> str:
        rows = [(r.delta_in, r.delta_star, r.max_error, r.bound_at_max, str(r.holds).lower()) for r in self.rows]
        return csv_text("delta_in,delta_star,max_error,bound_at_max,holds", "%.17g,%.17g,%.17g,%.17g,%s", zip(*rows))


def fit_small_delta(xs, ys) -> LinearFit | None:
    """Least-squares line through (delta_star, max_error) pairs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        return None
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=r2, n_points=int(xs.size))


def sweep_delta(
    params: FamilyParams,
    delta_grid,
    x0_mode: str = "ones",
    horizon: float = 2.0,
    points: int = 201,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER_COUPLED,
) -> SweepReport:
    """Run the full pipeline per coupling level and fit error against distance.

    The fit uses only the smallest half of the grid (the linear regime);
    a row whose solve fails is recorded with its failure message and kept
    out of the fit. The sweep is marked failed if any row fails or any
    bound check does not hold.
    """
    grid_in = [float(d) for d in delta_grid]
    if any(d < 0 for d in grid_in):
        raise ValueError("delta grid entries must be >= 0")
    if sorted(grid_in) != grid_in:
        raise ValueError("delta grid must be ascending")
    x0 = family_x0(params, x0_mode)
    time_grid = default_grid(horizon, points)
    game_at, pot = _family(params)

    rows = []
    for d in grid_in:
        try:
            report = verify_bound(game_at(d), pot, x0=x0, grid=time_grid, tol=tol, max_iter=max_iter)
        except SolverError as exc:
            rows.append(SweepRow(d, float("nan"), float("nan"), float("nan"), holds=False, failure=str(exc)))
            continue
        rows.append(
            SweepRow(
                delta_in=d,
                delta_star=report.delta_star_used,
                max_error=report.max_error(),
                bound_at_max=report.bound_at_max_error(),
                holds=report.holds,
            )
        )

    ok_rows = [r for r in rows if r.failure is None]
    half = max(2, len(grid_in) // 2)
    fit_rows = ok_rows[:half]
    fit = fit_small_delta([r.delta_star for r in fit_rows], [r.max_error for r in fit_rows])
    failed = any(r.failure is not None or not r.holds for r in rows)
    return SweepReport(rows=rows, fit=fit, failed=failed)
