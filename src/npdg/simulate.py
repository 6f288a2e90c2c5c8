"""Closed-loop simulation, trajectory errors, and the error-bound report.

Trajectories are evaluated per grid point as x(t_k) = e^{Ac t_k} x0 (no
step chaining, so errors do not accumulate along the grid), with the
exponentials of a block of grid points computed in one stacked call; a
classical Runge-Kutta integrator serves as the independent cross-check.
The bound series multiplies the gain distance by the exponential-growth
coefficient

    ||x0|| * ||Bp|| * N * t * exp(t * max(||Ac_pot||, ||Ac_nash||))

so that the pointwise trajectory error never exceeds bound(t) whenever the
closed-loop matrix error obeys its ||Bp|| * N * delta_star chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._records import Record, csv_text
from .errors import GridMismatchError, PartitionError
from .games import GameSpec, PotentialSpec
from .linalg import _expm_core, spectral_norm
from .metrics import delta_star
from .riccati import (
    DEFAULT_MAX_ITER_COUPLED,
    DEFAULT_TOL,
    closed_loop_nash,
    closed_loop_potential,
    solve_care,
    solve_coupled_riccati,
)

BOUND_SLACK = 1e-12

# Matrix entries per stacked exponential call: bounds simulation memory.
_STACK_ENTRIES = 1 << 14


def default_grid(t_end: float = 2.0, points: int = 201) -> np.ndarray:
    return np.linspace(0.0, t_end, points)


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("grid must be a non-empty 1-D array of times")
    if not np.all(np.isfinite(g)):
        raise ValueError("grid contains non-finite times")
    if g[0] != 0.0:
        raise ValueError("grid must start at t = 0")
    if g.size > 1 and not np.all(np.diff(g) > 0):
        raise ValueError("grid must be strictly increasing")
    return g


@dataclass
class Trajectory:
    grid: np.ndarray
    states: np.ndarray  # shape (len(grid), n)
    x0: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.states.shape[0] != self.grid.shape[0]:
            raise ValueError("states and grid lengths differ")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")

    @property
    def n(self) -> int:
        return self.states.shape[1]


def _check_system(Ac, x0) -> tuple[np.ndarray, np.ndarray]:
    a = np.atleast_2d(np.asarray(Ac, dtype=float))
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"closed-loop matrix must be square and non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("closed-loop matrix has non-finite entries")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != a.shape[0]:
        raise ValueError(f"x0 has dimension {x.shape[0]}, system has {a.shape[0]}")
    return a, x


def simulate_closed_loop(Ac, x0, grid) -> Trajectory:
    """x(t_k) = e^{Ac t_k} x0, evaluated independently at every grid point.

    The exponentials are computed for blocks of grid points at once, each
    block one stacked ``_expm_core`` call of at most ``_STACK_ENTRIES``
    matrix entries, so memory stays O(n^2) whatever the grid length. The
    norms t_k ||Ac|| it passes never decrease along the grid, as
    ``_expm_core`` requires. No step is chained onto another: every state
    equals ``matrix_exponential(Ac * t_k) @ x0`` bit for bit.
    """
    g = _check_grid(grid)
    a, x = _check_system(Ac, x0)
    a_norm = spectral_norm(a)  # ||Ac t|| = t ||Ac|| for t >= 0
    states = np.empty((g.size, x.size))
    states[0] = x
    block = max(1, _STACK_ENTRIES // a.size)
    for lo in range(1, g.size, block):
        t = g[lo : lo + block]
        states[lo : lo + t.size] = _expm_core(a * t[:, None, None], t * a_norm) @ x
    return Trajectory(grid=g, states=states, x0=x)


def rk4_reference(Ac, x0, grid, substeps: int = 100) -> Trajectory:
    """Classical 4th-order integration of xdot = Ac x on the same grid.

    Used as an integrator-family cross-check against the matrix
    exponential; `substeps` uniform internal steps per grid interval. On a
    linear system one classical RK4 step of size h is the map
    x <- (I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24) x, built once per
    interval in Horner form.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    g = _check_grid(grid)
    a, x = _check_system(Ac, x0)
    ident = np.eye(x.size)
    states = np.empty((g.size, x.size))
    states[0] = x
    current = x.copy()
    for idx in range(1, g.size):
        ha = a * ((g[idx] - g[idx - 1]) / substeps)
        step = ident + ha @ (ident + ha @ (ident / 2.0 + ha @ (ident / 6.0 + ha / 24.0)))
        for _ in range(substeps):
            current = step @ current
        states[idx] = current
    return Trajectory(grid=g, states=states, x0=x)


def trajectory_error(traj_pot: Trajectory, traj_nash: Trajectory) -> np.ndarray:
    """Pointwise Euclidean norm of the state difference."""
    if not np.array_equal(traj_pot.grid, traj_nash.grid):
        raise GridMismatchError("trajectories are on different time grids")
    if traj_pot.states.shape != traj_nash.states.shape:
        raise GridMismatchError("trajectories have different state dimensions")
    return np.linalg.norm(traj_pot.states - traj_nash.states, axis=1)


def _bound(t, x0, bp_norm: float, n_players: int, rate: float, delta_star_value: float):
    coeff = float(np.linalg.norm(x0)) * bp_norm * n_players * delta_star_value
    if coeff == 0.0:  # zero distance: zero bound, even where exp(t * rate) overflows
        return np.zeros_like(t)
    with np.errstate(over="ignore"):  # an overflowed bound is judged by verify_bound
        return coeff * t * np.exp(t * rate)


def c_npdg_bound(t, x0, Bp, n_players: int, ac_nash, ac_pot, delta_star_value: float):
    """Bound value ||x0|| ||Bp|| N t exp(t max(||Ac_pot||,||Ac_nash||)) delta*.

    ``t`` is a time or an array of times; the result has the same shape.
    """
    times = np.asarray(t, dtype=float)
    if np.any(times < 0):
        raise ValueError(f"t must be >= 0, got {t}")
    rate = max(spectral_norm(ac_pot), spectral_norm(ac_nash))
    bound = _bound(times, np.asarray(x0, dtype=float), spectral_norm(Bp), n_players, rate, delta_star_value)
    return bound if times.ndim else float(bound)


@dataclass
class BoundReport(Record):
    """Self-contained record of one error-vs-bound verification run."""

    grid: np.ndarray
    error: np.ndarray
    bound: np.ndarray
    margin: np.ndarray
    holds: bool
    delta_star_used: float
    x0: np.ndarray
    bp_norm: float
    n_players: int
    growth_rate: float  # max of the two closed-loop spectral norms
    ac_nash: np.ndarray
    ac_pot: np.ndarray
    traj_nash: Trajectory = field(metadata={"json": False})
    traj_pot: Trajectory = field(metadata={"json": False})
    label: str | None = None

    def max_error(self) -> float:
        return float(np.max(self.error))

    def margin_max(self) -> float:
        return float(np.max(self.margin))

    def margin_end(self) -> float:
        return float(self.margin[-1])

    def bound_at_max_error(self) -> float:
        return float(self.bound[int(np.argmax(self.error))])

    def to_csv(self) -> str:
        columns = (self.grid, self.error, self.bound, self.margin)
        return csv_text("t,error,bound,margin", "%.17g,%.17g,%.17g,%.17g", columns)


def _margins(error: np.ndarray, bound: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(bound == 0.0, np.where(error == 0.0, 0.0, np.inf), error / bound)


def verify_bound(
    game: GameSpec,
    pot: PotentialSpec,
    x0=None,
    grid=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER_COUPLED,
) -> BoundReport:
    """Run the full pipeline and check error(t) <= bound(t) on the grid.

    Both closed loops start from the shared initial state (unit-norm
    all-ones by default). Solver failures propagate.
    """
    g = _check_grid(default_grid() if grid is None else grid)
    if x0 is None:
        x0 = np.full(game.n, 1.0 / np.sqrt(game.n))
    x0 = np.asarray(x0, dtype=float).reshape(-1)

    nash = solve_coupled_riccati(game, tol=tol, max_iter=max_iter)
    care = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp, tol=tol)
    loop_nash = closed_loop_nash(game, nash.P)
    loop_pot = closed_loop_potential(game, pot, care.P[0])
    dist = delta_star(game, nash.P, pot, care.P[0])

    traj_nash = simulate_closed_loop(loop_nash.Ac, x0, g)
    traj_pot = simulate_closed_loop(loop_pot.Ac, x0, g)
    error = trajectory_error(traj_pot, traj_nash)

    rate = max(spectral_norm(loop_pot.Ac), spectral_norm(loop_nash.Ac))
    bp_norm = spectral_norm(pot.Bp)
    bound = _bound(g, x0, bp_norm, game.n_players, rate, dist.delta_star)
    margin = _margins(error, bound)
    # every bound is >= 0, so errors within the slack hold at any bound; past
    # the slack, an overflowed bound would pass every error vacuously
    holds = bool(np.all(error <= BOUND_SLACK) or (np.all(np.isfinite(bound)) and np.all(error <= bound + BOUND_SLACK)))
    return BoundReport(
        grid=g,
        error=error,
        bound=bound,
        margin=margin,
        holds=holds,
        delta_star_used=dist.delta_star,
        x0=x0,
        bp_norm=bp_norm,
        n_players=game.n_players,
        growth_rate=rate,
        ac_nash=loop_nash.Ac,
        ac_pot=loop_pot.Ac,
        traj_nash=traj_nash,
        traj_pot=traj_pot,
        label=game.label,
    )


@dataclass
class PiecewiseDelta(Record):
    """Interval-wise distance levels for long-horizon bound statements.

    Splitting the horizon lets the bound restart on every interval; for
    decaying trajectories the per-interval level shrinks, which keeps the
    exponential coefficient from running away as t grows.
    """

    partition: list[tuple[float, float]]
    deltas: list[float]
    monotone_decreasing: bool

    def to_csv(self) -> str:
        lo, hi = zip(*self.partition)
        columns = (range(1, len(self.deltas) + 1), lo, hi, self.deltas)
        return csv_text("k,t_start,t_end,delta_k", "%d,%.17g,%.17g,%.17g", columns)


def piecewise_delta(traj_pot: Trajectory, traj_nash: Trajectory, delta_star_value: float, partition) -> PiecewiseDelta:
    """Per-interval levels delta_k = delta* · max state norm on the interval.

    The partition must be contiguous and cover the trajectory grid.
    """
    if not np.array_equal(traj_pot.grid, traj_nash.grid):
        raise GridMismatchError("trajectories are on different time grids")
    if delta_star_value < 0:
        raise ValueError("delta_star must be >= 0")
    intervals = [(float(lo), float(hi)) for lo, hi in partition]
    if not intervals:
        raise PartitionError("empty partition")
    for lo, hi in intervals:
        if not hi > lo:
            raise PartitionError(f"interval ({lo}, {hi}) is not increasing")
    for (_, hi), (lo, _) in zip(intervals[:-1], intervals[1:]):
        if abs(hi - lo) > 1e-12:
            raise PartitionError(f"gap or overlap between intervals at t = {hi} vs {lo}")
    grid = traj_pot.grid
    if abs(intervals[0][0] - grid[0]) > 1e-12 or abs(intervals[-1][1] - grid[-1]) > 1e-12:
        raise PartitionError("partition does not cover the trajectory grid")

    norms = np.maximum(
        np.linalg.norm(traj_nash.states, axis=1),
        np.linalg.norm(traj_pot.states, axis=1),
    )
    deltas = []
    for lo, hi in intervals:
        mask = (grid >= lo - 1e-12) & (grid <= hi + 1e-12)
        if not np.any(mask):
            raise PartitionError(f"interval ({lo}, {hi}) contains no grid points")
        deltas.append(delta_star_value * float(np.max(norms[mask])))
    monotone = all(b <= a + 1e-12 for a, b in zip(deltas[:-1], deltas[1:]))
    return PiecewiseDelta(partition=intervals, deltas=deltas, monotone_decreasing=monotone)
