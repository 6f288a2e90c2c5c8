"""Game and potential specifications: validation, aggregation, rescaling.

An N-player LQ differential game shares one linear dynamic system
``xdot = A x + sum_i B_i u_i``; player i minimizes a quadratic cost with a
state penalty Q_i and input penalties R_ij (R maps the other player's index
to the penalty on that player's input inside i's cost). The candidate
potential is a single LQ optimal-control problem over the aggregated input.

All operations here are pure: specs are treated as immutable values (their
arrays are marked read-only on construction) and every transformation
returns a fresh copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._records import Record
from .linalg import spectral_norm

# Amount by which the potential input penalty must exceed unit spectral norm
# after normalize_potential_scaling.
SCALING_MARGIN = 1e-6

_PSD_SLACK = 1e-12


def _frozen_array(value, dtype=float):
    a = np.array(value, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PlayerSpec:
    """One player's input matrix and cost matrices.

    R is a dict from 0-based player index j to the penalty on player j's
    input inside this player's cost; a missing cross entry means a zero
    penalty (the standard decoupled setting). The self entry is mandatory.
    """

    B: np.ndarray
    Q: np.ndarray
    R: dict[int, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "B", _frozen_array(self.B))
        object.__setattr__(self, "Q", _frozen_array(self.Q))
        object.__setattr__(self, "R", {int(j): _frozen_array(m) for j, m in self.R.items()})

    @property
    def p(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class GameSpec:
    """An N-player LQ differential game on a shared linear system."""

    n: int
    A: np.ndarray
    players: tuple[PlayerSpec, ...]
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "A", _frozen_array(self.A))
        object.__setattr__(self, "players", tuple(self.players))

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(pl.p for pl in self.players)

    def self_R(self, i: int) -> np.ndarray:
        return self.players[i].R[i]

    def cross_R(self, i: int, j: int) -> np.ndarray:
        """Penalty of player j's input in player i's cost; zero if absent."""
        r = self.players[i].R.get(j)
        if r is None:
            pj = self.players[j].p
            return np.zeros((pj, pj))
        return r


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Candidate potential: one LQ cost over the aggregated input.

    ``blocks`` records the per-player input widths and fixes the sub-block
    layout of Rp used by the bound diagnostics.
    """

    Bp: np.ndarray
    Qp: np.ndarray
    Rp: np.ndarray
    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "Bp", _frozen_array(self.Bp))
        object.__setattr__(self, "Qp", _frozen_array(self.Qp))
        object.__setattr__(self, "Rp", _frozen_array(self.Rp))
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))

    @property
    def p(self) -> int:
        return self.Bp.shape[1]

    def block_slices(self) -> list[slice]:
        edges = np.concatenate(([0], np.cumsum(self.blocks)))
        return [slice(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]


@dataclass(frozen=True)
class Violation(Record):
    path: str
    rule: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def messages(self) -> list[str]:
        return [v.message for v in self.violations]


def _is_diagonal(m) -> bool:
    return bool(np.all(m == np.diag(np.diag(m))))


def _check_symmetric_sign(m, strict: bool) -> bool:
    """True if m is symmetric PSD (strict: PD) up to a tiny slack."""
    if not np.allclose(m, m.T, atol=1e-12, rtol=1e-12):
        return False
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    slack = _PSD_SLACK * (1.0 + float(np.max(np.abs(eigs))))
    if strict:
        return bool(np.min(eigs) > slack)
    return bool(np.min(eigs) >= -slack)


def _validate_cost_matrix(out, m, path, name, strict, allow_nondiagonal):
    if not np.all(np.isfinite(m)):
        out.append(Violation(path, "finite", f"{name} has non-finite entries"))
        return
    if not allow_nondiagonal and not _is_diagonal(m):
        out.append(Violation(path, "diagonal", f"{name} is not diagonal"))
        return
    if _is_diagonal(m):
        d = np.diag(m)
        if strict and not np.all(d > 0):
            out.append(Violation(path, "positive-definite", f"{name} not positive definite"))
        elif not strict and not np.all(d >= 0):
            out.append(Violation(path, "positive-semidefinite", f"{name} not positive semi-definite"))
    else:
        if strict and not _check_symmetric_sign(m, strict=True):
            out.append(Violation(path, "positive-definite", f"{name} not positive definite"))
        elif not strict and not _check_symmetric_sign(m, strict=False):
            out.append(Violation(path, "positive-semidefinite", f"{name} not positive semi-definite"))


def validate_game(spec: GameSpec, allow_nondiagonal: bool = False) -> ValidationReport:
    """Check every structural invariant of a game; violations are data.

    Player indices in messages are 1-based, matching the file format.
    """
    v: list[Violation] = []
    n = spec.n
    if n < 1:
        v.append(Violation("n", "positive", "state dimension n must be >= 1"))
    if spec.n_players < 1:
        v.append(Violation("players", "nonempty", "at least one player is required"))
    if spec.A.shape != (n, n):
        v.append(Violation("A", "shape", f"A must be {n}x{n}, got {spec.A.shape}"))
    elif not np.all(np.isfinite(spec.A)):
        v.append(Violation("A", "finite", "A has non-finite entries"))

    widths = spec.widths
    for i, pl in enumerate(spec.players):
        tag = i + 1
        base = f"players[{i}]"
        if pl.B.ndim != 2 or pl.B.shape[0] != n:
            v.append(Violation(f"{base}.B", "shape", f"B^{{{tag}}} must have {n} rows, got {pl.B.shape}"))
        if pl.B.ndim == 2 and pl.B.shape[1] < 1:
            v.append(Violation(f"{base}.B", "shape", f"B^{{{tag}}} must have at least one column"))
        if not np.all(np.isfinite(pl.B)):
            v.append(Violation(f"{base}.B", "finite", f"B^{{{tag}}} has non-finite entries"))
        if pl.Q.shape != (n, n):
            v.append(Violation(f"{base}.Q", "shape", f"Q^{{{tag}}} must be {n}x{n}, got {pl.Q.shape}"))
        else:
            _validate_cost_matrix(v, pl.Q, f"{base}.Q", f"Q^{{{tag}}}", strict=False, allow_nondiagonal=allow_nondiagonal)
        if i not in pl.R:
            v.append(Violation(f"{base}.R", "self-penalty", f"R^{{{tag}{tag}}} missing"))
        for j, r in sorted(pl.R.items()):
            jtag = j + 1
            path = f"{base}.R[{jtag}]"
            if not (0 <= j < spec.n_players):
                v.append(Violation(path, "index", f"R^{{{tag}{jtag}}} refers to unknown player {jtag}"))
                continue
            pj = widths[j]
            if r.shape != (pj, pj):
                v.append(Violation(path, "shape", f"R^{{{tag}{jtag}}} must be {pj}x{pj}, got {r.shape}"))
                continue
            _validate_cost_matrix(
                v, r, path, f"R^{{{tag}{jtag}}}", strict=(j == i), allow_nondiagonal=allow_nondiagonal
            )
    return ValidationReport(tuple(v))


def validate_potential(game: GameSpec, pot: PotentialSpec) -> ValidationReport:
    """Check the potential against the game it is paired with."""
    v: list[Violation] = []
    n = game.n
    p = sum(pot.blocks)
    if pot.blocks != game.widths:
        v.append(Violation("potential.blocks", "layout", f"blocks {pot.blocks} do not match player input widths {game.widths}"))
    if pot.Bp.shape != (n, p):
        v.append(Violation("potential.Bp", "shape", f"Bp must be {n}x{p}, got {pot.Bp.shape}"))
    else:
        bp, _ = aggregate_inputs(game)
        if bp.shape == pot.Bp.shape and not np.array_equal(bp, pot.Bp):
            v.append(Violation("potential.Bp", "aggregate", "Bp is not the column concatenation of the player input matrices"))
    if pot.Qp.shape != (n, n):
        v.append(Violation("potential.Qp", "shape", f"Qp must be {n}x{n}, got {pot.Qp.shape}"))
    elif not _check_symmetric_sign(pot.Qp, strict=False):
        v.append(Violation("potential.Qp", "positive-semidefinite", "Qp not positive semi-definite"))
    if pot.Rp.shape != (p, p):
        v.append(Violation("potential.Rp", "shape", f"Rp must be {p}x{p}, got {pot.Rp.shape}"))
    elif not _check_symmetric_sign(pot.Rp, strict=True):
        v.append(Violation("potential.Rp", "positive-definite", "Rp not positive definite"))
    return ValidationReport(tuple(v))


def aggregate_inputs(game: GameSpec) -> tuple[np.ndarray, tuple[int, ...]]:
    """Column-concatenate the player input matrices in player order."""
    rows = {pl.B.shape[0] for pl in game.players}
    if len(rows) > 1:
        raise ValueError(f"player input matrices disagree on row count: {sorted(rows)}")
    bp = np.hstack([pl.B for pl in game.players])
    return bp, game.widths


def make_potential(game: GameSpec, Qp, Rp) -> PotentialSpec:
    """Build a PotentialSpec whose Bp/blocks come from the game itself."""
    bp, blocks = aggregate_inputs(game)
    return PotentialSpec(Bp=bp, Qp=Qp, Rp=Rp, blocks=blocks)


def rescale_player_cost(game: GameSpec, i: int, kappa: float) -> GameSpec:
    """Multiply player i's entire cost (Q and every R^{ij}) by kappa > 0.

    The minimizing feedback gain is unchanged; the Riccati matrix scales
    by kappa.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if not (0 <= i < game.n_players):
        raise IndexError(f"no player {i}")
    players = list(game.players)
    old = players[i]
    players[i] = PlayerSpec(B=old.B, Q=kappa * old.Q, R={j: kappa * r for j, r in old.R.items()})
    return GameSpec(n=game.n, A=game.A, players=tuple(players), label=game.label)


def rescale_potential_cost(pot: PotentialSpec, kappa: float) -> PotentialSpec:
    if not kappa > 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    return PotentialSpec(Bp=pot.Bp, Qp=kappa * pot.Qp, Rp=kappa * pot.Rp, blocks=pot.blocks)


def normalize_potential_scaling(pot: PotentialSpec) -> tuple[PotentialSpec, float]:
    """Rescale the potential cost so that ||Rp||_2 >= 1 + SCALING_MARGIN.

    Returns the (possibly identical) potential and the factor applied;
    the factor is 1 when the input already satisfies the condition.
    """
    norm = spectral_norm(pot.Rp)
    target = 1.0 + SCALING_MARGIN
    if norm >= target:
        return pot, 1.0
    if norm == 0.0:
        raise ValueError("Rp is zero; cannot normalize")
    kappa = target / norm
    return rescale_potential_cost(pot, kappa), kappa
