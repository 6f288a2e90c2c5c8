"""Command-line harness: file ingestion, solving, distances, bound checks,
family generation and coupling sweeps.

Exit codes: 0 success, 1 validation/ingestion failure, 2 solver failure,
64 usage errors. All numeric output is deterministic for fixed inputs and
seed; ``--json`` switches to machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from ._records import csv_text
from .errors import GameFileError, NpdgError, PartitionError, SolverError
from .families import FamilyParams, family_x0, generate_family, sweep_delta
from .gamefiles import load_game, save_game
from .games import validate_game, validate_potential
from .metrics import delta_star
from .riccati import (
    DEFAULT_MAX_ITER_COUPLED,
    DEFAULT_TOL,
    closed_loop_nash,
    closed_loop_potential,
    solve_care,
    solve_coupled_riccati,
)
from .simulate import default_grid, piecewise_delta, simulate_closed_loop, verify_bound

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite_or_null(doc):
    """``doc`` with every NaN or infinite float replaced by None."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _finite_or_null(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite_or_null(value) for value in doc]
    return doc


def _dump_json(doc) -> str:
    """Strict JSON (RFC 8259 has no NaN or Infinity): a non-finite float is written as null."""
    return json.dumps(_finite_or_null(doc), sort_keys=True, allow_nan=False)


def _fallback_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("NPDG_SEED")
    if env is not None:
        return int(env)
    return 0


def _add_solver_flags(sub):
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL, help="residual tolerance (spectral norm)")
    sub.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER_COUPLED, help="outer iteration budget")


def _add_grid_flags(sub):
    sub.add_argument("--t-end", type=float, default=2.0, help="simulation horizon")
    sub.add_argument("--points", type=int, default=201, help="number of uniform grid points")
    sub.add_argument("--x0", type=str, default=None, help="comma-separated initial state (default: unit all-ones)")


def _parse_x0(text, n):
    if text is None:
        return np.full(n, 1.0 / np.sqrt(n))
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise GameFileError(f"--x0: expected comma-separated numbers, got {text!r}") from None
    if len(values) != n:
        raise GameFileError(f"--x0: expected {n} components, got {len(values)}")
    return np.array(values)


def _load_validated(path, allow_nondiagonal=False, need_potential=False):
    game, pot = load_game(path)
    report = validate_game(game, allow_nondiagonal=allow_nondiagonal)
    if not report.ok:
        for v in report.violations:
            print(f"{path}: {v.path}: {v.message}", file=sys.stderr)
        raise GameFileError(f"{path}: validation failed with {len(report.violations)} violation(s)")
    if pot is not None:
        preport = validate_potential(game, pot)
        if not preport.ok:
            for v in preport.violations:
                print(f"{path}: {v.path}: {v.message}", file=sys.stderr)
            raise GameFileError(f"{path}: potential validation failed")
    if need_potential and pot is None:
        raise GameFileError(f"{path}: no potential section, required by this command")
    return game, pot


def _solve(args, game, pot):
    nash = solve_coupled_riccati(game, tol=args.tol, max_iter=args.max_iter)
    care = None if pot is None else solve_care(game.A, pot.Bp, pot.Qp, pot.Rp, tol=args.tol)
    return nash, care


def _cmd_validate(args) -> int:
    game, pot = load_game(args.file)
    report = validate_game(game, allow_nondiagonal=args.allow_nondiagonal)
    violations = list(report.violations)
    if pot is not None:
        violations += list(validate_potential(game, pot).violations)
    if args.json:
        doc = {
            "ok": not violations,
            "violations": [v.to_dict() for v in violations],
        }
        print(_dump_json(doc))
    else:
        for v in violations:
            print(f"{v.path}: {v.message}")
        print("ok" if not violations else f"invalid ({len(violations)} violation(s))")
    return EXIT_OK if not violations else EXIT_VALIDATION


def _cmd_solve(args) -> int:
    game, pot = _load_validated(args.file, args.allow_nondiagonal)
    nash, care = _solve(args, game, pot)
    loop = closed_loop_nash(game, nash.P)
    doc = {"nash": nash.to_dict(), "closed_loop": loop.to_dict()}
    if care is not None:
        doc["potential"] = care.to_dict()
        doc["potential_closed_loop"] = closed_loop_potential(game, pot, care.P[0]).to_dict()
    if args.json:
        print(_dump_json(doc))
        return EXIT_OK
    print(f"players {game.n_players}  n {game.n}  outer iterations {nash.iterations}")
    for i, r in enumerate(nash.residual_norms, start=1):
        print(f"player {i}: residual {_fmt(r)}")
    print(f"closed loop stable: {str(loop.stable).lower()}")
    if pot is not None:
        print(f"potential residual {_fmt(doc['potential']['residual_norms'][0])}")
    return EXIT_OK


def _cmd_distance(args) -> int:
    game, pot = _load_validated(args.file, args.allow_nondiagonal, need_potential=True)
    nash, care = _solve(args, game, pot)
    report = delta_star(game, nash.P, pot, care.P[0])
    if args.json:
        print(_dump_json(report.to_dict()))
        return EXIT_OK
    print("player  d_i")
    for i, d in enumerate(report.per_player, start=1):
        print(f"{i:>6}  {_fmt(d)}")
    print(f"delta_star {_fmt(report.delta_star)}")
    print(f"exact {str(report.is_exact).lower()} (tolerance {report.tolerance_used:g})")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    game, pot = _load_validated(args.file, args.allow_nondiagonal)
    grid = default_grid(args.t_end, args.points)
    x0 = _parse_x0(args.x0, game.n)
    nash, care = _solve(args, game, pot)
    traj = simulate_closed_loop(closed_loop_nash(game, nash.P).Ac, x0, grid)
    doc = {"grid": traj.grid.tolist(), "nash_states": traj.states.tolist()}
    header = ["t"] + [f"x{k + 1}" for k in range(game.n)]
    columns = [grid, *traj.states.T]
    if care is not None:
        ptraj = simulate_closed_loop(closed_loop_potential(game, pot, care.P[0]).Ac, x0, grid)
        doc["potential_states"] = ptraj.states.tolist()
        header += [f"xp{k + 1}" for k in range(game.n)]
        columns.extend(ptraj.states.T)
    if args.json:
        print(_dump_json(doc))
        return EXIT_OK
    print(csv_text(",".join(header), ",".join(["%.17g"] * len(columns)), columns), end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    game, pot = _load_validated(args.file, args.allow_nondiagonal, need_potential=True)
    grid = default_grid(args.t_end, args.points)
    x0 = _parse_x0(args.x0, game.n)
    if args.piecewise is not None and not 1 <= args.piecewise <= args.points - 1:
        raise PartitionError(f"--piecewise must lie in 1..{args.points - 1} (points - 1), got {args.piecewise}")
    report = verify_bound(game, pot, x0=x0, grid=grid, tol=args.tol, max_iter=args.max_iter)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
    pw = None
    if args.piecewise is not None:
        edges = np.linspace(grid[0], grid[-1], args.piecewise + 1)
        pw = piecewise_delta(report.traj_pot, report.traj_nash, report.delta_star_used, list(zip(edges[:-1], edges[1:])))
    if args.json:
        doc = report.to_dict()
        if pw is not None:
            doc["piecewise"] = pw.to_dict()
        print(_dump_json(doc))
        return EXIT_OK
    print(f"holds={str(report.holds).lower()}")
    print(f"delta_star {_fmt(report.delta_star_used)}")
    print(f"max_error {_fmt(report.max_error())}")
    print(f"margin_max {_fmt(report.margin_max())}")
    print(f"margin_end {_fmt(report.margin_end())}")
    if pw is not None:
        print(pw.to_csv(), end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        grid = [float(v) for v in args.grid.split(",")]
    except ValueError:
        raise GameFileError(f"--grid: expected comma-separated numbers, got {args.grid!r}") from None
    params = FamilyParams(
        n_per_block=args.n,
        n_players=args.players,
        delta=grid[0] if grid else 0.0,
        seed=_fallback_seed(args.seed),
        stability_margin=args.margin,
    )
    report = sweep_delta(
        params,
        grid,
        x0_mode=args.x0_mode,
        horizon=args.t_end,
        points=args.points,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    if args.json:
        print(_dump_json(report.to_dict()))
    elif args.output:
        with open(args.output, "w") as fh:
            fh.write(report.to_csv())
        if report.fit is not None:
            print(
                f"fit over {report.fit.n_points} smallest points: "
                f"slope {_fmt(report.fit.slope)} intercept {_fmt(report.fit.intercept)} r2 {_fmt(report.fit.r_squared)}"
            )
        print(f"failed={str(report.failed).lower()}")
    else:
        print(report.to_csv(), end="")
    unsolved = sum(r.failure is not None for r in report.rows)
    if unsolved:  # rows that only fail the bound check keep exit 0, as in verify
        print(f"solver error: {unsolved} of {len(report.rows)} sweep rows failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_generate(args) -> int:
    params = FamilyParams(
        n_per_block=args.n,
        n_players=args.players,
        delta=args.delta,
        seed=_fallback_seed(args.seed),
        stability_margin=args.margin,
    )
    game, pot = generate_family(params)
    save_game(args.output, game, pot)
    if args.json:
        print(_dump_json({"file": args.output, "n": game.n, "players": game.n_players, "x0": family_x0(params).tolist()}))
    else:
        print(f"wrote {args.output} (n={game.n}, players={game.n_players}, delta={params.delta!r}, seed={params.seed})")
    return EXIT_OK


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process at first use."""
    parser = _Parser(prog="npdg", description="LQ differential games: Nash feedback, potential distance, error bounds")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, grid=False, solver=False, file=True):
        if file:
            p.add_argument("file", help="game file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--allow-nondiagonal", action="store_true", help="accept non-diagonal symmetric cost matrices")
        if solver:
            _add_solver_flags(p)
        if grid:
            _add_grid_flags(p)

    common(sub.add_parser("validate", help="check a game file against the structural invariants"))
    common(sub.add_parser("solve", help="solve the coupled equations (and the potential, if present)"), solver=True)
    common(sub.add_parser("distance", help="per-player gain distances and delta_star"), solver=True)
    common(sub.add_parser("simulate", help="simulate the closed loop(s) from a shared initial state"), grid=True, solver=True)
    p_verify = sub.add_parser("verify", help="check the trajectory error against its bound")
    common(p_verify, grid=True, solver=True)
    p_verify.add_argument("--csv", type=str, default=None, help="write t,error,bound,margin rows to this file")
    p_verify.add_argument("--piecewise", type=int, default=None, help="also report interval-wise levels over K equal intervals")

    p_sweep = sub.add_parser("sweep", help="sweep the coupling strength of a generated family")
    p_sweep.add_argument("--n", type=int, required=True, help="state dimension per player block")
    p_sweep.add_argument("--players", type=int, required=True)
    p_sweep.add_argument("--grid", type=str, required=True, help="comma-separated coupling levels (ascending)")
    p_sweep.add_argument("--seed", type=int, default=None, help="family seed (fallback: NPDG_SEED, then 0)")
    p_sweep.add_argument("--margin", type=float, default=0.5, help="stability margin of generated blocks")
    p_sweep.add_argument("--x0-mode", choices=["ones", "random-unit"], default="ones")
    p_sweep.add_argument("-o", "--output", type=str, default=None, help="write CSV here instead of stdout")
    p_sweep.add_argument("--json", action="store_true")
    _add_solver_flags(p_sweep)
    p_sweep.add_argument("--t-end", type=float, default=2.0)
    p_sweep.add_argument("--points", type=int, default=201)

    p_gen = sub.add_parser("generate", help="write a generated family to a game file")
    p_gen.add_argument("--n", type=int, required=True, help="state dimension per player block")
    p_gen.add_argument("--players", type=int, required=True)
    p_gen.add_argument("--delta", type=float, required=True, help="coupling strength (0 = exactly potential)")
    p_gen.add_argument("--seed", type=int, default=None, help="family seed (fallback: NPDG_SEED, then 0)")
    p_gen.add_argument("--margin", type=float, default=0.5)
    p_gen.add_argument("-o", "--output", type=str, required=True)
    p_gen.add_argument("--json", action="store_true")

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "distance": _cmd_distance,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "generate": _cmd_generate,
}


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if not (0 < getattr(args, "tol", 1.0) < math.inf and getattr(args, "max_iter", 1) >= 1):  # NaN fails too
            _parser().error(f"--tol must be finite and > 0 and --max-iter >= 1, got {args.tol!r} and {args.max_iter!r}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (NpdgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
