#!/usr/bin/env python3
"""Stress pool for the Riccati solvers: 720 generated games, both solves.

The pool is family seeds 0-59, with (n_per_block, players) taken from
COMBOS[seed % 6] (so n <= 8), at coupling delta in {0.2, 0.5, 1, 2} and
with A shifted by {0, 1, 3} * I. Each game gets the coupled Nash solve and
the potential CARE, both with their default tolerance and budget. For each
solver the script prints the converged count, the failure kinds and the
total iterations of the converged solves (outer sweeps for the coupled
solve, Newton steps for the CARE).

The outcomes and the P matrices are saved to an .npz. Given the .npz of an
earlier run, the script also prints every game whose outcome differs and
the largest relative difference in P over the games both runs solved.

Usage: python3 scripts/stress_pool.py [out.npz] [previous.npz]
"""

import sys
from collections import Counter

import numpy as np

from npdg import GameSpec, NpdgError, solve_care, solve_coupled_riccati
from npdg.families import FamilyParams, generate_family

COMBOS = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3)]
SEEDS = range(60)
DELTAS = (0.2, 0.5, 1.0, 2.0)
SHIFTS = (0.0, 1.0, 3.0)
N_MAX = 8
PLAYERS_MAX = 3
SOLVERS = ("coupled", "care")


def pool():
    for seed in SEEDS:
        nb, players = COMBOS[seed % len(COMBOS)]
        for delta in DELTAS:
            game, pot = generate_family(FamilyParams(n_per_block=nb, n_players=players, delta=delta, seed=seed))
            for shift in SHIFTS:
                a = game.A + shift * np.eye(game.n)
                label = f"seed={seed} nb={nb} players={players} delta={delta} shift={shift}"
                yield label, GameSpec(n=game.n, A=a, players=game.players, label=label), pot


def _run(solve):
    """(outcome, P list, iterations): outcome is 'ok' or the exception's class name."""
    try:
        sol = solve()
    except NpdgError as exc:
        return type(exc).__name__, [], 0
    return "ok", sol.P, sol.iterations


def run_pool() -> dict:
    labels = []
    out = {}
    for name in SOLVERS:
        out[f"{name}_outcome"] = []
        out[f"{name}_iterations"] = []
    games = list(pool())
    p_coupled = np.zeros((len(games), PLAYERS_MAX, N_MAX, N_MAX))
    p_care = np.zeros((len(games), 1, N_MAX, N_MAX))
    for g, (label, game, pot) in enumerate(games):
        labels.append(label)
        runs = {
            "coupled": (_run(lambda: solve_coupled_riccati(game)), p_coupled),
            "care": (_run(lambda: solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)), p_care),
        }
        for name, ((outcome, ps, iterations), store) in runs.items():
            out[f"{name}_outcome"].append(outcome)
            out[f"{name}_iterations"].append(iterations)
            for i, p in enumerate(ps):
                store[g, i, : game.n, : game.n] = p
    out = {key: np.array(value) for key, value in out.items()}
    out["labels"] = np.array(labels)
    out["coupled_P"] = p_coupled
    out["care_P"] = p_care
    return out


def summarize(res: dict):
    for name in SOLVERS:
        outcome = res[f"{name}_outcome"]
        ok = outcome == "ok"
        kinds = Counter(outcome[~ok].tolist())
        print(f"{name}: converged {int(ok.sum())}/{outcome.size}, failures {dict(sorted(kinds.items()))}, "
              f"iterations of converged solves {int(res[f'{name}_iterations'][ok].sum())}")


def compare(res: dict, prev: dict):
    if not np.array_equal(res["labels"], prev["labels"]):
        raise SystemExit("the two runs do not cover the same pool")
    for name in SOLVERS:
        now, before = res[f"{name}_outcome"], prev[f"{name}_outcome"]
        changed = np.flatnonzero(now != before)
        print(f"{name}: {changed.size} outcome mismatches")
        for g in changed:
            print(f"  {res['labels'][g]}: {before[g]} -> {now[g]}")
        both = np.flatnonzero((now == "ok") & (before == "ok"))
        p_now, p_before = res[f"{name}_P"][both], prev[f"{name}_P"][both]
        diff = np.sqrt(np.sum((p_now - p_before) ** 2, axis=(1, 2, 3)))
        scale = np.sqrt(np.sum(p_before**2, axis=(1, 2, 3)))
        rel = diff / np.where(scale > 0, scale, 1.0)
        worst = int(np.argmax(rel)) if rel.size else None
        where = "" if worst is None else f" ({res['labels'][both[worst]]})"
        print(f"{name}: largest relative P difference {rel.max(initial=0.0):.3e} over {both.size} games{where}")


def main(out_path="stress_pool.npz", prev_path=None):
    res = run_pool()
    summarize(res)
    np.savez_compressed(out_path, **res)
    print(f"saved {out_path}")
    if prev_path is not None:
        with np.load(prev_path) as prev:
            compare(res, dict(prev))


if __name__ == "__main__":
    main(*sys.argv[1:3])
