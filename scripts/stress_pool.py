#!/usr/bin/env python3
"""Stress pools for the Riccati solvers: 720 generated games, 1440 CAREs.

The game pool is family seeds 0-59, with (n_per_block, players) taken from
COMBOS[seed % 6] (so n <= 8), at coupling delta in {0.2, 0.5, 1, 2} and
with A shifted by {0, 1, 3} * I. Each game gets the coupled Nash solve
("coupled") and the potential CARE ("care").

The CARE pool ("care_pool") is family seeds 0-39 x (n_per_block, players)
in CARE_COMBOS (so n <= 20) x A shifted by {0, 1, 3} * I x Bp scaled by
{1e-3, 1, 1e3}, all at delta = 0.05: the potential CARE alone.

Every solve uses its default tolerance and budget. For each section the
script prints the converged count, the failure kinds, the total iterations
of the converged solves (outer sweeps for the coupled solve; kernel steps
for the CARE, which are the Hamiltonian sign steps plus any Newton steps)
and the wall time of all its solves.

The outcomes and the P matrices are saved to an .npz. Given the .npz of an
earlier run, the script also prints every case whose outcome differs and
the largest relative difference in P over the cases both runs solved.

Usage: python3 scripts/stress_pool.py [out.npz] [previous.npz]
"""

import sys
import time
from collections import Counter

import numpy as np

from npdg import GameSpec, NpdgError, solve_care, solve_coupled_riccati
from npdg.families import FamilyParams, generate_family

COMBOS = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3)]
SEEDS = range(60)
DELTAS = (0.2, 0.5, 1.0, 2.0)
SHIFTS = (0.0, 1.0, 3.0)
CARE_COMBOS = [(1, 2), (3, 2), (2, 3), (10, 2)]
CARE_SEEDS = range(40)
CARE_DELTA = 0.05
CARE_B_SCALES = (1e-3, 1.0, 1e3)
# section -> (P matrices per case, largest n) of the stored P array
SECTIONS = {"coupled": (3, 8), "care": (1, 8), "care_pool": (1, 20)}


def pool():
    for seed in SEEDS:
        nb, players = COMBOS[seed % len(COMBOS)]
        for delta in DELTAS:
            game, pot = generate_family(FamilyParams(n_per_block=nb, n_players=players, delta=delta, seed=seed))
            for shift in SHIFTS:
                a = game.A + shift * np.eye(game.n)
                label = f"seed={seed} nb={nb} players={players} delta={delta} shift={shift}"
                yield label, GameSpec(n=game.n, A=a, players=game.players, label=label), pot


def care_pool():
    for seed in CARE_SEEDS:
        for nb, players in CARE_COMBOS:
            game, pot = generate_family(FamilyParams(n_per_block=nb, n_players=players, delta=CARE_DELTA, seed=seed))
            for shift in SHIFTS:
                for scale in CARE_B_SCALES:
                    label = f"seed={seed} nb={nb} players={players} shift={shift} b_scale={scale:g}"
                    yield label, game.A + shift * np.eye(game.n), scale * pot.Bp, pot


def cases():
    """Section name -> list of (label, solve thunk)."""
    out = {name: [] for name in SECTIONS}
    for label, game, pot in pool():
        out["coupled"].append((label, lambda game=game: solve_coupled_riccati(game)))
        out["care"].append((label, lambda game=game, pot=pot: solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)))
    for label, a, bp, pot in care_pool():
        out["care_pool"].append((label, lambda a=a, bp=bp, pot=pot: solve_care(a, bp, pot.Qp, pot.Rp)))
    return out


def _run(solve):
    """(outcome, P list, iterations): outcome is 'ok' or the exception's class name."""
    try:
        sol = solve()
    except NpdgError as exc:
        return type(exc).__name__, [], 0
    return "ok", sol.P, sol.iterations


def run_pool() -> dict:
    out = {}
    for name, entries in cases().items():
        outcomes, iterations, runs = [], [], []
        started = time.perf_counter()
        for _, solve in entries:
            outcome, ps, its = _run(solve)
            outcomes.append(outcome)
            iterations.append(its)
            runs.append(ps)
        out[f"{name}_seconds"] = np.array(time.perf_counter() - started)
        slots, n_max = SECTIONS[name]
        stored = np.zeros((len(entries), slots, n_max, n_max))
        for g, ps in enumerate(runs):
            for i, p in enumerate(ps):
                stored[g, i, : p.shape[0], : p.shape[0]] = p
        out[f"{name}_labels"] = np.array([label for label, _ in entries])
        out[f"{name}_outcome"] = np.array(outcomes)
        out[f"{name}_iterations"] = np.array(iterations)
        out[f"{name}_P"] = stored
    return out


def summarize(res: dict):
    for name in SECTIONS:
        outcome = res[f"{name}_outcome"]
        ok = outcome == "ok"
        kinds = Counter(outcome[~ok].tolist())
        steps = "outer iterations" if name == "coupled" else "kernel steps"
        print(f"{name}: converged {int(ok.sum())}/{outcome.size}, failures {dict(sorted(kinds.items()))}, "
              f"{steps} of converged solves {int(res[f'{name}_iterations'][ok].sum())}, "
              f"solve time {float(res[f'{name}_seconds']):.2f} s")


def compare(res: dict, prev: dict):
    for name in SECTIONS:
        if not np.array_equal(res[f"{name}_labels"], prev[f"{name}_labels"]):
            raise SystemExit(f"{name}: the two runs do not cover the same pool")
        now, before = res[f"{name}_outcome"], prev[f"{name}_outcome"]
        changed = np.flatnonzero(now != before)
        print(f"{name}: {changed.size} outcome mismatches")
        for g in changed:
            print(f"  {res[f'{name}_labels'][g]}: {before[g]} -> {now[g]}")
        both = np.flatnonzero((now == "ok") & (before == "ok"))
        p_now, p_before = res[f"{name}_P"][both], prev[f"{name}_P"][both]
        diff = np.sqrt(np.sum((p_now - p_before) ** 2, axis=(1, 2, 3)))
        scale = np.sqrt(np.sum(p_before**2, axis=(1, 2, 3)))
        rel = diff / np.where(scale > 0, scale, 1.0)
        worst = int(np.argmax(rel)) if rel.size else None
        where = "" if worst is None else f" ({res[f'{name}_labels'][both[worst]]})"
        print(f"{name}: largest relative P difference {rel.max(initial=0.0):.3e} over {both.size} cases{where}")


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
