"""The benchmark's workloads: inputs made from the seed, calls into npdg,
and the checks of each game against the stored reference values.

A workload is a sequence of rounds; round ``r`` is a fixed list of calls, so
every run runs whole rounds with the same mix of game sizes whatever the
speed of the code. A call is one top-level entry into the library
(``sweep_delta``, ``verify_bound`` or ``cli_main``) and covers one or more
games. Family seeds come from fixed pools whose reference values are stored
in ``reference.json``; the run seed only picks and orders pool members, and
the library sees nothing but the generated games and files.

Every call resolves its entry point through the module attribute at call
time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Criterion-5 setup of the acceptance suite: 8 log-spaced couplings and the
# five (n_per_block, players) combos, picked by family seed modulo 5.
COUPLINGS = tuple(float(d) for d in np.logspace(-4.0, -1.0, 8))
COMBOS = ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3))
SWEEP_POOL = 100

# verify_large: size tag -> (n_per_block, family seeds in the pool). One
# round is one n=40 game and nine n=20 games, so the median game is always
# an n=20 game, and a median over nine families depends little on which
# nine the seed picks. The per-size medians are reported separately.
LARGE_SIZES = {"n20": (10, 40), "n40": (20, 8)}
LARGE_ROUND = ("n40",) + ("n20",) * 9
LARGE_DELTA = 0.01

# cli_verify: n=6 (3 per block), 2 players, A shifted by +1*I so the open
# loop is unstable and the anti-stable shifted Lyapunov solve runs.
CLI_POOL = 40
CLI_FILES = 16
CLI_DELTA = 0.05
CLI_POINTS = 2001
CLI_ARGS = ("--points", str(CLI_POINTS), "--piecewise", "4")


@dataclass
class Call:
    """One timed entry into the library.

    ``run`` performs the call; ``observe`` turns its result into one
    ``(failure or None, (delta_star, max_error, bound_at_max))`` per game.
    ``key`` names the entry of ``reference.json`` the games are checked
    against; ``tag`` names the size class where a workload reports medians
    per size, and is empty elsewhere.
    """

    key: str
    tag: str
    games: int
    run: Callable[[], Any]
    observe: Callable[[Any], list]


class Workload:
    """Builds each round once, at first use; set-up builds round 0."""

    def __init__(self):
        self._rounds: dict[int, list[Call]] = {}

    def round(self, r: int) -> list[Call]:
        if r not in self._rounds:
            self._rounds[r] = self._build_round(r)
        return self._rounds[r]


def _finite_values(values) -> str | None:
    return None if all(math.isfinite(v) for v in values) else "non-finite value"


class SweepSmall(Workload):
    """``sweep_delta`` over the criterion-5 combos; one game per coupling."""

    name = "sweep_small"
    game_label = "simulate.verify_bound"
    gauge = "small"

    def __init__(self, seed: int, workdir: Path):
        import npdg.families

        super().__init__()
        self.families = npdg.families
        rng = np.random.default_rng(seed)
        self.orders = [rng.permutation(np.arange(c, SWEEP_POOL, len(COMBOS))) for c in range(len(COMBOS))]
        self.round(0)

    def pool(self):
        return [self._call(s) for s in range(SWEEP_POOL)]

    def _build_round(self, r: int) -> list[Call]:
        return [self._call(int(order[r % order.size])) for order in self.orders]

    def _call(self, family_seed: int) -> Call:
        nb, players = COMBOS[family_seed % len(COMBOS)]
        params = self.families.FamilyParams(n_per_block=nb, n_players=players, delta=COUPLINGS[0], seed=family_seed)
        return Call(
            key=str(family_seed),
            tag="",
            games=len(COUPLINGS),
            run=lambda: self.families.sweep_delta(params, COUPLINGS),
            observe=self._observe,
        )

    @staticmethod
    def _observe(report) -> list:
        out = []
        for row in report.rows:
            values = (row.delta_star, row.max_error, row.bound_at_max)
            failure = row.failure or (None if row.holds else "bound does not hold") or _finite_values(values)
            out.append((failure, values))
        return out

    def warm_up(self):
        params = self.families.FamilyParams(n_per_block=1, n_players=2, delta=COUPLINGS[0], seed=0)
        self.families.sweep_delta(params, COUPLINGS[:2])


def _report_values(report) -> list:
    values = (report.delta_star_used, report.max_error(), report.bound_at_max_error())
    failure = None if report.holds else "bound does not hold"
    if failure is None and not np.all(np.isfinite(report.bound)):
        failure = "non-finite bound"
    return [(failure or _finite_values(values), values)]


class VerifyLarge(Workload):
    """``verify_bound`` on generated 2-player families at n=20 and n=40."""

    name = "verify_large"
    game_label = "simulate.verify_bound"
    gauge = "kron"

    def __init__(self, seed: int, workdir: Path):
        import npdg.families
        import npdg.simulate

        super().__init__()
        self.families = npdg.families
        self.simulate = npdg.simulate
        rng = np.random.default_rng(seed)
        self.orders = {tag: rng.permutation(count) for tag, (_, count) in LARGE_SIZES.items()}
        self.round(0)

    def pool(self):
        return [self._call(tag, s) for tag, (_, count) in LARGE_SIZES.items() for s in range(count)]

    def _build_round(self, r: int) -> list[Call]:
        calls = []
        for k, tag in enumerate(LARGE_ROUND):
            order = self.orders[tag]
            per_round = LARGE_ROUND.count(tag)
            position = r * per_round + LARGE_ROUND[:k].count(tag)
            calls.append(self._call(tag, int(order[position % order.size])))
        return calls

    def _call(self, tag: str, family_seed: int) -> Call:
        nb, _ = LARGE_SIZES[tag]
        params = self.families.FamilyParams(n_per_block=nb, n_players=2, delta=LARGE_DELTA, seed=family_seed)
        game, pot = self.families.generate_family(params)
        return Call(
            key=f"{tag}/{family_seed}",
            tag=tag,
            games=1,
            run=lambda: self.simulate.verify_bound(game, pot),
            observe=_report_values,
        )

    def warm_up(self):
        params = self.families.FamilyParams(n_per_block=2, n_players=2, delta=LARGE_DELTA, seed=0)
        self.simulate.verify_bound(*self.families.generate_family(params))


class CliVerify(Workload):
    """In-process ``npdg verify FILE --points 2001 --piecewise 4 --csv OUT``.

    Each round invokes every file once. Every invocation after the first on
    a file is also checked to repeat the first one's stdout and CSV byte for
    byte.
    """

    name = "cli_verify"
    game_label = "cli.cli_main"
    gauge = "small"

    def __init__(self, seed: int, workdir: Path):
        import npdg.cli

        super().__init__()
        self.cli = npdg.cli
        self.workdir = workdir
        self.first_output: dict[str, tuple[str, str]] = {}
        rng = np.random.default_rng(seed)
        self.file_seeds = [int(s) for s in rng.choice(CLI_POOL, size=CLI_FILES, replace=False)]
        for s in self.file_seeds:
            self._write_game(s)
        self.round(0)

    def _write_game(self, family_seed: int) -> Path:
        import npdg

        params = npdg.FamilyParams(n_per_block=3, n_players=2, delta=CLI_DELTA, seed=family_seed)
        game, pot = npdg.generate_family(params)
        shifted = npdg.GameSpec(n=game.n, A=game.A + np.eye(game.n), players=game.players, label=f"{game.label} + I")
        path = self.workdir / f"game-{family_seed}.json"
        npdg.save_game(path, shifted, pot)
        return path

    def pool(self):
        return [self._call(self._write_game(s), s) for s in range(CLI_POOL)]

    def _build_round(self, r: int) -> list[Call]:
        return [self._call(self.workdir / f"game-{s}.json", s) for s in self.file_seeds]

    def _invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.cli_main(argv)
        return code, out.getvalue(), err.getvalue()

    def _call(self, path: Path, family_seed: int) -> Call:
        csv_path = self.workdir / f"out-{family_seed}.csv"
        argv = ["verify", str(path), *CLI_ARGS, "--csv", str(csv_path)]

        def observe(result):
            return [self._observe(str(family_seed), csv_path, *result)]

        return Call(key=str(family_seed), tag="", games=1, run=lambda: self._invoke(argv), observe=observe)

    def _observe(self, key, csv_path, code, stdout, stderr):
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}", None
        csv_text = csv_path.read_text()
        first = self.first_output.setdefault(key, (stdout, csv_text))
        if first != (stdout, csv_text):
            return "output differs from the first invocation on this file", None
        lines = dict(line.split(" ", 1) for line in stdout.splitlines()[1:3])
        rows = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=1, ndmin=2)
        if rows.shape[0] != CLI_POINTS:
            return f"CSV has {rows.shape[0]} rows, expected {CLI_POINTS}", None
        error, bound = rows[:, 1], rows[:, 2]
        values = (float(lines["delta_star"]), float(lines["max_error"]), float(bound[int(np.argmax(error))]))
        if not stdout.startswith("holds=true\n"):
            return "bound does not hold", values
        if not np.all(np.isfinite(bound)):
            return "non-finite bound", values
        return _finite_values(values), values

    def warm_up(self):
        path = self.workdir / f"game-{self.file_seeds[0]}.json"
        self._invoke(["verify", str(path), "--points", "11", "--csv", str(self.workdir / "warm-up.csv")])


WORKLOADS = {w.name: w for w in (SweepSmall, VerifyLarge, CliVerify)}


def check(observed: list, reference: list, rel_tol: float) -> list:
    """Failure reason (or None) per game of one call."""
    if len(observed) != len(reference):
        return [f"{len(observed)} games, reference has {len(reference)}"] * max(len(observed), len(reference))
    out = []
    for (failure, values), ref in zip(observed, reference):
        if failure is None:
            for label, got, want in zip(("delta_star", "max_error", "bound_at_max"), values, ref):
                if not abs(got - want) <= rel_tol * abs(want):
                    failure = f"{label} {got!r} deviates from reference {want!r}"
                    break
        out.append(failure)
    return out
