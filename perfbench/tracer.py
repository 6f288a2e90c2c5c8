"""Outside-in span tracer for the npdg package.

The tracer replaces module-level functions of ``npdg`` with timing wrappers
at every binding site: ``from .linalg import spectral_norm`` copies the
function object into the importing module's namespace, so wrapping only
``npdg.linalg.spectral_norm`` would miss the calls made from ``riccati``,
``metrics``, ``simulate``, ``families`` and ``games``. ``install`` scans every
loaded ``npdg`` module for attributes that are the original function object
and swaps each one; ``uninstall`` restores them. No file of the package
changes.

Spans are kept in flat in-memory arrays (name, parent, game, start, end,
failed) and reduced to per-function calls, failures, total and self times
when the run ends. A span's self time is its duration minus the durations
of its direct children; calls are single-threaded and strictly nested, so
children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span label, defining module, attribute). The label is the metric prefix.
TARGETS = (
    ("linalg.solve_lyapunov", "npdg.linalg", "solve_lyapunov"),
    ("linalg.spectral_norm", "npdg.linalg", "spectral_norm"),
    ("linalg.expm", "npdg.linalg", "_expm_core"),
    ("riccati.solve_coupled_riccati", "npdg.riccati", "solve_coupled_riccati"),
    ("riccati.newton_care", "npdg.riccati", "_newton_care"),
    ("riccati.coupled_residuals", "npdg.riccati", "coupled_residuals"),
    ("riccati.stabilizing_gain", "npdg.riccati", "_stabilizing_gain"),
    ("riccati.solve_care", "npdg.riccati", "solve_care"),
    ("metrics.delta_star", "npdg.metrics", "delta_star"),
    ("simulate.verify_bound", "npdg.simulate", "verify_bound"),
    ("simulate.simulate_closed_loop", "npdg.simulate", "simulate_closed_loop"),
    ("simulate.piecewise_delta", "npdg.simulate", "piecewise_delta"),
    ("families.sweep_delta", "npdg.families", "sweep_delta"),
    ("families.generate_family", "npdg.families", "generate_family"),
    ("gamefiles.load_game", "npdg.gamefiles", "load_game"),
    ("cli.cli_main", "npdg.cli", "cli_main"),
)
LABELS = tuple(label for label, _, _ in TARGETS)

# Counters read from what a wrapped call returned, never from logs:
# label -> (counter name, value taken from the return value).
ON_RETURN = {
    "riccati.solve_coupled_riccati": ("riccati.solve_coupled_riccati.outer_iters", lambda r: r.iterations),
    "riccati.newton_care": ("riccati.newton_care.steps", lambda r: r[2]),
    "simulate.simulate_closed_loop": ("simulate.simulate_closed_loop.points", lambda r: r.grid.size),
    "linalg.solve_lyapunov": ("linalg.solve_lyapunov.n", lambda r: r.shape[0]),
}


class Tracer:
    """Records one span per call of each wrapped function.

    ``game_label`` names the span that delimits one game: every span opened
    while a game span is open carries that game's id; spans outside any
    game carry -1.
    """

    def __init__(self, labels, game_label):
        unknown = set(labels) - set(LABELS)
        if unknown:
            raise ValueError(f"unknown trace targets: {sorted(unknown)}")
        self.labels = tuple(labels)
        self.game_label = game_label
        self.name = array("q")
        self.parent = array("q")
        self.game = array("q")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counters = {key: [] for key, _ in ON_RETURN.values()}
        self.bindings = {}
        self._stack = [-1]
        self._game = -1
        self._games = 0
        self._patched = []

    def _wrap(self, fn, label_id, is_game, on_return):
        stack = self._stack
        name, parent, game, start, end, failed = self.name, self.parent, self.game, self.start, self.end, self.failed
        sink, extract = (self.counters[on_return[0]], on_return[1]) if on_return else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            if is_game:
                self._game = self._games
                self._games += 1
            name.append(label_id)
            parent.append(stack[-1])
            game.append(self._game)
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = time.perf_counter()
                stack.pop()
                if is_game:
                    self._game = -1
            if sink is not None:
                sink.append(extract(result))
            return result

        return wrapper

    def install(self):
        """Wrap each target at every ``npdg`` module attribute bound to it."""
        self.bindings = {label: [] for label in self.labels}
        modules = [m for key, m in list(sys.modules.items()) if key == "npdg" or key.startswith("npdg.")]
        for label_id, label in enumerate(self.labels):
            _, module_name, attr = TARGETS[LABELS.index(label)]
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, label_id, label == self.game_label, ON_RETURN.get(label))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
                        self.bindings[label].append(module.__name__)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def mark(self) -> int:
        """Index of the next span, for slicing spans by harness call."""
        return len(self.name)

    def game_windows(self, since: int = 0) -> list[tuple[float, float]]:
        """(start, end) of each game span recorded from ``since`` on."""
        gid = self.labels.index(self.game_label)
        return [(self.start[i], self.end[i]) for i in range(since, len(self.name)) if self.name[i] == gid]

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "game": np.asarray(self.game, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "failed": np.asarray(self.failed, dtype=np.int8),
        }

    def summary(self) -> dict:
        """Per-label calls, failures, total seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for label_id, label in enumerate(self.labels):
            sel = a["name"] == label_id
            out[label] = {
                "calls": int(np.count_nonzero(sel)),
                "failed": int(np.count_nonzero(a["failed"][sel])),
                "total_s": float(np.sum(dur[sel])),
                "self_s": float(np.sum(self_time[sel])),
            }
        return out
