"""npdg benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole rounds of the workload for about ``--seconds``
and reports the end-to-end metrics. ``--trace 1`` runs each round twice,
first untraced and then with every traced function wrapped. It reports the
per-layer metrics and the tracing overhead.

Times are corrected for drift in machine speed with the workload's kernel
in ``gauge.py``. The report prints the raw times beside them.

A human-readable report goes to stdout first; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A
fuller record (environment, quartiles, bindings, failures) is written under
``.bench_out/`` in the repository root, together with the raw spans of a
traced run.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads. One thread is the steadier and,
# on 2 CPUs, mostly the faster choice: verify_bound at n=20 took 0.9 s with
# one thread against 2.0 s with two (n=40: 22 s against 16 s).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from gauge import Gauge  # noqa: E402
from tracer import LABELS, Tracer  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Set-up is repeated and its median reported, so one slow repetition does
# not move setup_s.
SETUP_REPS = 9
P90_MIN_GAMES = 100
# Layers whose self-time shares the traced report prints side by side.
SHARE_LAYERS = (
    "linalg.solve_lyapunov",
    "linalg.spectral_norm",
    "linalg.expm",
    "riccati.newton_care",
    "riccati.solve_coupled_riccati",
)


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _import_npdg():
    """Import npdg afresh: drop any loaded copy, then import every module."""
    for key in [k for k in sys.modules if k == "npdg" or k.startswith("npdg.")]:
        del sys.modules[key]
    importlib.import_module("npdg")
    importlib.import_module("npdg.cli")


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _setup(workload_cls, seed: int, workdir: Path, g: Gauge):
    """Import npdg, make the inputs and warm up; SETUP_REPS times.

    Returns the workload and the (start, end) window of each repetition.
    """
    windows = []
    with g.running():
        for _ in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            started = time.perf_counter()
            _import_npdg()
            work = workload_cls(seed, workdir)
            work.warm_up()
            windows.append((started, time.perf_counter()))
    return work, windows


class Measurement:
    """What one pass over the rounds produced: windows, games and checks."""

    def __init__(self):
        self.rounds = 0
        self.calls = []  # (start, end) per call
        self.games = []  # (tag, start, end) per game
        self.failures = []  # (call key, reason)
        self.attempted = 0


def _run_calls(calls, tracer: Tracer, m: Measurement, reference, rel_tol):
    """Time each call with ``tracer`` installed, then check its games."""
    tracer.install()
    try:
        for call in calls:
            mark = tracer.mark()
            t0 = time.perf_counter()
            try:
                result = call.run()
            except Exception as exc:  # a failed game is counted, not fatal
                result = exc
            m.calls.append((t0, time.perf_counter()))
            m.games += [(call.tag, start, end) for start, end in tracer.game_windows(mark)]
            m.attempted += call.games
            if isinstance(result, Exception):
                reasons = [f"{type(result).__name__}: {result}"] * call.games
            else:
                reasons = check(call.observe(result), reference[call.key], rel_tol)
            m.failures += [(call.key, r) for r in reasons if r is not None]
    finally:
        tracer.uninstall()


def _measure(work, g: Gauge, reference, rel_tol, seconds, tracer=None) -> tuple[Measurement, Measurement]:
    """Run whole rounds while the previous round's wall time still fits.

    The first round always runs. Each call runs with only the game spans
    recorded and the gauge sampling. With ``tracer``, the call then runs
    again at once under the full tracer and without the gauge, whose
    samples would land inside traced spans; the two passes see nearly the
    same machine speed. A round's inputs are built before any tracer goes
    in, so only library calls made inside the timed calls are traced.
    """
    game_tracer = Tracer([work.game_label], work.game_label)
    plain, traced = Measurement(), Measurement()
    started = time.perf_counter()
    last_round = 0.0
    r = 0
    while r == 0 or time.perf_counter() - started + last_round <= seconds:
        round_started = time.perf_counter()
        calls = work.round(r)
        if tracer is None:
            with g.running():
                _run_calls(calls, game_tracer, plain, reference, rel_tol)
        else:
            for call in calls:
                with g.running():
                    _run_calls([call], game_tracer, plain, reference, rel_tol)
                _run_calls([call], tracer, traced, reference, rel_tol)
        last_round = time.perf_counter() - round_started
        r += 1
    plain.rounds = traced.rounds = r
    return plain, traced


def _timing_line(name, values, raw_values):
    q1, p50, q3 = _quartiles(values)
    note = f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}  raw p50 {statistics.median(raw_values):.6g}"
    return name, p50, note


def _end_to_end(m: Measurement, g: Gauge, setup_windows) -> tuple[dict, list]:
    passed = m.attempted - len(m.failures)
    corrected_s = sum(g.corrected(*w) for w in m.calls)
    raw_s = sum(g.net(*w) for w in m.calls)
    game_ms = [1e3 * g.corrected(start, end) for _, start, end in m.games]
    raw_ms = [1e3 * g.net(start, end) for _, start, end in m.games]
    rows = [
        ("games_per_s", passed / corrected_s, f"{passed} of {m.attempted} games, raw {passed / raw_s:.6g}"),
        _timing_line("game_p50_ms", game_ms, raw_ms),
    ]
    if len(game_ms) >= P90_MIN_GAMES:
        rows.append(("game_p90_ms", statistics.quantiles(game_ms, n=10)[8], f"n={len(game_ms)}"))
    else:
        rows.append(("game_p90_ms", None, f"not reported: {len(game_ms)} < {P90_MIN_GAMES} games"))
    for tag in sorted({tag for tag, _, _ in m.games if tag}):
        windows = [(start, end) for t, start, end in m.games if t == tag]
        rows.append(
            _timing_line(f"game_p50_ms.{tag}", [1e3 * g.corrected(*w) for w in windows], [1e3 * g.net(*w) for w in windows])
        )
    rows += [
        ("failed_ratio", len(m.failures) / m.attempted, f"{len(m.failures)} of {m.attempted} games"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "whole process"),
        _timing_line("setup_s", [g.corrected(*w) for w in setup_windows], [g.net(*w) for w in setup_windows]),
    ]
    units = {"games_per_s": "1/s", "failed_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
    lines = [(name, value, units.get(name, "ms"), note) for name, value, note in rows]
    gated = ("games_per_s", "game_p50_ms", "peak_rss_mb", "setup_s")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in lines if name in gated}
    return metrics, lines


def _per_layer(tracer: Tracer, g: Gauge, traced: Measurement, untraced: Measurement) -> tuple[dict, list, dict]:
    summary = tracer.summary()
    wall = sum(end - start for start, end in traced.calls)
    untraced_s = sum(g.net(*w) for w in untraced.calls)
    games = traced.attempted
    metrics = {}
    lines = []
    for label in LABELS:
        row = summary[label]
        metrics[f"{label}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{label}.failed"] = {"value": row["failed"], "unit": "count"}
        metrics[f"{label}.self_share"] = {"value": row["self_s"] / wall, "unit": "ratio"}
        lines.append(
            f"{label:<32} calls {row['calls']:>8}  failed {row['failed']:>3}  "
            f"self_s {row['self_s']:10.4f}  total_s {row['total_s']:10.4f}  self_share {row['self_s'] / wall:.4f}"
        )
    c = tracer.counters
    outer = c["riccati.solve_coupled_riccati.outer_iters"]
    steps = c["riccati.newton_care.steps"]
    lyap_n = max(c["linalg.solve_lyapunov.n"], default=0)
    counters = {
        "riccati.solve_coupled_riccati.outer_iters": (statistics.median(outer) if outer else 0, "count"),
        "riccati.newton_care.steps": (sum(steps), "count"),
        "riccati.newton_care.steps_per_call": (sum(steps) / len(steps) if steps else 0.0, "steps/call"),
        "riccati.solve_coupled_riccati.per_game": (len(outer) / games, "solves/game"),
        "simulate.simulate_closed_loop.points": (sum(c["simulate.simulate_closed_loop.points"]), "count"),
        "linalg.solve_lyapunov.system_mb_computed": (8.0 * lyap_n**4 / 1e6, "MB"),
        "riccati.solve_coupled_riccati.total_share": (summary["riccati.solve_coupled_riccati"]["total_s"] / wall, "ratio"),
        "simulate.simulate_closed_loop.total_share": (summary["simulate.simulate_closed_loop"]["total_s"] / wall, "ratio"),
        "trace.games": (games, "count"),
        "trace.self_coverage": (sum(r["self_s"] for r in summary.values()) / wall, "ratio"),
        "trace.overhead_ratio": (wall / untraced_s, "ratio"),
    }
    for name, (value, unit) in counters.items():
        metrics[name] = {"value": value, "unit": unit}
    shares = {label: summary[label]["self_s"] / wall for label in SHARE_LAYERS}
    shares["other"] = 1.0 - sum(shares.values())
    lines += [
        "self-time share: " + "  ".join(f"{k} {v:.3f}" for k, v in shares.items()),
        f"traced wall {wall:.4f} s over {games} games; untraced {untraced_s:.4f} s",
        f"coupled-solve share {counters['riccati.solve_coupled_riccati.total_share'][0]:.3f}, "
        f"simulate share {counters['simulate.simulate_closed_loop.total_share'][0]:.3f}, "
        f"median outer iterations per coupled solve {counters['riccati.solve_coupled_riccati.outer_iters'][0]}",
        f"linalg.solve_lyapunov.system_mb_computed: 8*n^4 bytes at n={lyap_n}, computed, not measured",
    ]
    return metrics, lines, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "npdg" / "__init__.py").is_file():
        print(f"error: npdg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference_doc = json.loads(REFERENCE.read_text())
    rel_tol = reference_doc["rel_tol"]
    reference = reference_doc[args.workload]

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{run_id}-{os.getpid()}"
    env = _environment()
    try:
        workload_cls = WORKLOADS[args.workload]
        g = Gauge(workload_cls.gauge)
        work, setup_windows = _setup(workload_cls, args.seed, workdir, g)
        if args.trace == 0:
            m, _ = _measure(work, g, reference, rel_tol, args.seconds)
            metrics, lines = _end_to_end(m, g, setup_windows)
            report = [f"{name:<20} {'n/a' if v is None else f'{v:.6g}':>12} {unit:<6} {note}" for name, v, unit, note in lines]
            detail = {"end_to_end": {name: {"value": v, "unit": unit, "note": note} for name, v, unit, note in lines}}
        else:
            tracer = Tracer(LABELS, work.game_label)
            untraced, m = _measure(work, g, reference, rel_tol, args.seconds, tracer)
            metrics, report, summary = _per_layer(tracer, g, m, untraced)
            m.attempted += untraced.attempted
            m.failures = untraced.failures + m.failures
            OUT.mkdir(exist_ok=True)
            np.savez_compressed(OUT / f"{run_id}-spans.npz", labels=np.array(tracer.labels), **tracer.arrays())
            detail = {"per_layer": metrics, "layers": summary, "bindings": tracer.bindings}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not m.failures, "attempted": m.attempted, "failed": len(m.failures), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env, **detail, **result}
    record["failures"] = m.failures[:50]
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {m.rounds}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for line in report:
        print(line)
    for key, reason in m.failures[:10]:
        print(f"FAILED {key}: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
