"""Regenerate ``reference.json``: the values every pool game gives with the
npdg sources of this checkout.

Usage, from the repository root (takes a few minutes, mostly the eight
n=40 games):

    python3 perfbench/make_reference.py

Run it only when a change to npdg is meant to move results; say so in
CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # fixes the BLAS thread count before numpy loads
from workloads import WORKLOADS

# Relative deviation allowed from a reference value. The solvers stop at a
# residual of 0.01 * tol = 1e-11; running sweep_small families 0-9 with
# damping 1.0 instead of 0.5 moved delta_star, max_error and bound_at_max by
# at most 8e-8 relative, so 1e-6 admits such solver changes and nothing
# larger.
REL_TOL = 1e-6


def _format(doc: dict) -> str:
    """JSON with one line per pool entry, so a diff shows which games moved."""
    blocks = [f' "rel_tol": {json.dumps(doc["rel_tol"])}']
    for name in WORKLOADS:
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(values)}" for key, values in doc[name].items())
        blocks.append(f' "{name}": {{\n{rows}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    doc = {"rel_tol": REL_TOL}
    workdir = run.OUT / "reference"
    for name, cls in WORKLOADS.items():
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        run._import_npdg()
        work = cls(0, workdir)
        entries = {}
        for call in work.pool():
            observed = call.observe(call.run())
            failures = [f for f, _ in observed if f is not None]
            if failures:
                raise SystemExit(f"{name} {call.key}: {failures[0]}")
            entries[call.key] = [list(values) for _, values in observed]
            print(name, call.key, flush=True)
        doc[name] = entries
    shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(_format(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
