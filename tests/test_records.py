"""JSON and CSV forms of the report records."""

import dataclasses
import json

import numpy as np

from npdg import (
    GameSpec,
    PlayerSpec,
    closed_loop_matrix_error,
    closed_loop_nash,
    deltaK_bound_chain,
    delta_star,
    normalize_potential_scaling,
    piecewise_delta,
    solve_care,
    solve_coupled_riccati,
    validate_game,
    verify_bound,
)
from npdg.families import FamilyParams, generate_family, sweep_delta
from npdg.simulate import default_grid


def _records():
    """One instance of every report record, each built by the library."""
    game, pot = generate_family(FamilyParams(n_per_block=1, n_players=2, delta=0.05, seed=4))
    pot_n, _ = normalize_potential_scaling(pot)
    nash = solve_coupled_riccati(game)
    care = solve_care(game.A, pot_n.Bp, pot_n.Qp, pot_n.Rp)
    loop = closed_loop_nash(game, nash.P)
    chained = deltaK_bound_chain(game, pot_n, nash.P, care.P[0])
    report = verify_bound(game, pot, grid=np.linspace(0, 2, 21))
    sweep = sweep_delta(FamilyParams(n_per_block=1, n_players=2, delta=0.0, seed=0), [0.0, 0.01, 0.02])
    bad = GameSpec(n=1, A=[[0.0]], players=(PlayerSpec(B=[[1.0]], Q=[[-1.0]], R={0: [[1.0]]}),))
    return {
        "RiccatiSolution": nash,
        "ClosedLoop": loop,
        "DistanceReport": delta_star(game, nash.P, pot_n, care.P[0]),
        "DeltaKReport": chained,
        "DeltaKReport without chain": closed_loop_matrix_error(loop.Ac, loop.Ac),
        "BoundChain": chained.bound_chain,
        "BoundReport": report,
        "PiecewiseDelta": piecewise_delta(report.traj_pot, report.traj_nash, report.delta_star_used, [(0, 1), (1, 2)]),
        "SweepReport": sweep,
        "SweepRow": sweep.rows[0],
        "LinearFit": sweep.fit,
        "Violation": validate_game(bad).violations[0],
    }


def _old_bound_csv(report):
    """The per-cell f-string form the CSV writer must reproduce byte for byte."""
    lines = ["t,error,bound,margin\n"]
    for t, e, b, m in zip(report.grid, report.error, report.bound, report.margin):
        lines.append(f"{t:.17g},{e:.17g},{b:.17g},{m:.17g}\n")
    return "".join(lines)


class TestToDict:
    def test_every_record_dumps_to_json(self):
        for name, record in _records().items():
            doc = record.to_dict()
            text = json.dumps(doc, sort_keys=True)
            assert json.loads(text).keys() == doc.keys(), name

    def test_keys_are_the_fields_minus_declared_exclusions(self):
        excluded = {
            "RiccatiSolution": {"residual_history"},
            "BoundReport": {"traj_nash", "traj_pot"},
            "DeltaKReport without chain": {"bound_chain"},
        }
        for name, record in _records().items():
            fields = {f.name for f in dataclasses.fields(record)}
            assert set(record.to_dict()) == fields - excluded.get(name, set()), name

    def test_nested_records_and_arrays_become_plain(self):
        records = _records()
        sweep = records["SweepReport"].to_dict()
        assert sweep["rows"][0] == records["SweepRow"].to_dict()
        assert sweep["fit"] == records["LinearFit"].to_dict()
        chained = records["DeltaKReport"].to_dict()
        assert chained["bound_chain"] == records["BoundChain"].to_dict()
        assert isinstance(chained["deltaK"], list)
        assert records["PiecewiseDelta"].to_dict()["partition"] == [[0.0, 1.0], [1.0, 2.0]]
        assert all(isinstance(p, list) for p in records["RiccatiSolution"].to_dict()["P"])


class TestCsvBytes:
    def test_overflowed_bound_cell(self):
        game, pot = generate_family(FamilyParams(2, 2, 0.05, 3))
        report = verify_bound(game, pot, grid=default_grid(600.0))
        csv = report.to_csv()
        assert csv.endswith("\n600,0,inf,0\n")
        assert csv == _old_bound_csv(report)

    def test_failed_sweep_rows(self):
        report = sweep_delta(FamilyParams(2, 2, 0.0, 3), [0.0, 0.05], max_iter=1)
        assert report.failed
        assert report.to_csv() == (
            "delta_in,delta_star,max_error,bound_at_max,holds\n"
            "0,nan,nan,nan,false\n"
            "0.050000000000000003,nan,nan,nan,false\n"
        )
