import json

import numpy as np
import pytest

from npdg import (
    closed_loop_nash,
    closed_loop_potential,
    default_grid,
    delta_star,
    load_game,
    piecewise_delta,
    save_game,
    simulate_closed_loop,
    solve_care,
    solve_coupled_riccati,
)
from npdg.cli import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, EXIT_VALIDATION, cli_main

from conftest import scalar_pair, single_player_game

BAD_GAME = {
    "n": 1,
    "A": [[0.0]],
    "players": [{"B": [[1.0]], "Q": [[-1.0]], "R": {"1": [[1.0]]}}],
}

UNSTABLE_GAME = {
    "n": 1,
    "A": [[1.0]],
    "players": [{"B": [[0.0]], "Q": [[1.0]], "R": {"1": [[1.0]]}}],
}


@pytest.fixture
def pair_file(tmp_path):
    game, pot = scalar_pair()
    path = tmp_path / "pair.json"
    save_game(path, game, pot)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_GAME))
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, pair_file, capsys):
        assert cli_main(["validate", pair_file]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_validate_failure(self, bad_file, capsys):
        assert cli_main(["validate", bad_file]) == EXIT_VALIDATION
        assert "Q^{1}" in capsys.readouterr().out

    def test_unknown_flag(self, pair_file, capsys):
        assert cli_main(["validate", pair_file, "--frobnicate"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli_main(["explode"]) == EXIT_USAGE

    def test_solver_failure(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(UNSTABLE_GAME))
        assert cli_main(["solve", str(path)]) == EXIT_SOLVER
        assert "solver error" in capsys.readouterr().err

    def test_singular_solve_is_solver_failure(self, tmp_path, capsys, monkeypatch):
        # Hurwitz A: the coupled solve reaches solve_lyapunov without a shift
        path = tmp_path / "stable.json"
        save_game(path, single_player_game(a=-1.0), None)

        def singular(f, w):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("npdg.riccati.solve_lyapunov", singular)
        assert cli_main(["solve", str(path)]) == EXIT_SOLVER
        assert "solver error: linear solve failed: Singular matrix" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli_main(["validate", str(tmp_path / "nope.json")]) == EXIT_VALIDATION

    def test_distance_requires_potential(self, tmp_path, capsys):
        game, _ = scalar_pair()
        path = tmp_path / "nopot.json"
        save_game(path, game, None)
        assert cli_main(["distance", str(path)]) == EXIT_VALIDATION


class TestDistance:
    def test_prints_delta_star(self, pair_file, capsys):
        assert cli_main(["distance", pair_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "delta_star" in out
        assert "0.1297565" in out

    def test_json_output(self, pair_file, capsys):
        assert cli_main(["distance", pair_file, "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta_star"] == pytest.approx(2**-0.5 - 3**-0.5, abs=1e-9)
        assert len(doc["per_player"]) == 2
        assert doc["is_exact"] is False

    def test_exact_pair_prints_zero(self, tmp_path, capsys):
        assert cli_main(["generate", "--n", "1", "--players", "2", "--delta", "0", "--seed", "5", "-o", str(tmp_path / "g.json")]) == EXIT_OK
        capsys.readouterr()
        assert cli_main(["distance", str(tmp_path / "g.json"), "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta_star"] <= 1e-8
        assert doc["is_exact"] is True


class TestVerify:
    def test_worked_pair(self, pair_file, capsys):
        assert cli_main(["verify", pair_file, "--x0", "1", "--t-end", "1", "--points", "101"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "holds=true" in out
        margin_end = float(next(line.split()[1] for line in out.splitlines() if line.startswith("margin_end")))
        assert margin_end == pytest.approx(0.0477, abs=1e-3)
        margin_max = float(next(line.split()[1] for line in out.splitlines() if line.startswith("margin_max")))
        assert margin_end <= margin_max < 1.0

    def test_csv_export(self, pair_file, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        assert cli_main(["verify", pair_file, "--x0", "1", "--t-end", "1", "--points", "11", "--csv", str(csv_path)]) == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,error,bound,margin"
        assert len(lines) == 12

    def test_piecewise(self, tmp_path, capsys):
        # on this family and x0 each trajectory has the larger norm on some interval
        path = str(tmp_path / "family.json")
        assert cli_main(["generate", "--n", "2", "--players", "2", "--delta", "0.3", "--seed", "0", "-o", path]) == EXIT_OK
        argv = ["verify", path, "--x0", "0,0,0,1", "--t-end", "4", "--points", "201"]
        capsys.readouterr()
        assert cli_main(argv) == EXIT_OK
        plain = capsys.readouterr().out
        assert cli_main(argv + ["--piecewise", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(plain)

        game, pot = load_game(path)
        nash = solve_coupled_riccati(game)
        care = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)
        grid = default_grid(4.0, 201)
        x0 = [0.0, 0.0, 0.0, 1.0]
        tn = simulate_closed_loop(closed_loop_nash(game, nash.P).Ac, x0, grid)
        tp = simulate_closed_loop(closed_loop_potential(game, pot, care.P[0]).Ac, x0, grid)
        dist = delta_star(game, nash.P, pot, care.P[0]).delta_star
        pw = piecewise_delta(tp, tn, dist, [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])
        assert out[len(plain) :] == pw.to_csv()

    @pytest.mark.parametrize(
        "extra",
        [["--piecewise", "-1"], ["--points", "1", "--piecewise", "2"], ["--piecewise", "0"]],
    )
    def test_bad_piecewise_rejected(self, pair_file, capsys, tmp_path, extra):
        csv = tmp_path / "r.csv"
        assert cli_main(["verify", pair_file, "--x0", "1", "--csv", str(csv), *extra]) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err
        assert not csv.exists()

    def test_json(self, pair_file, capsys):
        assert cli_main(["verify", pair_file, "--x0", "1", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["holds"] is True
        assert len(doc["error"]) == len(doc["grid"])


class TestSolveAndSimulate:
    def test_solve_text(self, pair_file, capsys):
        assert cli_main(["solve", pair_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "closed loop stable: true" in out

    def test_solve_json(self, pair_file, capsys):
        assert cli_main(["solve", pair_file, "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["nash"]["converged"] is True
        assert doc["potential"]["residual_norms"][0] <= 1e-9

    def test_simulate_table(self, pair_file, capsys):
        assert cli_main(["simulate", pair_file, "--x0", "1", "--t-end", "1", "--points", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,x1,xp1"
        assert len(lines) == 6

    def test_simulate_json(self, pair_file, capsys):
        assert cli_main(["simulate", pair_file, "--x0", "1", "--points", "5", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["nash_states"]) == 5
        assert doc["nash_states"][0] == [1.0]


class TestGenerateAndSweep:
    def test_generate_then_validate(self, tmp_path, capsys):
        out_file = tmp_path / "family.json"
        assert cli_main(["generate", "--n", "2", "--players", "2", "--delta", "0.1", "--seed", "42", "-o", str(out_file)]) == EXIT_OK
        capsys.readouterr()
        assert cli_main(["validate", str(out_file)]) == EXIT_OK

    def test_generate_positive_distance(self, tmp_path, capsys):
        out_file = tmp_path / "family.json"
        cli_main(["generate", "--n", "2", "--players", "2", "--delta", "0.1", "--seed", "42", "-o", str(out_file)])
        capsys.readouterr()
        cli_main(["distance", str(out_file), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta_star"] > 0.0

    def test_sweep_csv(self, capsys):
        code = cli_main(["sweep", "--n", "1", "--players", "2", "--grid", "0.001,0.01,0.1", "--seed", "1"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "delta_in,delta_star,max_error,bound_at_max,holds"
        assert len(lines) == 4
        assert all(line.endswith(",true") for line in lines[1:])

    def test_sweep_deterministic(self, capsys):
        argv = ["sweep", "--n", "1", "--players", "2", "--grid", "0.001,0.01", "--seed", "9"]
        assert cli_main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert cli_main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_sweep_json(self, capsys):
        assert cli_main(["sweep", "--n", "1", "--players", "2", "--grid", "0.001,0.003,0.01,0.03", "--seed", "2", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 4
        assert doc["failed"] is False
        assert doc["fit"]["n_points"] == 2

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        monkeypatch.setenv("NPDG_SEED", "77")
        cli_main(["generate", "--n", "1", "--players", "2", "--delta", "0.05", "-o", str(out_a)])
        cli_main(["generate", "--n", "1", "--players", "2", "--delta", "0.05", "--seed", "77", "-o", str(out_b)])
        capsys.readouterr()
        assert json.loads(out_a.read_text()) == json.loads(out_b.read_text())

    def test_generated_file_round_trips_distance(self, tmp_path, capsys):
        out_file = tmp_path / "family.json"
        cli_main(["generate", "--n", "2", "--players", "3", "--delta", "0.02", "--seed", "8", "-o", str(out_file)])
        capsys.readouterr()
        cli_main(["distance", str(out_file), "--json"])
        first = json.loads(capsys.readouterr().out)["delta_star"]
        cli_main(["distance", str(out_file), "--json"])
        second = json.loads(capsys.readouterr().out)["delta_star"]
        assert first == second

    def test_bad_grid_string(self, capsys):
        assert cli_main(["sweep", "--n", "1", "--players", "2", "--grid", "a,b", "--seed", "1"]) == EXIT_VALIDATION
