import numpy as np
import pytest

from npdg import load_game, save_game, solve_care, solve_coupled_riccati, validate_game, validate_potential
from npdg.families import FamilyParams, family_x0, fit_small_delta, generate_family, sweep_delta
from npdg.linalg import max_real_eigenvalue, spectral_norm
from npdg.metrics import delta_star


def _pipeline_delta_star(game, pot):
    nash = solve_coupled_riccati(game)
    care = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)
    return delta_star(game, nash.P, pot, care.P[0]).delta_star


class TestGenerateFamily:
    def test_same_seed_bit_identical(self):
        params = FamilyParams(n_per_block=2, n_players=3, delta=0.07, seed=123)
        g1, p1 = generate_family(params)
        g2, p2 = generate_family(params)
        assert np.array_equal(g1.A, g2.A)
        for a, b in zip(g1.players, g2.players):
            assert np.array_equal(a.B, b.B)
            assert np.array_equal(a.Q, b.Q)
            for j in a.R:
                assert np.array_equal(a.R[j], b.R[j])
        assert np.array_equal(p1.Qp, p2.Qp)
        assert np.array_equal(p1.Rp, p2.Rp)

    def test_different_seeds_differ(self):
        g1, _ = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.0, seed=1))
        g2, _ = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.0, seed=2))
        assert not np.array_equal(g1.A, g2.A)

    def test_generated_games_validate(self):
        for seed in range(5):
            game, pot = generate_family(FamilyParams(n_per_block=3, n_players=2, delta=0.04, seed=seed))
            assert validate_game(game).ok
            assert validate_potential(game, pot).ok

    def test_block_margin(self):
        params = FamilyParams(n_per_block=3, n_players=2, delta=0.0, seed=7, stability_margin=0.8)
        game, _ = generate_family(params)
        assert max_real_eigenvalue(game.A) <= -0.8 + 1e-9

    def test_delta_only_moves_off_diagonal(self):
        base, _ = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.0, seed=4))
        moved, _ = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.1, seed=4))
        diff = np.asarray(moved.A) - np.asarray(base.A)
        assert np.allclose(diff[:2, :2], 0.0)
        assert np.allclose(diff[2:, 2:], 0.0)
        assert spectral_norm(diff) == pytest.approx(0.1, abs=1e-12)

    def test_zero_coupling_is_exact(self):
        for seed in range(5):
            game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.0, seed=seed))
            assert _pipeline_delta_star(game, pot) <= 1e-8

    def test_distance_vanishes_continuously(self):
        params = FamilyParams(n_per_block=2, n_players=2, delta=1e-5, seed=31)
        small = _pipeline_delta_star(*generate_family(params))
        larger = _pipeline_delta_star(*generate_family(FamilyParams(n_per_block=2, n_players=2, delta=5e-5, seed=31)))
        assert larger < 10.0 * small
        assert small > 0.0

    def test_distance_monotone_on_grid(self):
        for seed in (1, 2, 3):
            values = []
            for d in (1e-4, 1e-3, 1e-2, 1e-1):
                game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=d, seed=seed))
                values.append(_pipeline_delta_star(game, pot))
            assert all(b >= a for a, b in zip(values, values[1:])), f"seed {seed}: {values}"

    def test_single_player_family_stays_exact(self):
        game, pot = generate_family(FamilyParams(n_per_block=2, n_players=1, delta=0.3, seed=0))
        assert _pipeline_delta_star(game, pot) <= 1e-9

    def test_regression_snapshot_seed_42(self):
        # pipeline output frozen as a drift guard, not derived ground truth
        game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.1, seed=42))
        value = _pipeline_delta_star(game, pot)
        assert value > 0.0
        assert value == pytest.approx(0.010043907268849598, rel=1e-6)

    def test_x0_modes(self):
        params = FamilyParams(n_per_block=2, n_players=2, delta=0.0, seed=5)
        ones = family_x0(params, "ones")
        assert np.allclose(ones, 0.5)
        rand1 = family_x0(params, "random-unit")
        rand2 = family_x0(params, "random-unit")
        assert np.array_equal(rand1, rand2)
        assert np.linalg.norm(rand1) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            family_x0(params, "zeros")

    def test_params_validated(self):
        with pytest.raises(ValueError):
            FamilyParams(n_per_block=0, n_players=2, delta=0.0, seed=0)
        with pytest.raises(ValueError):
            FamilyParams(n_per_block=1, n_players=2, delta=-0.1, seed=0)


class TestSweep:
    def test_single_zero_row(self):
        params = FamilyParams(n_per_block=1, n_players=2, delta=0.0, seed=3)
        report = sweep_delta(params, [0.0])
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.delta_star <= 1e-8
        assert row.max_error <= 1e-6
        assert row.holds
        assert report.fit is None

    def test_log_grid_all_hold(self):
        params = FamilyParams(n_per_block=2, n_players=2, delta=1e-4, seed=1)
        report = sweep_delta(params, list(np.logspace(-4, -1, 7)))
        assert all(r.holds for r in report.rows)
        assert not report.failed
        assert [r.delta_in for r in report.rows] == sorted(r.delta_in for r in report.rows)

    def test_fit_is_linear_for_small_coupling(self):
        params = FamilyParams(n_per_block=2, n_players=2, delta=1e-4, seed=2)
        report = sweep_delta(params, list(np.logspace(-4, -1, 8)))
        assert report.fit is not None
        assert report.fit.n_points == 4
        assert report.fit.r_squared >= 0.99

    def test_error_to_distance_ratio_converges(self):
        # max error scales linearly in the distance, so the ratio settles
        # as the coupling shrinks
        for seed in (0, 1, 2):
            params = FamilyParams(n_per_block=2, n_players=2, delta=1e-5, seed=seed)
            report = sweep_delta(params, [1e-5, 3e-5, 1e-4, 1e-3])
            ratios = [r.max_error / r.delta_star for r in report.rows[:2]]
            assert abs(ratios[1] - ratios[0]) < 0.1 * abs(ratios[0]), f"seed {seed}: {ratios}"

    def test_singular_solve_records_failed_rows(self, monkeypatch):
        def singular(f, w):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("npdg.riccati.solve_lyapunov", singular)
        params = FamilyParams(n_per_block=1, n_players=2, delta=0.0, seed=0)
        report = sweep_delta(params, [0.0, 0.01])
        assert report.failed
        assert [r.failure for r in report.rows] == ["linear solve failed: Singular matrix"] * 2

    def test_csv_layout(self):
        params = FamilyParams(n_per_block=1, n_players=2, delta=0.0, seed=0)
        report = sweep_delta(params, [0.0, 0.01])
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "delta_in,delta_star,max_error,bound_at_max,holds"
        assert len(lines) == 3
        assert lines[1].endswith(",true") or lines[1].endswith(",false")

    def test_grid_must_ascend(self):
        params = FamilyParams(n_per_block=1, n_players=2, delta=0.0, seed=0)
        with pytest.raises(ValueError):
            sweep_delta(params, [0.1, 0.01])
        with pytest.raises(ValueError):
            sweep_delta(params, [-0.1, 0.01])


class TestFit:
    def test_perfect_line(self):
        fit = fit_small_delta([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_single_point_returns_none(self):
        assert fit_small_delta([1.0], [1.0]) is None

    def test_constant_series(self):
        fit = fit_small_delta([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
        assert fit.r_squared == 1.0
        assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_round_trip_reproduces_distance(tmp_path):
    params = FamilyParams(n_per_block=2, n_players=2, delta=0.05, seed=17)
    game, pot = generate_family(params)
    direct = _pipeline_delta_star(game, pot)
    path = tmp_path / "family.json"
    save_game(path, game, pot)
    loaded_game, loaded_pot = load_game(path)
    reloaded = _pipeline_delta_star(loaded_game, loaded_pot)
    assert abs(direct - reloaded) <= 1e-12
