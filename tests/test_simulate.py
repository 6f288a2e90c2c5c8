import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from npdg import (
    GridMismatchError,
    PartitionError,
    c_npdg_bound,
    closed_loop_nash,
    closed_loop_potential,
    default_grid,
    delta_star,
    piecewise_delta,
    rk4_reference,
    simulate_closed_loop,
    solve_care,
    solve_coupled_riccati,
    trajectory_error,
    verify_bound,
)
from npdg.families import FamilyParams, family_x0, generate_family
from npdg.linalg import _TAYLOR_THETA, matrix_exponential, spectral_norm
from npdg.simulate import _STACK_ENTRIES, _margins

from conftest import SCALAR_AC_NASH, SCALAR_AC_POT, SCALAR_D, random_hurwitz


class TestSimulate:
    def test_zero_dynamics_constant(self):
        traj = simulate_closed_loop(np.zeros((2, 2)), [1.0, -2.0], np.linspace(0, 3, 7))
        assert np.allclose(traj.states, [1.0, -2.0])

    def test_scalar_decay(self):
        traj = simulate_closed_loop([[-1.0]], [1.0], np.linspace(0, 1, 101))
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_scalar_nash_loop_value(self):
        traj = simulate_closed_loop([[SCALAR_AC_NASH]], [1.0], np.linspace(0, 1, 11))
        assert traj.states[-1, 0] == pytest.approx(np.exp(SCALAR_AC_NASH), abs=1e-12)
        assert traj.states[-1, 0] == pytest.approx(0.31515, abs=1e-5)

    def test_initial_state_is_exact(self):
        x0 = np.array([0.3, -0.7, 1.1])
        traj = simulate_closed_loop(np.diag([-1.0, -2.0, -0.5]), x0, np.linspace(0, 2, 5))
        assert np.array_equal(traj.states[0], x0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            simulate_closed_loop([[-1.0]], [1.0], [0.0, 0.5, 0.5])
        with pytest.raises(ValueError):
            simulate_closed_loop([[-1.0]], [1.0], [0.5, 1.0])
        with pytest.raises(ValueError):
            simulate_closed_loop([[-1.0]], [1.0], [])

    def test_dimension_check(self):
        for simulate in (simulate_closed_loop, rk4_reference):
            with pytest.raises(ValueError, match="x0 has dimension 1, system has 2"):
                simulate(np.eye(2), [1.0], [0.0, 1.0])
            with pytest.raises(ValueError, match="non-finite"):
                simulate([[np.nan]], [1.0], [0.0, 1.0])
            with pytest.raises(ValueError, match="square"):
                simulate(np.ones((2, 3)), [1.0, 1.0], [0.0, 1.0])


class TestStackedExponential:
    """Blocked, stacked evaluation reproduces the per-point exponential exactly."""

    @staticmethod
    def _assert_pointwise_exact(ac, x0, grid):
        traj = simulate_closed_loop(ac, x0, grid)
        for k, t in enumerate(grid):
            assert np.array_equal(traj.states[k], matrix_exponential(ac * t) @ x0), f"t = {t}"

    @pytest.mark.parametrize("n", [1, 2, 6, 40])
    def test_bit_identical_to_matrix_exponential(self, n):
        rng = np.random.default_rng(40 + n)
        ac = random_hurwitz(rng, n, margin=1.0)
        x0 = rng.normal(size=n)
        grid = np.linspace(0.0, 50.0, 201)
        assert grid[-1] * spectral_norm(ac) > 2**3 * _TAYLOR_THETA  # several squaring depths
        if n == 40:
            assert grid.size - 1 > _STACK_ENTRIES // n**2  # more than one block
        self._assert_pointwise_exact(ac, x0, grid)

    def test_zero_matrix_and_one_point_grid(self):
        x0 = np.array([0.5, -1.5, 2.0])
        self._assert_pointwise_exact(np.zeros((3, 3)), x0, np.linspace(0.0, 4.0, 9))
        traj = simulate_closed_loop(random_hurwitz(np.random.default_rng(1), 3), x0, [0.0])
        assert traj.states.shape == (1, 3)
        assert np.array_equal(traj.states[0], x0)

    def test_memory_bounded_by_block(self):
        # an unblocked stack of 2001 40x40 matrices peaks above 200 MB
        rng = np.random.default_rng(7)
        ac = random_hurwitz(rng, 40)
        x0 = rng.normal(size=40)
        grid = np.linspace(0.0, 2.0, 2001)
        tracemalloc.start()
        try:
            simulate_closed_loop(ac, x0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(min_value=1.0, max_value=1e3))
    def test_large_t_norm_against_scipy(self, n, seed, span):
        rng = np.random.default_rng(seed)
        ac = random_hurwitz(rng, n)
        x0 = rng.normal(size=n)
        grid = np.linspace(0.0, span / spectral_norm(ac), 41)  # t ||Ac|| up to span
        states = simulate_closed_loop(ac, x0, grid).states
        ref = np.array([sla.expm(ac * t) @ x0 for t in grid])
        scale = max(1.0, float(np.max(np.linalg.norm(ref, axis=1))))
        assert np.max(np.abs(states - ref)) <= 1e-12 * scale


class TestRk4Reference:
    def test_constant(self):
        traj = rk4_reference(np.zeros((2, 2)), [1.0, 2.0], np.linspace(0, 1, 3), substeps=10)
        assert np.allclose(traj.states, [1.0, 2.0])

    def test_scalar_high_resolution(self):
        traj = rk4_reference([[-1.0]], [1.0], np.linspace(0, 1, 2), substeps=1000)
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-10)

    def test_agrees_with_exponential(self):
        rng = np.random.default_rng(6)
        grid = np.linspace(0, 5, 26)
        for _ in range(10):
            a = random_hurwitz(rng, 4)
            x0 = rng.normal(size=4)
            exact = simulate_closed_loop(a, x0, grid)
            integrated = rk4_reference(a, x0, grid, substeps=1000)
            assert np.max(np.abs(exact.states - integrated.states)) <= 1e-6

    def test_matches_four_stage_form(self):
        # the step matrix is the classical four-stage update applied to a linear system
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 5))
        x = rng.normal(size=5)
        grid = np.array([0.0, 0.3, 1.0, 1.2])
        traj = rk4_reference(a, x, grid, substeps=7)
        for idx in range(1, grid.size):
            h = (grid[idx] - grid[idx - 1]) / 7
            for _ in range(7):
                k1 = a @ x
                k2 = a @ (x + 0.5 * h * k1)
                k3 = a @ (x + 0.5 * h * k2)
                k4 = a @ (x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert np.max(np.abs(traj.states[idx] - x)) <= 1e-13 * np.max(np.abs(x))

    def test_substeps_validated(self):
        with pytest.raises(ValueError):
            rk4_reference([[-1.0]], [1.0], [0.0, 1.0], substeps=0)


class TestTrajectoryError:
    def test_identical(self):
        t = simulate_closed_loop([[-1.0]], [1.0], np.linspace(0, 1, 5))
        assert np.all(trajectory_error(t, t) == 0.0)

    def test_scalar_pair_at_t1(self):
        grid = np.linspace(0, 1, 101)
        tn = simulate_closed_loop([[SCALAR_AC_NASH]], [1.0], grid)
        tp = simulate_closed_loop([[SCALAR_AC_POT]], [1.0], grid)
        err = trajectory_error(tp, tn)
        expected = abs(np.exp(SCALAR_AC_NASH) - np.exp(SCALAR_AC_POT))
        assert err[-1] == pytest.approx(expected, abs=1e-12)
        assert err[-1] == pytest.approx(0.07201, abs=1e-4)
        assert err[0] == 0.0

    def test_grid_mismatch(self):
        t1 = simulate_closed_loop([[-1.0]], [1.0], np.linspace(0, 1, 5))
        t2 = simulate_closed_loop([[-1.0]], [1.0], np.linspace(0, 1, 6))
        with pytest.raises(GridMismatchError):
            trajectory_error(t1, t2)


class TestBoundCoefficient:
    def test_zero_time(self):
        assert c_npdg_bound(0.0, [1.0], [[1.0, 1.0]], 2, [[-1.0]], [[-1.0]], 0.5) == 0.0

    def test_zero_distance(self):
        for t in (0.5, 1.0, 2.0):
            assert c_npdg_bound(t, [1.0], [[1.0, 1.0]], 2, [[-1.0]], [[-2.0]], 0.0) == 0.0

    def test_scalar_pair_value(self):
        value = c_npdg_bound(1.0, [1.0], [[1.0, 1.0]], 2, [[SCALAR_AC_NASH]], [[SCALAR_AC_POT]], SCALAR_D)
        expected = np.sqrt(2.0) * 2.0 * np.exp(np.sqrt(2.0)) * SCALAR_D
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(1.50959, abs=1e-4)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            c_npdg_bound(-0.1, [1.0], [[1.0]], 1, [[-1.0]], [[-1.0]], 0.1)
        with pytest.raises(ValueError):
            c_npdg_bound([0.0, -0.1], [1.0], [[1.0]], 1, [[-1.0]], [[-1.0]], 0.1)

    def test_scalar_time_gives_float(self):
        assert isinstance(c_npdg_bound(1.0, [1.0], [[1.0]], 1, [[-1.0]], [[-1.0]], 0.1), float)

    def test_matches_verify_bound_series(self):
        game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.05, seed=4))
        report = verify_bound(game, pot)
        series = c_npdg_bound(report.grid, report.x0, pot.Bp, report.n_players, report.ac_nash, report.ac_pot, report.delta_star_used)
        assert np.array_equal(series, report.bound)


class TestVerifyBound:
    def test_exact_family(self):
        game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.0, seed=14))
        report = verify_bound(game, pot, grid=np.linspace(0, 5, 126))
        assert report.holds
        assert report.max_error() <= 1e-6
        assert report.error[0] == 0.0
        assert report.margin[0] == 0.0  # 0/0 at t=0 is defined as 0

    def test_scalar_pair_margin(self, pair):
        game, pot = pair
        report = verify_bound(game, pot, x0=[1.0], grid=np.linspace(0, 1, 101))
        assert report.holds
        assert report.margin[-1] == pytest.approx(0.0477, abs=1e-3)
        assert report.delta_star_used == pytest.approx(SCALAR_D, abs=1e-9)

    def test_random_families_hold(self):
        for seed in range(15):
            game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.02 * (seed + 1) / 15, seed=seed))
            report = verify_bound(game, pot)
            assert report.holds, f"seed {seed}: max margin {report.margin_max()}"

    def test_report_is_self_contained(self, pair):
        game, pot = pair
        report = verify_bound(game, pot, x0=[1.0])
        doc = report.to_dict()
        for key in ("grid", "error", "bound", "margin", "holds", "delta_star_used", "x0", "ac_nash", "ac_pot"):
            assert key in doc
        assert doc["label"] == game.label

    def test_overflowing_bound_does_not_hold(self):
        game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.05, seed=3))
        with np.errstate(over="ignore"):
            report = verify_bound(game, pot, grid=np.linspace(0, 600, 201))
        assert not np.isfinite(report.bound[-1])
        assert not report.holds

    def test_zero_distance_long_horizon_holds(self):
        game, pot = generate_family(FamilyParams(2, 2, 0.0, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_bound(game, pot, grid=default_grid(600.0))
        assert report.holds
        assert np.all(np.isfinite(report.margin))

    def test_rounding_level_distance_long_horizon_holds(self):
        # delta* rounds to about 6e-17 here, not 0, so the bound overflows
        # while every error stays within the slack
        game, pot = generate_family(FamilyParams(2, 2, 0.0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_bound(game, pot, grid=default_grid(600.0))
        assert report.holds
        assert np.all(np.isfinite(report.margin))

    def test_margin_rules(self):
        margin = _margins(np.array([0.0, 1.0, 2.0, 0.0]), np.array([0.0, 0.0, 4.0, 3.0]))
        assert margin.tolist() == [0.0, np.inf, 0.5, 0.0]

    def test_csv_header_and_width(self, pair):
        game, pot = pair
        report = verify_bound(game, pot, x0=[1.0], grid=np.linspace(0, 1, 11))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "t,error,bound,margin"
        assert len(lines) == 12
        assert all(len(line.split(",")) == 4 for line in lines[1:])


class TestPiecewiseDelta:
    def _trajectories(self, ac_nash, ac_pot, grid, x0=(1.0,)):
        tn = simulate_closed_loop(ac_nash, list(x0), grid)
        tp = simulate_closed_loop(ac_pot, list(x0), grid)
        return tp, tn

    def test_constant_trajectories(self):
        grid = np.linspace(0, 4, 41)
        tp, tn = self._trajectories(np.zeros((1, 1)), np.zeros((1, 1)), grid)
        pw = piecewise_delta(tp, tn, 0.3, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert pw.deltas == pytest.approx([0.3, 0.3, 0.3, 0.3])
        assert pw.monotone_decreasing

    def test_decaying_scalar_strictly_decreasing(self):
        grid = np.linspace(0, 4, 201)
        tp, tn = self._trajectories([[SCALAR_AC_NASH]], [[SCALAR_AC_POT]], grid)
        pw = piecewise_delta(tp, tn, SCALAR_D, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert all(b < a for a, b in zip(pw.deltas, pw.deltas[1:]))
        assert pw.monotone_decreasing

    def test_zero_distance(self):
        grid = np.linspace(0, 2, 21)
        tp, tn = self._trajectories([[-1.0]], [[-1.0]], grid)
        pw = piecewise_delta(tp, tn, 0.0, [(0, 1), (1, 2)])
        assert pw.deltas == [0.0, 0.0]

    def test_partition_errors(self):
        grid = np.linspace(0, 2, 21)
        tp, tn = self._trajectories([[-1.0]], [[-1.0]], grid)
        with pytest.raises(PartitionError):
            piecewise_delta(tp, tn, 0.1, [(0, 1), (1.5, 2)])  # gap
        with pytest.raises(PartitionError):
            piecewise_delta(tp, tn, 0.1, [(0, 1.2), (1.0, 2.0)])  # overlap
        with pytest.raises(PartitionError):
            piecewise_delta(tp, tn, 0.1, [(0, 1)])  # does not cover

    def test_csv_layout(self):
        grid = np.linspace(0, 2, 21)
        tp, tn = self._trajectories([[-1.0]], [[-2.0]], grid)
        pw = piecewise_delta(tp, tn, 0.5, [(0, 1), (1, 2)])
        lines = pw.to_csv().strip().splitlines()
        assert lines[0] == "k,t_start,t_end,delta_k"
        assert lines[1].startswith("1,0,1,")

    def test_generated_families_monotone(self):
        grid = np.linspace(0, 4, 401)
        partition = [(0, 1), (1, 2), (2, 3), (3, 4)]
        for seed in range(10):
            params = FamilyParams(n_per_block=2, n_players=2, delta=0.05, seed=seed)
            game, pot = generate_family(params)
            nash = solve_coupled_riccati(game)
            care = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)
            x0 = family_x0(params)
            tn = simulate_closed_loop(closed_loop_nash(game, nash.P).Ac, x0, grid)
            tp = simulate_closed_loop(closed_loop_potential(game, pot, care.P[0]).Ac, x0, grid)
            dist = delta_star(game, nash.P, pot, care.P[0])
            pw = piecewise_delta(tp, tn, dist.delta_star, partition)
            assert pw.monotone_decreasing, f"seed {seed}: {pw.deltas}"


def test_default_grid():
    g = default_grid()
    assert g.size == 201
    assert g[0] == 0.0
    assert g[-1] == 2.0
