import numpy as np
import pytest

from npdg import (
    BlockMismatchError,
    NotNormalizedError,
    PotentialSpec,
    closed_loop_matrix_error,
    closed_loop_nash,
    closed_loop_potential,
    dd_trajectory,
    delta_star,
    deltaK_bound_chain,
    is_exact_potential,
    make_potential,
    normalize_potential_scaling,
    rescale_player_cost,
    rescale_potential_cost,
    simulate_closed_loop,
    solve_care,
    solve_coupled_riccati,
)
from npdg.families import FamilyParams, generate_family
from npdg.linalg import frobenius_norm, spectral_norm

from conftest import SCALAR_AC_NASH, SCALAR_AC_POT, SCALAR_D, scalar_pair, single_player_game


def solved_pair(game, pot, **kw):
    nash = solve_coupled_riccati(game, **kw)
    care = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)
    return nash.P, care.P[0]


class TestDeltaStar:
    def test_self_potential_single_player(self):
        game = single_player_game(a=0.3, b=1.1, q=1.4, r=0.7)
        pot = make_potential(game, game.players[0].Q, game.self_R(0))
        ps, pp = solved_pair(game, pot)
        report = delta_star(game, ps, pot, pp)
        assert report.delta_star <= 1e-10
        assert report.is_exact

    def test_identical_interest_scalar_pair(self, pair):
        game, pot = pair
        ps, pp = solved_pair(game, pot)
        report = delta_star(game, ps, pot, pp)
        assert report.per_player[0] == pytest.approx(SCALAR_D, abs=1e-9)
        assert report.per_player[1] == pytest.approx(SCALAR_D, abs=1e-9)
        assert report.delta_star == pytest.approx(SCALAR_D, abs=1e-9)
        assert not report.is_exact

    def test_decoupled_family_is_exact(self):
        game, pot = generate_family(FamilyParams(n_per_block=2, n_players=3, delta=0.0, seed=5))
        ps, pp = solved_pair(game, pot)
        report = delta_star(game, ps, pot, pp)
        assert report.delta_star <= 1e-8
        assert report.is_exact

    def test_block_mismatch(self, pair):
        game, pot = pair
        ps, pp = solved_pair(game, pot)
        bad = PotentialSpec(Bp=pot.Bp, Qp=pot.Qp, Rp=pot.Rp, blocks=(2,))
        with pytest.raises(BlockMismatchError):
            delta_star(game, ps, bad, pp)

    def test_max_of_per_player(self, pair):
        game, pot = pair
        ps, pp = solved_pair(game, pot)
        report = delta_star(game, ps, pot, pp)
        assert report.delta_star == max(report.per_player)

    def test_scaling_invariance(self, pair):
        game, pot = pair
        ps, pp = solved_pair(game, pot)
        base = delta_star(game, ps, pot, pp)
        for kappa_player, kappa_pot in ((0.1, 3.0), (100.0, 0.1), (3.0, 3.0)):
            g2 = rescale_player_cost(game, 0, kappa_player)
            p2 = rescale_potential_cost(pot, kappa_pot)
            ps2, pp2 = solved_pair(g2, p2)
            scaled = delta_star(g2, ps2, p2, pp2)
            for a, b in zip(base.per_player, scaled.per_player):
                assert abs(a - b) <= 1e-8


class TestExactness:
    def test_single_player_self_potential(self):
        game = single_player_game()
        pot = make_potential(game, game.players[0].Q, game.self_R(0))
        assert is_exact_potential(game, pot)

    def test_scalar_pair_not_exact(self, pair):
        game, pot = pair
        assert not is_exact_potential(game, pot)
        assert not is_exact_potential(game, pot, damping=0.7)

    def test_decoupled_family_exact(self):
        game, pot = generate_family(FamilyParams(n_per_block=1, n_players=2, delta=0.0, seed=9))
        assert is_exact_potential(game, pot)
        assert is_exact_potential(game, pot, max_iter=300, damping=0.7)

    def test_zero_law(self):
        # vanishing distance forces coinciding closed loops and trajectories
        game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.0, seed=21))
        nash = solve_coupled_riccati(game)
        care = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)
        report = delta_star(game, nash.P, pot, care.P[0])
        assert report.delta_star <= 1e-8
        ln = closed_loop_nash(game, nash.P)
        lp = closed_loop_potential(game, pot, care.P[0])
        assert np.max(np.abs(ln.Ac - lp.Ac)) <= 1e-8
        grid = np.linspace(0.0, 5.0, 101)
        x0 = np.full(game.n, 1.0 / np.sqrt(game.n))
        tn = simulate_closed_loop(ln.Ac, x0, grid)
        tp = simulate_closed_loop(lp.Ac, x0, grid)
        assert np.max(np.linalg.norm(tn.states - tp.states, axis=1)) <= 1e-6


class TestDdTrajectory:
    def test_exact_pair_zero_series(self):
        game, pot = generate_family(FamilyParams(n_per_block=1, n_players=2, delta=0.0, seed=2))
        ps, pp = solved_pair(game, pot)
        grid = np.linspace(0.0, 2.0, 51)
        x0 = np.full(game.n, 1.0 / np.sqrt(game.n))
        tn = simulate_closed_loop(closed_loop_nash(game, ps).Ac, x0, grid)
        tp = simulate_closed_loop(closed_loop_potential(game, pot, pp).Ac, x0, grid)
        for series in dd_trajectory(game, ps, pot, pp, tp, tn):
            assert np.max(series) <= 1e-9

    def test_zero_state_gives_zero_series(self, pair):
        game, pot = pair
        ps, pp = solved_pair(game, pot)
        grid = np.linspace(0.0, 1.0, 5)
        tn = simulate_closed_loop(closed_loop_nash(game, ps).Ac, [0.0], grid)
        tp = simulate_closed_loop(closed_loop_potential(game, pot, pp).Ac, [0.0], grid)
        for series in dd_trajectory(game, ps, pot, pp, tp, tn):
            assert np.all(series == 0.0)

    def test_scalar_pair_at_t0(self, pair):
        game, pot = pair
        ps, pp = solved_pair(game, pot)
        grid = np.linspace(0.0, 1.0, 11)
        tn = simulate_closed_loop(closed_loop_nash(game, ps).Ac, [1.0], grid)
        tp = simulate_closed_loop(closed_loop_potential(game, pot, pp).Ac, [1.0], grid)
        series = dd_trajectory(game, ps, pot, pp, tp, tn)
        for s in series:
            assert s[0] == pytest.approx(SCALAR_D, abs=1e-9)

    def test_bounded_by_distance_at_t0(self):
        game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.08, seed=3))
        ps, pp = solved_pair(game, pot)
        report = delta_star(game, ps, pot, pp)
        grid = np.linspace(0.0, 1.0, 5)
        x0 = np.full(game.n, 1.0 / np.sqrt(game.n))
        tn = simulate_closed_loop(closed_loop_nash(game, ps).Ac, x0, grid)
        tp = simulate_closed_loop(closed_loop_potential(game, pot, pp).Ac, x0, grid)
        series = dd_trajectory(game, ps, pot, pp, tp, tn)
        for d_i, s in zip(report.per_player, series):
            assert s[0] <= d_i * np.linalg.norm(x0) + 1e-12

    def test_grid_mismatch(self, pair):
        from npdg import GridMismatchError

        game, pot = pair
        ps, pp = solved_pair(game, pot)
        t1 = simulate_closed_loop([[-1.0]], [1.0], np.linspace(0, 1, 5))
        t2 = simulate_closed_loop([[-1.0]], [1.0], np.linspace(0, 1, 7))
        with pytest.raises(GridMismatchError):
            dd_trajectory(game, ps, pot, pp, t1, t2)


class TestClosedLoopMatrixError:
    def test_identical(self):
        rep = closed_loop_matrix_error(np.eye(2), np.eye(2))
        assert rep.norm2 == 0.0
        assert np.array_equal(rep.deltaK, np.zeros((2, 2)))

    def test_scalar_pair_value(self):
        rep = closed_loop_matrix_error([[SCALAR_AC_NASH]], [[SCALAR_AC_POT]])
        assert rep.norm2 == pytest.approx(0.25951, abs=1e-4)
        assert rep.deltaK[0, 0] == pytest.approx(SCALAR_AC_NASH - SCALAR_AC_POT, abs=1e-15)

    def test_swap_preserves_norm(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 3, 3))
        assert closed_loop_matrix_error(a, b).norm2 == pytest.approx(closed_loop_matrix_error(b, a).norm2, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            closed_loop_matrix_error(np.eye(2), np.eye(3))


class TestBoundChain:
    def test_requires_normalization(self, pair):
        game, pot = pair  # Rp = I2 has spectral norm exactly 1
        ps, pp = solved_pair(game, pot)
        with pytest.raises(NotNormalizedError):
            deltaK_bound_chain(game, pot, ps, pp)

    def test_scalar_pair_chain(self, pair):
        game, pot = pair
        pot_n, kappa = normalize_potential_scaling(pot)
        nash = solve_coupled_riccati(game)
        care = solve_care(game.A, pot_n.Bp, pot_n.Qp, pot_n.Rp)
        rep = deltaK_bound_chain(game, pot_n, nash.P, care.P[0])
        chain = rep.bound_chain
        assert chain.chain_value == pytest.approx(np.sqrt(2.0) * 2.0 * SCALAR_D, abs=1e-6)
        assert rep.norm2 == pytest.approx(0.25951, abs=1e-4)
        assert rep.norm2 <= chain.chain_value
        assert chain.f_tilde_norm2 <= chain.f_tilde_frobenius
        assert chain.scaling_condition

    def test_exact_family_chain_is_zero(self):
        game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.0, seed=8))
        pot_n, _ = normalize_potential_scaling(pot)
        nash = solve_coupled_riccati(game)
        care = solve_care(game.A, pot_n.Bp, pot_n.Qp, pot_n.Rp)
        rep = deltaK_bound_chain(game, pot_n, nash.P, care.P[0])
        assert rep.bound_chain.chain_value <= 1e-8
        assert rep.norm2 <= 1e-8

    def test_chain_dominates_on_families(self):
        for seed in range(10):
            game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.05, seed=seed))
            pot_n, _ = normalize_potential_scaling(pot)
            nash = solve_coupled_riccati(game)
            care = solve_care(game.A, pot_n.Bp, pot_n.Qp, pot_n.Rp)
            rep = deltaK_bound_chain(game, pot_n, nash.P, care.P[0])
            assert rep.norm2 <= rep.bound_chain.chain_value + 1e-12, f"seed {seed}"
            assert rep.bound_chain.f_tilde_norm2 <= rep.bound_chain.f_tilde_frobenius

    def test_gap_stack_norm_inequality_random(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            m = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
            assert spectral_norm(m) <= frobenius_norm(m)
