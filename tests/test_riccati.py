import numpy as np
import pytest
import scipy.linalg as sla

from npdg import (
    GameSpec,
    MaxIterationsError,
    NotStabilizableError,
    PlayerSpec,
    SolverError,
    care_residual,
    closed_loop_nash,
    closed_loop_potential,
    coupled_residuals,
    make_potential,
    solve_care,
    solve_coupled_riccati,
)
from npdg.families import FamilyParams, generate_family
from npdg import riccati
from npdg.linalg import is_hurwitz, max_real_eigenvalue, solve_lyapunov

from conftest import random_hurwitz, scalar_pair, single_player_game


def _random_care_problem(rng, n, m):
    # keep the plant at desk scale so an absolute 1e-9 residual is attainable
    a = rng.normal(size=(n, n))
    a *= 2.0 / max(np.linalg.norm(a, 2), 1e-12)
    b = rng.normal(size=(n, m))
    q = np.diag(rng.uniform(0.2, 2.0, size=n))
    r = np.diag(rng.uniform(0.5, 2.0, size=m))
    return a, b, q, r


def _spd(rng, m):
    x = rng.normal(size=(m, m))
    return x @ x.T + m * np.eye(m)


def _kleinman(a, b, q, r):
    """Newton-Kleinman iteration from the zero gain (A Hurwitz) on scipy's Lyapunov solver."""
    s = b @ np.linalg.solve(r, b.T)
    p = sla.solve_continuous_lyapunov(a.T, -q)
    for _ in range(50):
        nxt = sla.solve_continuous_lyapunov((a - s @ p).T, -(q + p @ s @ p))
        done = np.linalg.norm(nxt - p) <= 1e-15 * np.linalg.norm(nxt)
        p = nxt
        if done:
            break
    return p


def _assert_matches_scipy(a, b, q, r):
    ref = sla.solve_continuous_are(a, b, q, r)
    scale = np.linalg.norm(ref, 2)
    # the absolute 1e-9 stopping test cannot be met at large ||P||
    ours = solve_care(a, b, q, r, tol=1e-9 * (1.0 + scale)).P[0]
    assert np.linalg.norm(ours - ref, 2) <= 1e-9 * scale


class TestCareOracle:
    """solve_care against scipy on the hard classes: weak control, stiffness, shifted n=20 families."""

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5])
    @pytest.mark.parametrize("weak_mode", [0.5, -1.0])
    def test_near_uncontrollable(self, eps, weak_mode):
        # the first mode is reached only through eps; unstable (0.5), ||P|| grows to about 1e4
        rng = np.random.default_rng(0)
        a = np.diag([weak_mode, -1.0, -2.0, -3.0]) + np.triu(rng.normal(scale=0.3, size=(4, 4)), 1)
        b = np.array([[eps], [1.0], [0.5], [-0.7]])
        _assert_matches_scipy(a, b, np.eye(4), np.eye(1))

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("normal", [True, False])
    def test_stiff(self, n, normal):
        # eigenvalues from -1e-3 to -1e3
        rng = np.random.default_rng(n)
        lam = -np.logspace(-3.0, 3.0, n)
        if normal:
            v, _ = np.linalg.qr(rng.normal(size=(n, n)))
            a = v @ np.diag(lam) @ v.T
        else:
            a = np.diag(lam) + np.triu(rng.normal(size=(n, n)), 1)
        _assert_matches_scipy(a, rng.normal(size=(n, 2)), np.eye(n), np.eye(2))

    @pytest.mark.parametrize(
        "seed, shift",
        [(seed, shift) for seed in (0, 1, 2, 3, 5) for shift in (1.0, 3.0)]
        + [
            (4, 1.0),
            pytest.param(
                4,
                3.0,
                marks=pytest.mark.xfail(
                    raises=SolverError,
                    strict=True,
                    reason="||P|| about 5.6e7: the Hamiltonian sign kernel gets P within 3e-10 of scipy, but its "
                    "residual (1.5; scipy's 1.4) cannot meet the absolute tol of 0.056 (ROADMAP item 3)",
                ),
            ),
        ],
    )
    def test_shifted_n20_family(self, seed, shift):
        game, pot = generate_family(FamilyParams(n_per_block=10, n_players=2, delta=0.05, seed=seed))
        _assert_matches_scipy(game.A + shift * np.eye(game.n), pot.Bp, pot.Qp, pot.Rp)


class TestCare:
    def test_scalar_unit(self):
        sol = solve_care([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert sol.P[0][0, 0] == pytest.approx(1.0, abs=1e-9)
        assert sol.converged
        assert sol.residual_norms[0] <= 1e-9

    def test_scalar_unstable_plant(self):
        sol = solve_care([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert sol.P[0][0, 0] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-9)

    def test_hurwitz_zero_cost(self):
        rng = np.random.default_rng(0)
        a = random_hurwitz(rng, 3)
        sol = solve_care(a, np.zeros((3, 1)), np.zeros((3, 3)), [[1.0]])
        assert np.max(np.abs(sol.P[0])) <= 1e-12

    def test_residual_examples(self):
        sol = solve_care([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert care_residual([[0.0]], [[1.0]], [[1.0]], [[1.0]], sol.P[0]) <= 1e-9
        rng = np.random.default_rng(1)
        a = random_hurwitz(rng, 2)
        assert care_residual(a, np.zeros((2, 1)), np.zeros((2, 2)), [[1.0]], np.zeros((2, 2))) == 0.0
        assert care_residual([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[1.1]]) == pytest.approx(0.21, abs=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 3))
            a, b, q, r = _random_care_problem(rng, n, m)
            ref = sla.solve_continuous_are(a, b, q, r)
            # absolute residuals scale with ||P||, so tolerate that factor
            scale = 1.0 + float(np.max(np.abs(ref)))
            ours = solve_care(a, b, q, r, tol=1e-9 * scale).P[0]
            assert np.max(np.abs(ours - ref)) <= 1e-7 * scale

    def test_solution_is_stabilizing_and_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a, b, q, r = _random_care_problem(rng, n, 1)
            sol = solve_care(a, b, q, r)
            p = sol.P[0]
            assert np.max(np.abs(p - p.T)) <= 1e-10 * (1 + np.max(np.abs(p)))
            loop = a - b @ np.linalg.solve(r, b.T @ p)
            assert max_real_eigenvalue(loop) < -1e-12
            assert np.min(np.linalg.eigvalsh(p)) >= -1e-9

    def test_not_stabilizable(self):
        with pytest.raises(NotStabilizableError):
            solve_care([[1.0]], [[0.0]], [[1.0]], [[1.0]])

    @pytest.mark.parametrize(
        "a",
        [
            [[0.0, 1.0], [-1.0, 0.0]],  # the second sign step is singular
            sla.block_diag([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 2**0.5], [-(2**0.5), 0.0]]),  # runs out of steps
        ],
    )
    def test_imaginary_axis_hamiltonian_not_stabilizable(self, a):
        # undamped oscillators, no input: the Hamiltonian has eigenvalues on the imaginary axis
        n = len(a)
        with pytest.raises(NotStabilizableError, match="Hamiltonian sign iteration failed"):
            solve_care(a, np.zeros((n, 1)), np.eye(n), [[1.0]])

    def test_unstable_uncontrollable_mode_not_stabilizable(self):
        # the stable invariant subspace of the Hamiltonian is not a graph over the states
        with pytest.raises(NotStabilizableError):
            solve_care(np.diag([1.0, -1.0]), [[0.0], [1.0]], np.eye(2), [[1.0]])

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_family_care_makes_no_lyapunov_or_start_solve(self, monkeypatch, shift):
        # A + I is not Hurwitz: the Newton solver needed a stabilizing start there
        def forbidden(*args, **kwargs):
            raise AssertionError("solve_care called a Lyapunov or start solve")

        monkeypatch.setattr(riccati, "solve_lyapunov", forbidden)
        monkeypatch.setattr(riccati, "_stabilizing_gain", forbidden)
        for seed in range(5):
            game, pot = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.05, seed=seed))
            sol = solve_care(game.A + shift * np.eye(game.n), pot.Bp, pot.Qp, pot.Rp)
            assert sol.residual_norms[0] <= 1e-9
            assert np.array_equal(sol.P[0], sol.P[0].T)

    def test_newton_step_refines_a_badly_scaled_care(self, monkeypatch):
        # Bp scaled by 1e3: the sign solution's residual is above 1e-9 and Newton steps bring it under
        game, pot = generate_family(FamilyParams(n_per_block=3, n_players=2, delta=0.05, seed=0))
        a, b = game.A, 1e3 * pot.Bp
        calls = []
        monkeypatch.setattr(riccati, "solve_lyapunov", lambda f, w: calls.append(w.shape) or solve_lyapunov(f, w))
        sol = solve_care(a, b, pot.Qp, pot.Rp)
        assert 1 <= len(calls) <= riccati.DEFAULT_MAX_ITER_CARE
        ref = sla.solve_continuous_are(a, b, pot.Qp, pot.Rp)
        assert np.linalg.norm(sol.P[0] - ref, 2) <= 1e-9 * np.linalg.norm(ref, 2)

    @pytest.mark.parametrize("delta", [1e-4, 1e-1])
    def test_matches_newton_kleinman_on_criterion_5_families(self, delta):
        combos = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]
        for seed in range(100):
            nb, players = combos[seed % len(combos)]
            game, pot = generate_family(FamilyParams(n_per_block=nb, n_players=players, delta=delta, seed=seed))
            ref = _kleinman(game.A, pot.Bp, pot.Qp, pot.Rp)
            p = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp).P[0]
            assert np.linalg.norm(p - ref) <= 1e-12 * np.linalg.norm(ref), f"seed {seed}"

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_unusable_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            solve_care([[0.0]], [[1.0]], [[1.0]], [[1.0]], tol=tol)


class TestCoupled:
    def test_symmetric_scalar(self, pair):
        game, _ = pair
        sol = solve_coupled_riccati(game)
        expected = 3**-0.5
        for p in sol.P:
            assert p[0, 0] == pytest.approx(expected, abs=1e-8)
        assert all(r <= 1e-9 for r in sol.residual_norms)

    def test_single_player_reduces_to_care(self):
        game = single_player_game(a=0.7, b=1.2, q=2.0, r=0.8)
        coupled = solve_coupled_riccati(game)
        care = solve_care(game.A, game.players[0].B, game.players[0].Q, game.self_R(0))
        assert np.max(np.abs(coupled.P[0] - care.P[0])) <= 1e-10

    def test_block_decoupled_matches_blockwise_care(self):
        combos = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]
        for seed in range(20):
            nb, players = combos[seed % len(combos)]
            game, _ = generate_family(FamilyParams(n_per_block=nb, n_players=players, delta=0.0, seed=seed))
            sol = solve_coupled_riccati(game)
            for i, pl in enumerate(game.players):
                block = slice(i * nb, (i + 1) * nb)
                ref = solve_care(
                    np.asarray(game.A)[block, block],
                    np.asarray(pl.B)[block, :],
                    np.asarray(pl.Q)[block, block],
                    game.self_R(i),
                ).P[0]
                embedded = np.zeros_like(sol.P[i])
                embedded[block, block] = ref
                assert np.max(np.abs(sol.P[i] - embedded)) <= 1e-9, f"seed {seed} player {i}"

    def test_residual_oracle_with_cross_penalties(self):
        players = (
            PlayerSpec(B=[[1.0], [0.0]], Q=np.diag([1.0, 0.5]), R={0: [[1.0]], 1: [[0.4]]}),
            PlayerSpec(B=[[0.2], [1.0]], Q=np.diag([0.5, 2.0]), R={0: [[0.3]], 1: [[1.5]]}),
        )
        game = GameSpec(n=2, A=[[0.0, 0.3], [-0.1, -0.2]], players=players)
        sol = solve_coupled_riccati(game)
        assert max(coupled_residuals(game, sol.P)) <= 1e-9
        loop = closed_loop_nash(game, sol.P)
        assert loop.stable

    def test_residual_oracle_per_player_formula(self):
        # three players with input widths 1, 2, 3, every cross penalty nonzero,
        # and random symmetric P that solve nothing
        rng = np.random.default_rng(11)
        n, widths = 4, (1, 2, 3)
        players = tuple(
            PlayerSpec(
                B=rng.normal(size=(n, m)),
                Q=np.diag(rng.uniform(0.5, 2.0, size=n)),
                R={j: _spd(rng, widths[j]) * (1.0 if j == i else 0.3) for j in range(3)},
            )
            for i, m in enumerate(widths)
        )
        game = GameSpec(n=n, A=rng.normal(size=(n, n)), players=players)
        a = game.A
        for _ in range(5):
            ps = [x + x.T for x in rng.normal(size=(3, n, n))]
            s = [pl.B @ np.linalg.solve(game.self_R(j), pl.B.T) for j, pl in enumerate(players)]
            k = [np.linalg.solve(game.self_R(j), pl.B.T @ ps[j]) for j, pl in enumerate(players)]
            expected = []
            for i, pl in enumerate(players):
                res = pl.Q + a.T @ ps[i] + ps[i] @ a - ps[i] @ s[i] @ ps[i]
                for j in range(3):
                    if j != i:
                        res = res - (ps[i] @ s[j] @ ps[j] + ps[j] @ s[j] @ ps[i] - k[j].T @ game.cross_R(i, j) @ k[j])
                expected.append(np.linalg.norm(res, 2))
            got = coupled_residuals(game, ps)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_residuals_plug_in_values(self, pair):
        game, _ = pair
        zeros = [np.zeros((1, 1)), np.zeros((1, 1))]
        res = coupled_residuals(game, zeros)
        assert res == [pytest.approx(1.0), pytest.approx(1.0)]  # ||Q_i||

    def test_residual_grows_continuously_under_perturbation(self, pair):
        game, _ = pair
        sol = solve_coupled_riccati(game)
        base = max(coupled_residuals(game, sol.P))
        for eps in (1e-6, 1e-5, 1e-4, 1e-3):
            bumped = [sol.P[0] + eps, sol.P[1]]
            res = max(coupled_residuals(game, bumped))
            assert base < res <= 10.0 * eps + base

    def test_solutions_symmetric_and_stabilizing(self):
        for seed in range(5):
            game, _ = generate_family(FamilyParams(n_per_block=2, n_players=2, delta=0.06, seed=seed))
            sol = solve_coupled_riccati(game)
            for p in sol.P:
                assert np.max(np.abs(p - p.T)) <= 1e-10 * (1 + np.max(np.abs(p)))
            loop = closed_loop_nash(game, sol.P)
            assert max_real_eigenvalue(loop.Ac) < -1e-12

    def test_monotone_residual_tail(self, pair):
        game, _ = pair
        sol = solve_coupled_riccati(game)
        tail = sol.residual_history[-5:]
        assert all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(tail, tail[1:]))

    def test_max_iterations(self, pair):
        game, _ = pair
        with pytest.raises(MaxIterationsError):
            solve_coupled_riccati(game, max_iter=1)

    @pytest.mark.parametrize("tol, max_iter", [(0.0, 200), (-1.0, 200), (np.nan, 200), (np.inf, 200), (1e-9, 0), (1e-9, -3)])
    def test_rejects_unusable_budget(self, pair, monkeypatch, tol, max_iter):
        game, _ = pair
        monkeypatch.setattr(riccati, "solve_lyapunov", None)  # rejected before any solve
        with pytest.raises(ValueError, match="tol must be finite and > 0 and max_iter >= 1"):
            solve_coupled_riccati(game, tol=tol, max_iter=max_iter)

    def test_never_returns_non_stabilizing(self):
        game, _ = generate_family(FamilyParams(n_per_block=1, n_players=3, delta=2.0, seed=59))
        try:
            sol = solve_coupled_riccati(game)
        except SolverError:
            return
        assert is_hurwitz(closed_loop_nash(game, sol.P).Ac)

    def test_one_stacked_lyapunov_call_per_sweep(self, monkeypatch):
        game, _ = generate_family(FamilyParams(n_per_block=2, n_players=3, delta=0.1, seed=4))
        assert is_hurwitz(game.A)  # zero initial gains: no Lyapunov solve before the first sweep
        shapes = []
        monkeypatch.setattr(riccati, "solve_lyapunov", lambda f, w: shapes.append(w.shape) or solve_lyapunov(f, w))
        monkeypatch.setattr(riccati, "_newton_care", None)
        sol = solve_coupled_riccati(game)
        assert len(shapes) == len(sol.residual_history)
        assert all(shape == (game.n_players, game.n, game.n) for shape in shapes)


class TestClosedLoops:
    def test_symmetric_scalar_loop(self, pair):
        game, _ = pair
        sol = solve_coupled_riccati(game)
        loop = closed_loop_nash(game, sol.P)
        assert loop.Ac[0, 0] == pytest.approx(-2.0 / np.sqrt(3.0), abs=1e-8)
        assert loop.stable

    def test_single_player_loop(self):
        game = single_player_game()
        sol = solve_coupled_riccati(game)
        loop = closed_loop_nash(game, sol.P)
        assert loop.Ac[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_zero_input_matrix_keeps_plant(self):
        rng = np.random.default_rng(3)
        a = random_hurwitz(rng, 2)
        players = (PlayerSpec(B=np.zeros((2, 1)), Q=np.diag([1.0, 1.0]), R={0: [[1.0]]}),)
        game = GameSpec(n=2, A=a, players=players)
        sol = solve_coupled_riccati(game)
        loop = closed_loop_nash(game, sol.P)
        assert np.allclose(loop.Ac, a)

    def test_loop_reconstructible_from_gains(self, pair):
        game, pot = pair
        sol = solve_coupled_riccati(game)
        loop = closed_loop_nash(game, sol.P)
        rebuilt = np.asarray(game.A).copy()
        for pl, k in zip(game.players, loop.gains):
            rebuilt = rebuilt - pl.B @ k
        assert np.max(np.abs(rebuilt - loop.Ac)) <= 1e-12

    def test_potential_loop(self, pair):
        game, pot = pair
        care = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)
        loop = closed_loop_potential(game, pot, care.P[0])
        assert loop.Ac[0, 0] == pytest.approx(-np.sqrt(2.0), abs=1e-9)
        assert loop.stable

    def test_potential_loop_zero_b(self):
        rng = np.random.default_rng(4)
        a = random_hurwitz(rng, 2)
        players = (PlayerSpec(B=np.zeros((2, 1)), Q=np.eye(2), R={0: [[1.0]]}),)
        game = GameSpec(n=2, A=a, players=players)
        pot = make_potential(game, np.eye(2), [[1.0]])
        care = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)
        loop = closed_loop_potential(game, pot, care.P[0])
        assert np.allclose(loop.Ac, a)

    def test_single_player_self_potential_loops_match(self):
        game = single_player_game(a=0.4, b=1.0, q=1.5, r=0.9)
        pot = make_potential(game, game.players[0].Q, game.self_R(0))
        nash = solve_coupled_riccati(game)
        care = solve_care(game.A, pot.Bp, pot.Qp, pot.Rp)
        nash_loop = closed_loop_nash(game, nash.P)
        pot_loop = closed_loop_potential(game, pot, care.P[0])
        assert np.max(np.abs(nash_loop.Ac - pot_loop.Ac)) <= 1e-9
