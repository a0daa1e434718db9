"""One propagation rule for both time domains.

``simulation._chunk(steps, n_x)`` decides for every window, DT and CT
alike: the exact loop below the measured crossover (``_CROSSOVER`` steps)
and above ``n_x = 16``, the two levels of ``simulation._propagate`` from
the crossover on.  Long DT windows must stay within the bound of the
``_propagate`` docstring of the step-by-step recursion, on systems whose
trajectories neither decay nor grow; shorter ones must stay byte-identical
to it.  A window whose composed chunk maps overflow must fall back to the
exact loop instead of returning a non-finite trajectory.
"""

import math

import numpy as np
import pytest

from lpvssa import LpvSsa, Signal, TimeDomain, simulate_ct, simulate_dt, simulation
from lpvssa.equivalence import behavior_equivalence_empirical
from lpvssa.simulation import (
    _CROSSOVER,
    _chunk,
    _grid,
    _propagate,
    _sample,
    _step_maps,
    transition_matrices_dt,
)

from oracles import dt_reference_simulation, two_level_bound


def near_unit_system(rng, n_x, n_p, n_u=1, n_y=1):
    """DT system whose trajectories neither decay nor grow over thousands of steps.

    ``A(p) = diag(d) + E(p)`` with ``|d_i|`` in ``[0.99, 0.999]`` and
    ``||E(p)|| <= ~1e-3`` on ``[-1, 1]^n_p``: the spectral radius stays
    near 1, and so does that of ``|A(p)|``, which keeps the bound finite.
    """
    d = rng.choice([-1.0, 1.0], n_x) * rng.uniform(0.99, 0.999, n_x)
    A = [np.diag(d)] + [
        1e-3 / n_p * rng.standard_normal((n_x, n_x)) / math.sqrt(n_x) for _ in range(n_p)
    ]
    B = [rng.standard_normal((n_x, n_u)) for _ in range(n_p + 1)]
    C = [rng.standard_normal((n_y, n_x)) for _ in range(n_p + 1)]
    D = [rng.standard_normal((n_y, n_u)) for _ in range(n_p + 1)]
    return LpvSsa.from_matrices(A, B, C, D, ([-1.0] * n_p, [1.0] * n_p), "dt")


def _plain_dt_loop(sys, x0, u_vals, p_vals, n_steps):
    """States of ``x = A(p) x + B(p) u``, one step at a time, and the maps ``(M, c)``."""
    xs, M, c = [np.asarray(x0, dtype=float)], [], []
    for t in range(n_steps):
        M.append(sys.A(p_vals[t]))
        c.append(sys.B(p_vals[t]) @ u_vals[t])
        xs.append(M[-1] @ xs[-1] + c[-1])
    return np.array(xs), np.array(M), np.array(c)


def _dt_window(rng, n_x, n_steps):
    sys = near_unit_system(rng, n_x, 2)
    u_vals = rng.standard_normal((n_steps + 1, sys.n_u))
    p_vals = rng.uniform(-1, 1, (n_steps + 1, sys.n_p))
    return sys, rng.standard_normal(n_x), u_vals, p_vals


@pytest.fixture
def compose_calls(monkeypatch):
    """Number of windows composed in two levels, counted at ``simulation._compose``."""
    calls = []
    original = simulation._compose

    def spy(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(simulation, "_compose", spy)
    return calls


class TestTheRule:
    def test_chunk_length(self):
        assert 50 <= _CROSSOVER <= 100
        for n_x in (1, 2, 8, 16):
            assert _chunk(_CROSSOVER - 1, n_x) == 1
            assert _chunk(_CROSSOVER, n_x) == math.isqrt(_CROSSOVER // 2) > 1
            assert _chunk(4000, n_x) == 44
        assert _chunk(4000, 17) == 1
        assert _chunk(0, 4) == _chunk(1, 4) == 1

    @pytest.mark.parametrize("domain", [TimeDomain.DT, TimeDomain.CT])
    def test_both_domains_compose_from_the_crossover_on(self, domain, compose_calls):
        rng = np.random.default_rng(20)
        A = [0.5 * np.eye(2), 0.1 * rng.standard_normal((2, 2))]
        B, C, D = [np.ones((2, 1))] * 2, [np.ones((1, 2))] * 2, [np.zeros((1, 1))] * 2
        sys = LpvSsa.from_matrices(A, B, C, D, ([-1.0], [1.0]), domain)
        for steps, composed in ((_CROSSOVER - 1, False), (_CROSSOVER, True)):
            compose_calls.clear()
            if domain == TimeDomain.DT:
                p, u = Signal.dt_constant([0.3], steps), Signal.dt_constant([1.0], steps)
                simulate_dt(sys, [1.0, 0.0], u, p, steps)
                transition_matrices_dt(sys, p, steps)
            else:  # a constant signal adds no breakpoint: ``steps`` uniform steps
                p, u = Signal.ct_constant([0.3], 1.0), Signal.ct_constant([1.0], 1.0)
                simulate_ct(sys, [1.0, 0.0], u, p, 1.0, 1.0 / steps)
            assert bool(compose_calls) == composed, (steps, compose_calls)


class TestComposedDt:
    @pytest.mark.parametrize("n_x", [2, 5, 8])
    def test_simulate_dt_at_4000_steps_is_within_the_bound(self, n_x, compose_calls):
        rng = np.random.default_rng(30 + n_x)
        sys, x0, u_vals, p_vals = _dt_window(rng, n_x, 4000)
        traj = simulate_dt(sys, x0, Signal.dt(u_vals), Signal.dt(p_vals), 4000)
        assert compose_calls == [44]
        xs, M, c = _plain_dt_loop(sys, x0, u_vals, p_vals, 4000)
        assert np.max(np.abs(xs[-1])) > 1.0  # the state neither decays nor overflows
        assert np.all(np.abs(traj.x.values - xs) <= two_level_bound(M, x0, c))

    @pytest.mark.parametrize("n_x", [2, 5, 8])
    def test_transition_matrices_dt_at_600_steps_are_within_the_bound(self, n_x):
        rng = np.random.default_rng(40 + n_x)
        sys, _, _, p_vals = _dt_window(rng, n_x, 600)
        Phi = transition_matrices_dt(sys, Signal.dt(p_vals), 600)
        products, M, _ = _plain_dt_loop(sys, np.eye(n_x), np.zeros((601, 1)), p_vals, 600)
        assert np.max(np.abs(products[-1])) > 0.1
        assert np.all(np.abs(Phi - products) <= two_level_bound(M, np.eye(n_x), None))


class TestBelowTheCrossover:
    @pytest.mark.parametrize("n_x", [2, 5, 8])
    def test_simulate_dt_is_the_step_by_step_loop(self, n_x, compose_calls):
        rng = np.random.default_rng(50 + n_x)
        N = _CROSSOVER - 1
        sys, x0, u_vals, p_vals = _dt_window(rng, n_x, N)
        traj = simulate_dt(sys, x0, Signal.dt(u_vals), Signal.dt(p_vals), N)
        assert compose_calls == []
        assert np.array_equal(traj.x.values, _plain_dt_loop(sys, x0, u_vals, p_vals, N)[0])
        assert np.array_equal(traj.y.values, dt_reference_simulation(sys, x0, u_vals, p_vals, N))

    def test_dt_equivalence_residuals_are_those_of_the_exact_loop(self, monkeypatch):
        rng = np.random.default_rng(60)
        sys1 = near_unit_system(rng, 4, 2)
        sys2 = near_unit_system(rng, 3, 2)

        def residuals():
            return behavior_equivalence_empirical(sys1, sys2, trials=6, horizon=20, seed=1).residuals

        got = residuals()
        monkeypatch.setattr(simulation, "_chunk", lambda steps, n_x: 1)
        want = residuals()
        assert got.tobytes() == want.tobytes()


def _diverging_system(domain):
    """``A = diag(1e40, a)`` (``a = -0.5`` in CT, ``0.5`` in DT), ``C = [1 1]``, no input.

    From ``x0 = (0, 1)`` the first state stays exactly 0 and the output is
    ``e^{-t/2}`` (CT) or ``0.5**k`` (DT), while the product of a chunk's
    maps overflows.
    """
    a = -0.5 if domain == TimeDomain.CT else 0.5
    Z = np.zeros((2, 2))
    B, D = [np.zeros((2, 1))] * 2, [np.zeros((1, 1))] * 2
    C = [np.array([[1.0, 1.0]]), np.zeros((1, 2))]
    return LpvSsa.from_matrices([np.diag([1e40, a]), Z], B, C, D, ([-1.0], [1.0]), domain)


@pytest.mark.filterwarnings("error")
class TestOverflowRunsTheExactLoop:
    def test_ct_simulation(self):
        sys = _diverging_system(TimeDomain.CT)
        p, u = Signal.ct_constant([0.3], 10.0), Signal.ct_constant([0.5], 10.0)
        x0 = np.array([0.0, 1.0])
        traj = simulate_ct(sys, x0, u, p, 10.0, 0.01)
        M, c = _step_maps(sys, _sample(p, _grid(TimeDomain.CT, 10.0, 0.01, p, u), u))
        assert _chunk(M.shape[0], 2) > 1
        exact = _propagate(M, x0, c, 1)
        assert np.all(np.isfinite(traj.x.values))
        assert np.all(np.abs(traj.x.values - exact) <= two_level_bound(M, x0, c))
        assert traj.y.values[-1, 0] == pytest.approx(math.exp(-5.0), rel=1e-9)

    def test_dt_simulation(self):
        sys = _diverging_system(TimeDomain.DT)
        N = max(200, _CROSSOVER)
        p, u = Signal.dt_constant([0.3], N), Signal.dt_constant([0.5], N)
        x0 = np.array([0.0, 1.0])
        traj = simulate_dt(sys, x0, u, p, N)
        xs, M, c = _plain_dt_loop(sys, x0, u.values, p.values, N)
        assert np.all(np.isfinite(traj.x.values))
        assert np.all(np.abs(traj.x.values - xs) <= two_level_bound(M, x0, c))
        assert traj.y.values[-1, 0] == 0.5**N

    def test_only_the_batch_members_hit_take_the_exact_loop(self):
        K, L = 200, 10
        M = np.empty((K, 3, 2, 2))
        M[:, 0] = np.diag([0.9, 0.5])
        M[:, 1] = np.diag([1e40, 0.5])
        M[:, 2] = [[0.6, 0.3], [-0.2, 0.7]]
        X0 = np.array([[[1.0], [1.0]], [[0.0], [1.0]], [[1.0], [-1.0]]])
        X = _propagate(M, X0, None, L)
        assert np.all(np.isfinite(X))
        assert np.array_equal(X[:, 1], _propagate(M[:, 1], X0[1], None, 1))
        for b in (0, 2):
            assert np.array_equal(X[:, b], _propagate(M[:, b], X0[b], None, L))


class TestBatchedVectorStates:
    """A batch of vector states ``(B, n)`` under maps ``(K, B, n, n)``."""

    @pytest.mark.parametrize("steps", [20, 301], ids=["exact-loop", "two-level"])
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    def test_each_member_is_its_own_propagation(self, steps, forced):
        rng = np.random.default_rng(steps)
        n, B = 3, 4
        M = 0.5 * rng.standard_normal((steps, B, n, n))
        X0 = rng.standard_normal((B, n))
        c = rng.standard_normal((steps, B, n)) if forced else None
        L = _chunk(steps, n)
        if steps < _CROSSOVER:
            assert L == 1
        else:
            assert L > 1 and steps % L  # a tail after the chunks runs the exact loop
        X = _propagate(M, X0, c, L)
        assert X.shape == (steps + 1, B, n)
        for b in range(B):
            own = _propagate(M[:, b], X0[b], None if c is None else c[:, b], L)
            assert np.array_equal(X[:, b], own)
