"""Bit-identity of the two per-step kernels across long horizons.

``AffineMatrixFunction.at_points`` evaluates in blocks of points and
``simulation._propagate`` writes each step into its row of the result;
both must round exactly like the one-point evaluation and the plain
``X = M_k @ X + c_k`` loop, also across block boundaries, which the short
horizons elsewhere never reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpvssa import Signal, simulate_dt
from lpvssa.core import _BLOCK_DOUBLES, AffineMatrixFunction
from lpvssa.simulation import _propagate, transition_matrices_dt

from conftest import random_system
from oracles import dt_reference_simulation, two_level_bound


def _block(n_x):
    return max(1, _BLOCK_DOUBLES // max(1, n_x * n_x))


def _random_amf(rng, n_x, n_p):
    return AffineMatrixFunction([rng.standard_normal((n_x, n_x)) for _ in range(n_p + 1)])


def _assert_pointwise(f, P):
    batch = f.at_points(P)
    assert batch.shape == (P.shape[0],) + f.shape
    for k in range(P.shape[0]):
        assert np.array_equal(batch[k], f(P[k]))


class TestAtPointsBlocks:
    @pytest.mark.parametrize("n_x", [0, 1, 8, 12])
    @pytest.mark.parametrize("n_p", [1, 2, 3])
    def test_block_edges_match_pointwise(self, n_x, n_p):
        rng = np.random.default_rng(100 + 10 * n_x + n_p)
        f = _random_amf(rng, n_x, n_p)
        b = _block(n_x)
        for K in sorted({0, 1, b - 1, b, b + 1, 4000}):
            _assert_pointwise(f, rng.uniform(-1, 1, (K, n_p)))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_x=st.sampled_from([0, 1, 2, 8, 12]),
        n_p=st.integers(1, 3),
        extra=st.integers(-2, 2),
        blocks=st.integers(0, 2),
    )
    def test_property_matches_pointwise(self, seed, n_x, n_p, extra, blocks):
        rng = np.random.default_rng(seed)
        f = _random_amf(rng, n_x, n_p)
        K = max(0, blocks * _block(n_x) + extra)
        _assert_pointwise(f, rng.uniform(-1, 1, (K, n_p)))

    def test_rectangular_shapes_match_pointwise(self):
        rng = np.random.default_rng(101)
        for shape in [(3, 1), (1, 5), (4, 0)]:
            f = AffineMatrixFunction([rng.standard_normal(shape) for _ in range(3)])
            _assert_pointwise(f, rng.uniform(-1, 1, (_block(1) + 7, 2)))


def _plain_loop(M, X0, c=None):
    X = np.array(X0, dtype=float)
    out = [X]
    for k in range(M.shape[0]):
        X = M[k] @ X if c is None else M[k] @ X + c[k]
        out.append(X)
    return np.array(out).reshape((M.shape[0] + 1,) + X.shape)


class TestPropagate:
    @pytest.mark.parametrize("n_x", [0, 1, 3, 8])
    @pytest.mark.parametrize("K", [0, 1, 57])
    def test_matches_plain_loop(self, n_x, K):
        rng = np.random.default_rng(200 + 10 * n_x + K)
        M = 0.3 * rng.standard_normal((K, n_x, n_x))
        c = rng.standard_normal((K, n_x))
        x0 = rng.standard_normal(n_x)
        C = rng.standard_normal((K, n_x, n_x))
        for X0, cc in [(x0, c), (x0, None), (np.eye(n_x), None), (np.eye(n_x), C)]:
            got = _propagate(M, X0, cc)
            want = _plain_loop(M, X0, cc)
            assert got.shape == want.shape == (K + 1,) + np.shape(X0)
            assert np.array_equal(got, want)

    def test_does_not_write_into_its_inputs(self):
        rng = np.random.default_rng(210)
        M, c, x0 = rng.standard_normal((5, 2, 2)), rng.standard_normal((5, 2)), np.ones(2)
        before = (M.copy(), c.copy(), x0.copy())
        _propagate(M, x0, c)
        assert all(np.array_equal(a, b) for a, b in zip((M, c, x0), before))


class TestLongHorizonDt:
    def test_simulate_dt_equals_reference_loop_at_4000_steps(self):
        rng = np.random.default_rng(300)
        sys = random_system(rng, n_x=8, n_p=2)
        N = 4000
        u_vals = rng.standard_normal((N + 1, sys.n_u))
        p_vals = rng.uniform(-1, 1, (N + 1, sys.n_p))
        x0 = rng.standard_normal(sys.n_x)
        traj = simulate_dt(sys, x0, Signal.dt(u_vals), Signal.dt(p_vals), N)
        assert np.array_equal(traj.y.values, dt_reference_simulation(sys, x0, u_vals, p_vals, N))

    def test_transition_matrices_dt_equal_products_at_600_steps(self):
        rng = np.random.default_rng(301)
        sys = random_system(rng, n_x=8, n_p=3)
        N = 600
        p = Signal.dt(rng.uniform(-1, 1, (N + 1, 3)))
        Phi = transition_matrices_dt(sys, p, N)
        X, M, products = np.eye(8), [], [np.eye(8)]
        for t in range(N):
            M.append(sys.A(p.value_at(t)))
            X = M[-1] @ X
            products.append(X)
        # 600 steps are past the crossover of _chunk: the two levels, within their bound
        bound = two_level_bound(np.array(M), np.eye(8), None)
        assert np.all(np.abs(Phi - np.array(products)) <= bound)
