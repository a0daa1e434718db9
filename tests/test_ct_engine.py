"""The CT engine: RK4 maps built per distinct step, and the two-level propagation.

``simulation.rk4_on_mesh`` builds one map per bitwise-distinct row of (step,
stage values) and gathers; every map must equal, byte for byte, the map the
same formulas give on whole-horizon arrays (``oracles.rk4_maps_full_horizon``).
``simulation._propagate`` with ``chunk = L > 1`` composes the steps in two
levels; it must stay within the bound stated in its docstring of the exact
loop (``chunk = 1``), which itself stays equal to the plain loop.  Over long
horizons the CT simulation must still match the per-stage RK4 oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvssa import Signal, TimeDomain, simulate_ct
from lpvssa.core import AffineMatrixFunction
from lpvssa.signals import PIECEWISE_CONSTANT, PIECEWISE_LINEAR
from lpvssa.simulation import (
    _distinct_steps,
    _grid,
    _propagate,
    _sample,
    rk4_on_mesh,
    transition_matrices_ct,
)

from conftest import random_system
from oracles import (
    ct_reference_simulation,
    ct_reference_transition,
    rk4_maps_full_horizon,
    two_level_bound,
)
from test_inplace_kernels import _plain_loop

MIXED = "mixed"  # batch members alternate between the two rules


class TestTwoLevelPropagate:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_x=st.integers(0, 8),
        shape=st.sampled_from(["vector", "matrix", "batched"]),
        B=st.integers(1, 8),
        L=st.integers(2, 24),
        K_kind=st.sampled_from(["0", "1", "L-1", "L", "2L-1", "off", "300"]),
        forced=st.booleans(),
    )
    def test_within_the_bound_of_the_exact_loop(self, seed, n_x, shape, B, L, K_kind, forced):
        rng = np.random.default_rng(seed)
        K = {"0": 0, "1": 1, "L-1": L - 1, "L": L, "2L-1": 2 * L - 1,
             "off": 3 * L + L // 2 + 1, "300": 300}[K_kind]
        batch = (B,) if shape == "batched" else ()
        M = rng.standard_normal((K,) + batch + (n_x, n_x)) / math.sqrt(max(n_x, 1))
        if shape == "vector":
            X0 = rng.standard_normal(n_x)
        else:
            X0 = rng.standard_normal(batch + (n_x, int(rng.integers(1, n_x + 2))))
        c = rng.standard_normal((K,) + X0.shape) if forced else None
        exact = _propagate(M, X0, c, 1)
        if shape != "batched":
            assert np.array_equal(exact, _plain_loop(M, X0, c))
        chunked = _propagate(M, X0, c, L)
        assert chunked.shape == exact.shape == (K + 1,) + X0.shape
        assert np.all(np.abs(chunked - exact) <= two_level_bound(M, X0, c))

    def test_batch_members_round_as_their_own_propagation(self):
        rng = np.random.default_rng(400)
        K, B, n, L = 137, 5, 4, 9
        M = rng.standard_normal((K, B, n, n)) / 2.0
        X0 = np.broadcast_to(np.eye(n, n + 1), (B, n, n + 1))
        c = np.zeros((K, B, n, n + 1))
        c[..., n] = rng.standard_normal((K, B, n))
        X = _propagate(M, X0, c, L)
        for b in range(B):
            assert np.array_equal(X[:, b], _propagate(M[:, b], X0[b], c[:, b], L))

    def test_does_not_write_into_its_inputs(self):
        rng = np.random.default_rng(401)
        M, c, x0 = rng.standard_normal((50, 3, 3)), rng.standard_normal((50, 3)), np.ones(3)
        before = (M.copy(), c.copy(), x0.copy())
        _propagate(M, x0, c, 7)
        assert all(np.array_equal(a, b) for a, b in zip((M, c, x0), before))


def _signals(rng, sys, rule, size, t_end=2.0, pieces=7, signed_zero=False):
    """``size`` schedulings and inputs sharing breakpoints off the step grid."""
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, t_end, pieces - 1))])
    rules = [rule] * size
    if rule == MIXED:
        rules = [(PIECEWISE_CONSTANT, PIECEWISE_LINEAR)[b % 2] for b in range(size)]
    ps, us = [], []
    for r in rules:
        t = times if r == PIECEWISE_CONSTANT else np.append(times, t_end)
        p_vals = rng.uniform(-1, 1, (t.size, sys.n_p))
        if signed_zero:  # one segment at -0.0, the next at 0.0
            p_vals[1, 0], p_vals[2, 0] = -0.0, 0.0
        ps.append(Signal.ct(t, p_vals, r))
        us.append(Signal.ct(t, rng.standard_normal((t.size, sys.n_u)), r))
    return (tuple(ps), tuple(us)) if size > 1 else (ps[0], us[0])


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDistinctStepMaps:
    @pytest.mark.parametrize("rule", [PIECEWISE_CONSTANT, PIECEWISE_LINEAR, MIXED])
    @pytest.mark.parametrize("size", [1, 4])
    @pytest.mark.parametrize("n_x", [0, 1, 3, 8])
    def test_maps_equal_the_full_horizon_build(self, rule, size, n_x):
        rng = np.random.default_rng(500 + 10 * n_x + size)
        sys = random_system(rng, n_x=n_x, n_p=2, n_u=2, n_y=1, domain=TimeDomain.CT)
        # A(p)[0, 0] = -0.0 + p_1: its sign bit follows a zero p_1
        A = [a.copy() for a in sys.A.coeffs]
        if n_x:
            A[0][0, 0], A[1][0, 0], A[2][0, 0] = -0.0, 1.0, 0.0
        sys = type(sys).from_matrices(A, sys.B.coeffs, sys.C.coeffs, sys.D.coeffs,
                                      sys.region, sys.domain)
        p, u = _signals(rng, sys, rule, size, signed_zero=True)
        s = _sample(p, _grid(TimeDomain.CT, 2.0, 0.01, p, u), u)
        for us in (s.u_stages, None):
            M, c = rk4_on_mesh(sys, s.p_stages, s.times, us)
            M_ref, c_ref = rk4_maps_full_horizon(sys, s.p_stages, s.times, us)
            assert _same_bytes(M, M_ref)
            assert (c is None and c_ref is None) or _same_bytes(c, c_ref)

    def test_signed_zero_steps_are_distinct(self):
        values = np.array([[0.0, -0.0, 0.0, 1.0], [0.0, -0.0, -0.0, 1.0]])
        first, label = _distinct_steps(values)
        assert first.tolist() == [0, 1, 2, 3]
        assert label.tolist() == [0, 1, 2, 3]

    def test_labels_reproduce_every_step(self):
        rng = np.random.default_rng(510)
        pool = rng.standard_normal((3, 6))
        values = pool[:, rng.integers(0, 6, 200)]
        first, label = _distinct_steps(values)
        assert first.size == np.unique(values, axis=1).shape[1] == 6
        assert np.all(np.diff(first) > 0) and first[0] == 0
        assert _same_bytes(values[:, first][:, label], values)

    def test_piecewise_constant_window_evaluates_its_distinct_rows(self, monkeypatch):
        rng = np.random.default_rng(520)
        sys = random_system(rng, n_x=8, n_p=2, n_u=1, n_y=1, domain=TimeDomain.CT)
        times = np.linspace(0.0, 10.0, 20, endpoint=False)
        p = Signal.ct(times, rng.uniform(-1, 1, (20, 2)))
        u = Signal.ct(times, rng.standard_normal((20, 1)))
        s = _sample(p, _grid(TimeDomain.CT, 10.0, 1e-2, p, u), u)
        steps = s.times.size - 1
        rows = np.column_stack([np.diff(s.times), s.p_stages[1], s.u_stages[1]])
        distinct = np.unique(rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel()).size
        assert steps == 1000 and distinct <= 60
        points = {}
        at_points = AffineMatrixFunction.at_points

        def counting(self, P):
            points[id(self)] = points.get(id(self), 0) + np.shape(P)[0]
            return at_points(self, P)

        monkeypatch.setattr(AffineMatrixFunction, "at_points", counting)
        rk4_on_mesh(sys, s.p_stages, s.times, s.u_stages)
        assert points[id(sys.A)] <= distinct and points[id(sys.B)] <= distinct


RTOL = 1e-12


def _close(got, ref):
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(got - ref)))
    assert err <= RTOL * scale, f"max error {err:.3e} vs scale {scale:.3e}"


@pytest.mark.parametrize("rule", [PIECEWISE_CONSTANT, PIECEWISE_LINEAR])
class TestLongHorizonCt:
    """4000 RK4 steps: the two-level error does not grow with the horizon."""

    T_END, STEP = 4.0, 1e-3

    def _inputs(self, rule, seed):
        rng = np.random.default_rng(seed)
        sys = random_system(rng, n_x=6, n_p=2, n_u=1, n_y=2, domain=TimeDomain.CT)
        p, u = _signals(rng, sys, rule, 1, t_end=self.T_END, pieces=12)
        return rng, sys, p, u

    def test_simulate_ct(self, rule):
        rng, sys, p, u = self._inputs(rule, 600)
        x0 = rng.standard_normal(sys.n_x)
        traj = simulate_ct(sys, x0, u, p, self.T_END, self.STEP)
        assert traj.times.size - 1 >= 4000
        xs, ys = ct_reference_simulation(sys, x0, u, p, traj.times)
        _close(traj.x.values, xs)
        _close(traj.y.values, ys)

    def test_transition_matrices_ct(self, rule):
        _, sys, p, _ = self._inputs(rule, 601)
        mesh, Phi = transition_matrices_ct(sys, p, self.T_END, self.STEP)
        assert mesh.size - 1 >= 4000
        _close(Phi, ct_reference_transition(sys, p, mesh))
