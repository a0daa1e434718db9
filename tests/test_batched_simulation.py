"""The batched simulation engine against per-point reference loops.

The simulators evaluate signals and matrices along the whole horizon at
once and apply each RK4 step as a precomputed affine map; the oracles
step RK4 stage by stage with one ``value_at`` and one ``__call__`` per
point.  DT is the same arithmetic and must agree bit for bit; CT differs
only in rounding order and must agree to 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvssa import (
    InputError,
    LpvSsa,
    Signal,
    TimeDomain,
    analysis,
    ltv_window_observability,
    match_initial_state,
    observability_reduction,
    simulate_ct,
    simulate_dt,
)
from lpvssa.signals import PIECEWISE_CONSTANT, PIECEWISE_LINEAR
from lpvssa.simulation import integration_mesh, transition_matrices_ct, transition_matrices_dt

from conftest import random_system
from oracles import (
    ct_reference_simulation,
    ct_reference_transition,
    dt_reference_simulation,
)

RTOL = 1e-12


def _close(got, ref):
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(got - ref)))
    assert err <= RTOL * scale, f"max error {err:.3e} vs scale {scale:.3e}"


def _off_grid_signal(rng, dim, t_end, interpolation, pieces=6):
    """Signal whose breakpoints are random, off any uniform step grid."""
    inner = np.sort(rng.uniform(0.0, t_end, pieces - 1))
    if interpolation == PIECEWISE_CONSTANT:
        times = np.concatenate([[0.0], inner])
    else:
        times = np.concatenate([[0.0], inner, [t_end]])
    return Signal.ct(times, rng.uniform(-1, 1, (times.size, dim)), interpolation)


INTERPS = [
    (PIECEWISE_CONSTANT, PIECEWISE_CONSTANT),
    (PIECEWISE_LINEAR, PIECEWISE_LINEAR),
    (PIECEWISE_CONSTANT, PIECEWISE_LINEAR),
    (PIECEWISE_LINEAR, PIECEWISE_CONSTANT),
]


@pytest.mark.parametrize("n_p", [1, 2, 3])
@pytest.mark.parametrize("p_interp,u_interp", INTERPS)
class TestCtMatchesPerStageRk4:
    T_END, STEP = 1.3, 0.037

    def _inputs(self, n_p, p_interp, u_interp, seed):
        rng = np.random.default_rng(seed)
        sys = random_system(rng, n_x=4, n_p=n_p, n_u=2, n_y=2, domain=TimeDomain.CT)
        p = _off_grid_signal(rng, n_p, self.T_END, p_interp)
        u = _off_grid_signal(rng, sys.n_u, self.T_END, u_interp)
        return rng, sys, p, u

    def test_simulate_ct(self, n_p, p_interp, u_interp):
        rng, sys, p, u = self._inputs(n_p, p_interp, u_interp, 100 + n_p)
        x0 = rng.standard_normal(sys.n_x)
        traj = simulate_ct(sys, x0, u, p, self.T_END, self.STEP)
        xs, ys = ct_reference_simulation(sys, x0, u, p, traj.times)
        _close(traj.x.values, xs)
        _close(traj.y.values, ys)

    def test_transition_matrices_ct(self, n_p, p_interp, u_interp):
        _, sys, p, u = self._inputs(n_p, p_interp, u_interp, 200 + n_p)
        mesh, Phi = transition_matrices_ct(sys, p, self.T_END, self.STEP)
        _close(Phi, ct_reference_transition(sys, p, mesh))

    def test_ct_window_stack(self, n_p, p_interp, u_interp, monkeypatch):
        _, sys, p, _ = self._inputs(n_p, p_interp, u_interp, 300 + n_p)
        seen = []
        original = analysis.RankDecision.from_matrix

        def spy(M):
            seen.append(np.array(M))
            return original(M)

        monkeypatch.setattr(analysis.RankDecision, "from_matrix", spy)
        ltv_window_observability(sys, p, self.T_END, step=self.STEP)
        mesh = integration_mesh(self.T_END, self.STEP, p)
        Phi = ct_reference_transition(sys, p, mesh)
        rows = [sys.C(p.value_at(t)) @ Phi_t for t, Phi_t in zip(mesh, Phi)]
        _close(seen[-1], np.vstack(rows))


class TestDtBitIdentical:
    def test_simulate_dt_equals_reference_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sys = random_system(rng, n_p=int(rng.integers(1, 4)))
            N = 25
            u_vals = rng.standard_normal((N + 1, sys.n_u))
            p_vals = rng.uniform(-1, 1, (N + 1, sys.n_p))
            x0 = rng.standard_normal(sys.n_x)
            traj = simulate_dt(sys, x0, Signal.dt(u_vals), Signal.dt(p_vals), N)
            ref = dt_reference_simulation(sys, x0, u_vals, p_vals, N)
            assert np.array_equal(traj.y.values, ref)

    def test_transition_matrices_dt_equal_products(self):
        rng = np.random.default_rng(12)
        sys = random_system(rng, n_x=4, n_p=2)
        p = Signal.dt(rng.uniform(-1, 1, (9, 2)))
        Phi = transition_matrices_dt(sys, p, 8)
        X = np.eye(4)
        for t in range(8):
            X = sys.A(p.value_at(t)) @ X
            assert np.array_equal(Phi[t + 1], X)


class TestDegenerateHorizons:
    def test_zero_steps(self):
        rng = np.random.default_rng(13)
        sys = random_system(rng, n_x=3, n_p=2, n_u=1, n_y=2)
        u_vals = rng.standard_normal((1, 1))
        p_vals = rng.uniform(-1, 1, (1, 2))
        x0 = rng.standard_normal(3)
        u, p = Signal.dt(u_vals), Signal.dt(p_vals)
        traj = simulate_dt(sys, x0, u, p, 0)
        assert traj.x.values.shape == (1, 3)
        assert np.array_equal(traj.x.values[0], x0)
        assert np.array_equal(traj.y.values, dt_reference_simulation(sys, x0, u_vals, p_vals, 0))
        assert np.array_equal(transition_matrices_dt(sys, p, 0), np.eye(3)[None])
        x_to, residual = match_initial_state(sys, x0, sys, u, p, 0)
        assert x_to.shape == (3,) and residual < 1e-12

    @pytest.mark.parametrize("domain", ["dt", "ct"])
    def test_stateless_reduction_returns_the_feedthrough(self, domain):
        # C = 0 makes every state unobservable; the reduction keeps y = D u = u
        A = [[[0.5, 0.1], [0.0, 0.3]], [[0.1, 0.0], [0.2, 0.1]]]
        B = [np.ones((2, 1)), np.zeros((2, 1))]
        C = [np.zeros((1, 2))] * 2
        D = [np.ones((1, 1)), np.zeros((1, 1))]
        sys = LpvSsa.from_matrices(A, B, C, D, ([-1.0], [1.0]), domain)
        reduced = observability_reduction(sys).reduced
        assert reduced.n_x == 0
        rng = np.random.default_rng(14)
        if domain == "dt":
            u = Signal.dt(rng.standard_normal((6, 1)))
            p = Signal.dt(rng.uniform(-1, 1, (6, 1)))
            traj, horizon = simulate_dt(reduced, np.zeros(0), u, p, 5), 5
            u_on_grid = u.values
        else:
            u = Signal.ct([0.0, 0.3, 0.7], rng.standard_normal((3, 1)))
            p = Signal.ct([0.0, 0.45], rng.uniform(-1, 1, (2, 1)))
            traj, horizon = simulate_ct(reduced, np.zeros(0), u, p, 1.0, 0.1), 1.0
            u_on_grid = u.values_at(traj.times)
        assert traj.x.values.shape == (u_on_grid.shape[0], 0)
        assert np.array_equal(traj.y.values, u_on_grid)
        x_to, residual = match_initial_state(sys, [1.0, 2.0], reduced, u, p, horizon, step=0.1)
        assert x_to.shape == (0,) and residual == 0.0
        x_to, residual = match_initial_state(reduced, np.zeros(0), sys, u, p, horizon, step=0.1)
        assert x_to.shape == (2,) and residual == 0.0


# ------------------------------------------------------------ values_at

_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _ct_signal(draw, interpolation):
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(1e-3, 5.0), min_size=n - 1, max_size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    values = draw(st.lists(_finite, min_size=n * dim, max_size=n * dim))
    return Signal.ct(times, np.reshape(values, (n, dim)), interpolation)


def _query_times(draw, sig):
    """Times at the nodes, between nodes and outside the mesh on both sides."""
    nodes = list(sig.times)
    mids = list(0.5 * (sig.times[:-1] + sig.times[1:]))
    outside = [-draw(st.floats(1e-6, 10.0)), sig.times[-1] + draw(st.floats(1e-6, 10.0))]
    extra = draw(st.lists(st.floats(-2.0, sig.times[-1] + 2.0), max_size=8))
    return np.array(nodes + mids + outside + extra)


def _assert_rowwise_identical(sig, ts):
    batch = sig.values_at(ts)
    assert batch.shape == (ts.size, sig.dim)
    for k, t in enumerate(ts):
        assert np.array_equal(batch[k], sig.value_at(t))


class TestValuesAt:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_dt_matches_value_at_and_rejects_out_of_range(self, data):
        n = data.draw(st.integers(1, 8))
        dim = data.draw(st.integers(1, 3))
        values = data.draw(st.lists(_finite, min_size=n * dim, max_size=n * dim))
        sig = Signal.dt(np.reshape(values, (n, dim)))
        ks = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10)))
        _assert_rowwise_identical(sig, ks)
        bad = data.draw(st.one_of(st.integers(-5, -1), st.integers(n, n + 5)))
        with pytest.raises(InputError):
            sig.values_at(np.append(ks, bad))
        with pytest.raises(InputError):
            sig.value_at(bad)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_piecewise_constant_matches_value_at(self, data):
        sig = data.draw(_ct_signal(PIECEWISE_CONSTANT))
        _assert_rowwise_identical(sig, _query_times(data.draw, sig))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_piecewise_linear_matches_value_at(self, data):
        sig = data.draw(_ct_signal(PIECEWISE_LINEAR))
        _assert_rowwise_identical(sig, _query_times(data.draw, sig))
