from dataclasses import replace

import numpy as np
import pytest

from lpvssa import (
    InputError,
    LpvSsa,
    Signal,
    TimeDomain,
    error_system,
    io_response,
    simulate_ct,
    simulate_dt,
)
from lpvssa.signals import PIECEWISE_LINEAR, random_input, random_scheduling
from lpvssa.simulation import integration_mesh, transition_matrices_ct, transition_matrices_dt

from conftest import make_worked_minimal, random_system
from oracles import dt_reference_simulation


def _zeros_u(n_steps, dim=1):
    return Signal.dt(np.zeros((n_steps + 1, dim)))


class TestSimulateDt:
    def test_constant2_output_two(self, constant_2state):
        p = Signal.dt(np.vstack([[1.0], np.zeros((10, 1))]))
        traj = simulate_dt(constant_2state, [1.0, 1.0], _zeros_u(10), p, 10)
        assert np.all(traj.y.values == 2.0)

    def test_constant2_output_one(self, constant_2state):
        p = Signal.dt(np.zeros((11, 1)))
        traj = simulate_dt(constant_2state, [1.0, 1.0], _zeros_u(10), p, 10)
        assert np.all(traj.y.values == 1.0)

    def test_zero_state_zero_input_stays_zero(self, worked_example):
        rng = np.random.default_rng(0)
        p = Signal.dt(rng.uniform(0, 1, (9, 1)))
        traj = simulate_dt(worked_example, np.zeros(3), _zeros_u(8), p, 8)
        assert np.all(traj.x.values == 0.0)
        assert np.all(traj.y.values == 0.0)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sys = random_system(rng)
            N = 12
            u_vals = rng.standard_normal((N + 1, sys.n_u))
            p_vals = rng.uniform(-1, 1, (N + 1, sys.n_p))
            x0 = rng.standard_normal(sys.n_x)
            traj = simulate_dt(sys, x0, Signal.dt(u_vals), Signal.dt(p_vals), N)
            ref = dt_reference_simulation(sys, x0, u_vals, p_vals, N)
            assert np.allclose(traj.y.values, ref, atol=1e-13)

    def test_horizon_exceeding_signals_rejected(self, constant_2state):
        p = Signal.dt(np.zeros((5, 1)))
        with pytest.raises(InputError):
            simulate_dt(constant_2state, [0.0, 0.0], _zeros_u(4), p, 5)

    def test_out_of_region_scheduling_rejected_or_warns(self, constant_2state):
        p = Signal.dt(np.full((5, 1), 3.0))  # region is [-1, 1]
        with pytest.raises(InputError):
            simulate_dt(constant_2state, [0.0, 0.0], _zeros_u(4), p, 4)


class TestIoResponse:
    def test_pulse_response_first_markov_parameter(self, worked_example):
        # one-step hand recursion: y(1) = C_0 B_0 = 1
        u = Signal.dt(np.vstack([[1.0], np.zeros((3, 1))]))
        p = Signal.dt(np.zeros((4, 1)))
        y = io_response(worked_example, np.zeros(3), u, p, 3)
        assert y.values[0, 0] == 0.0
        assert y.values[1, 0] == 1.0

    def test_superposition_in_state_and_input(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sys = random_system(rng)
            N = 15
            u = random_input(sys.n_u, rng, sys.domain, n_steps=N)
            p = random_scheduling(sys.region, rng, sys.domain, n_steps=N)
            x0 = rng.standard_normal(sys.n_x)
            full = io_response(sys, x0, u, p, N).values
            free = io_response(sys, x0, Signal.dt(np.zeros((N + 1, sys.n_u))), p, N).values
            forced = io_response(sys, np.zeros(sys.n_x), u, p, N).values
            assert np.allclose(full, free + forced, atol=1e-10)

    def test_constant_pair_io_gap(self, constant_2state, constant_1state):
        u2 = _zeros_u(6)
        p_zero = Signal.dt(np.zeros((7, 1)))
        p_one = Signal.dt(np.vstack([[1.0], np.zeros((6, 1))]))
        y_two_0 = io_response(constant_2state, [1.0, 1.0], u2, p_zero, 6).values
        y_prime_0 = io_response(constant_1state, [1.0], u2, p_zero, 6).values
        assert np.array_equal(y_two_0, y_prime_0)  # both constant 1
        y_two_1 = io_response(constant_2state, [1.0, 1.0], u2, p_one, 6).values
        y_prime_1 = io_response(constant_1state, [1.0], u2, p_one, 6).values
        assert np.all(y_two_1 == 2.0)
        assert np.all(y_prime_1 == 1.0)


class TestSimulateCt:
    def _ct_system(self, A, B, C, D, region=([0.0], [2.0])):
        return LpvSsa.from_matrices(A, B, C, D, region, "ct")

    def test_zero_dynamics_constant_state(self):
        sys = self._ct_system(
            [[[0.0]], [[0.0]]], [[[0.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]],
        )
        p = Signal.ct_constant([1.0], 1.0)
        u = Signal.ct_constant([0.0], 1.0)
        traj = simulate_ct(sys, [3.5], u, p, 1.0, 0.01)
        assert np.allclose(traj.x.values, 3.5, atol=1e-14)

    def test_scalar_exponential(self):
        # x' = p x with p = 1: x(1) = e
        sys = self._ct_system(
            [[[0.0]], [[1.0]]], [[[0.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]],
        )
        p = Signal.ct_constant([1.0], 1.0)
        u = Signal.ct_constant([0.0], 1.0)
        traj = simulate_ct(sys, [1.0], u, p, 1.0, 1e-3)
        assert abs(traj.x.values[-1, 0] - np.e) < 1e-8

    def test_order_four_self_convergence(self):
        rng = np.random.default_rng(3)
        sys = random_system(rng, n_x=3, n_p=1, n_u=1, n_y=1, domain=TimeDomain.CT)
        nodes = np.linspace(0.0, 1.0, 5)
        p = Signal.ct(nodes, rng.uniform(-1, 1, (5, 1)), PIECEWISE_LINEAR)
        u = Signal.ct(nodes, rng.standard_normal((5, 1)), PIECEWISE_LINEAR)
        x0 = rng.standard_normal(3)

        def final_state(step):
            return simulate_ct(sys, x0, u, p, 1.0, step).x.values[-1]

        ref = final_state(1e-4)
        err_h = np.linalg.norm(final_state(1 / 40) - ref)
        err_h2 = np.linalg.norm(final_state(1 / 80) - ref)
        assert 12.0 < err_h / err_h2 < 20.0

    def test_matches_adaptive_integrator_oracle(self):
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng(21)
        sys = random_system(rng, n_x=3, n_p=1, n_u=1, n_y=1, domain=TimeDomain.CT)
        nodes = np.linspace(0.0, 1.0, 5)
        p = Signal.ct(nodes, rng.uniform(-1, 1, (5, 1)), PIECEWISE_LINEAR)
        u = Signal.ct(nodes, rng.standard_normal((5, 1)), PIECEWISE_LINEAR)
        x0 = rng.standard_normal(3)

        def rhs(t, x):
            pt = p.value_at(t)
            return sys.A(pt) @ x + sys.B(pt) @ u.value_at(t)

        ref = solve_ivp(
            rhs, (0.0, 1.0), x0, method="RK45", rtol=1e-11, atol=1e-13,
            max_step=0.25,
        ).y[:, -1]
        got = simulate_ct(sys, x0, u, p, 1.0, 1e-3).x.values[-1]
        assert np.linalg.norm(got - ref) < 1e-8

    def test_piecewise_constant_breakpoints_enter_the_mesh(self):
        sys = self._ct_system(
            [[[0.0]], [[1.0]]], [[[0.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]],
        )
        # p = 1 on [0, 0.35), p = 2 on [0.35, 1]: x(1) = exp(0.35 + 2*0.65)
        p = Signal.ct([0.0, 0.35], [[1.0], [2.0]])
        u = Signal.ct_constant([0.0], 1.0)
        traj = simulate_ct(sys, [1.0], u, p, 1.0, 1e-3)
        assert np.any(np.isclose(traj.times, 0.35, atol=1e-12))
        assert abs(traj.x.values[-1, 0] - np.exp(0.35 + 2 * 0.65)) < 1e-10

    def test_coverage_gap_rejected(self):
        sys = self._ct_system(
            [[[0.0]], [[0.0]]], [[[0.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]],
        )
        p = Signal.ct_constant([1.0], 2.0)
        u_short = Signal.ct([0.0, 0.5], [[0.0], [0.0]], PIECEWISE_LINEAR)
        with pytest.raises(InputError):
            simulate_ct(sys, [0.0], u_short, p, 1.0, 0.01)

    def test_breakpoint_next_to_the_end_merges_into_it(self):
        p = Signal.ct([0.0, 1.0 - 1e-13], [[0.0], [1.0]])
        assert integration_mesh(1.0, 0.25, p).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def _worked_minimal_ct():
    return replace(make_worked_minimal(), domain=TimeDomain.CT)


_P_DT, _U_DT = Signal.dt(np.zeros((4, 1))), Signal.dt(np.zeros((4, 1)))
_P_CT, _U_CT = Signal.ct_constant([0.0], 1.0), Signal.ct_constant([0.0], 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: simulate_dt(make_worked_minimal(), [1.0, 0.0, 0.0], _U_DT, _P_DT, 3),
            "initial state has shape (3,), expected (2,)",
        ),
        (
            lambda: simulate_dt(_worked_minimal_ct(), [1.0, 0.0], _U_CT, _P_CT, 1),
            "simulate_dt needs a DT system",
        ),
        (
            lambda: simulate_ct(make_worked_minimal(), [1.0, 0.0], _U_DT, _P_DT, 1.0, 0.1),
            "simulate_ct needs a CT system",
        ),
        (
            lambda: transition_matrices_dt(_worked_minimal_ct(), _P_CT, 1),
            "transition_matrices_dt needs a DT system",
        ),
        (
            lambda: transition_matrices_ct(make_worked_minimal(), _P_DT, 1.0, 0.1),
            "transition_matrices_ct needs a CT system",
        ),
    ],
    ids=[
        "x0-shape", "simulate_dt-on-ct", "simulate_ct-on-dt", "transition_dt-on-ct",
        "transition_ct-on-dt",
    ],
)
def test_simulation_input_errors(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert message in str(exc.value)


class TestErrorSystem:
    def test_dimension_is_sum(self, worked_example, worked_minimal):
        err = error_system(worked_example, worked_minimal)
        assert err.n_x == 5

    def test_self_difference_is_zero(self, worked_example):
        rng = np.random.default_rng(4)
        err = error_system(worked_example, worked_example)
        N = 10
        u = random_input(1, rng, err.domain, n_steps=N)
        p = Signal.dt(rng.uniform(0, 1, (N + 1, 1)))
        x0 = rng.standard_normal(3)
        y = io_response(err, np.concatenate([x0, x0]), u, p, N).values
        # trajectories of this system grow to ~1e7 over the window, so
        # "zero" is judged relative to the single-system output scale
        y_single = io_response(worked_example, x0, u, p, N).values
        scale = 1.0 + np.max(np.abs(y_single))
        assert np.max(np.abs(y)) <= 1e-10 * scale

    def test_difference_identity_dt(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n_p = int(rng.integers(1, 3))
            sys1 = random_system(rng, n_p=n_p, n_u=2, n_y=2)
            sys2 = random_system(rng, n_p=n_p, n_u=2, n_y=2)
            N = 10
            u = random_input(2, rng, sys1.domain, n_steps=N)
            p = random_scheduling(sys1.region, rng, sys1.domain, n_steps=N)
            x1 = rng.standard_normal(sys1.n_x)
            x2 = rng.standard_normal(sys2.n_x)
            err = error_system(sys1, sys2)
            y_err = io_response(err, np.concatenate([x1, x2]), u, p, N).values
            y_diff = (
                io_response(sys1, x1, u, p, N).values
                - io_response(sys2, x2, u, p, N).values
            )
            assert np.allclose(y_err, y_diff, atol=1e-10)

    def test_difference_identity_ct(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            kw = dict(n_x=2, n_p=1, n_u=1, n_y=1)
            s1 = random_system(rng, **kw)
            s2 = random_system(rng, **kw)
            mk = lambda s: LpvSsa.from_matrices(
                list(s.A.coeffs), list(s.B.coeffs), list(s.C.coeffs),
                list(s.D.coeffs), s.region, "ct",
            )
            s1, s2 = mk(s1), mk(s2)
            t_end = 0.5
            u = random_input(1, rng, s1.domain, t_end=t_end, segments=4)
            p = random_scheduling(s1.region, rng, s1.domain, t_end=t_end, segments=4)
            x1 = rng.standard_normal(2)
            x2 = rng.standard_normal(2)
            err = error_system(s1, s2)
            y_err = io_response(
                err, np.concatenate([x1, x2]), u, p, t_end, step=1e-3
            ).values
            y_diff = (
                io_response(s1, x1, u, p, t_end, step=1e-3).values
                - io_response(s2, x2, u, p, t_end, step=1e-3).values
            )
            assert np.allclose(y_err, y_diff, atol=1e-6)

    def test_signature_mismatch_rejected(self, worked_example):
        other = make_worked_minimal()
        widened = LpvSsa.from_matrices(
            list(other.A.coeffs),
            [np.hstack([b, b]) for b in other.B.coeffs],
            list(other.C.coeffs),
            [np.hstack([d, d]) for d in other.D.coeffs],
            other.region,
            other.domain,
        )
        with pytest.raises(InputError):
            error_system(worked_example, widened)
