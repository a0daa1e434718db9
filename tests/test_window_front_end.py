"""One window per system: matching and equivalence on the shared front end.

``match_initial_state`` builds the free-response map and the forced output
of each system from one read of the signals, and the randomized
equivalence test builds both windows of a trial once and matches in both
directions.  The oracle composes the same match from whole simulations and
separately assembled transition matrices.
"""

from collections import Counter

import numpy as np
import pytest

from lpvssa import (
    InputError,
    LpvSsa,
    RankDecision,
    Signal,
    TimeDomain,
    behavior_equivalence_empirical,
    io_response,
    ltv_window_observability,
    match_initial_state,
    observability_reduction,
    simulate_ct,
    simulate_dt,
    simulation,
)
from lpvssa.signals import PIECEWISE_CONSTANT, PIECEWISE_LINEAR, random_input, random_scheduling

from conftest import conjugate_system, random_invertible, random_system
from oracles import match_reference, output_map
from test_observability_kernel import near_unobservable

T_END, STEP, N_STEPS = 1.0, 0.05, 12


def _assert_agrees(got, ref, x0):
    (x_got, r_got), (x_ref, r_ref) = got, ref
    assert x_got.shape == x_ref.shape
    assert np.max(np.abs(x_got - x_ref), initial=0.0) <= 1e-9 * (1.0 + np.linalg.norm(x0))
    assert abs(r_got - r_ref) <= 1e-12


def _signals(rng, domain, n_u, n_p, interpolation):
    """Input and scheduling with independent breakpoints off the step grid."""
    if domain == TimeDomain.DT:
        return (
            Signal.dt(rng.standard_normal((N_STEPS + 1, n_u))),
            Signal.dt(rng.uniform(-1, 1, (N_STEPS + 1, n_p))),
        )

    def ct(dim, draw):
        inner = np.sort(rng.uniform(0.0, T_END, 4))
        times = np.concatenate([[0.0], inner])
        if interpolation == PIECEWISE_LINEAR:
            times = np.append(times, T_END)
        return Signal.ct(times, draw((times.size, dim)), interpolation)

    return ct(n_u, rng.standard_normal), ct(n_p, lambda shape: rng.uniform(-1, 1, shape))


CASES = [
    (TimeDomain.DT, None),
    (TimeDomain.CT, PIECEWISE_CONSTANT),
    (TimeDomain.CT, PIECEWISE_LINEAR),
]


class TestMissingInput:
    """``u`` None is the zero input: no forcing term, the same trajectory."""

    @pytest.mark.parametrize("long", [False, True], ids=["exact", "two-level"])
    @pytest.mark.parametrize("domain, interpolation", CASES)
    def test_equals_an_explicit_zero_input(self, domain, interpolation, long):
        rng = np.random.default_rng(31)
        sys = random_system(rng, n_x=3, n_p=2, n_u=2, n_y=2, domain=domain)
        x0 = rng.standard_normal(3)
        if domain == TimeDomain.DT:  # 100 steps are composed in two levels
            horizon, step = (100 if long else N_STEPS), None
            p = Signal.dt(rng.uniform(-1, 1, (horizon + 1, 2)))
            zero = Signal.dt(np.zeros((horizon + 1, 2)))
            simulate = lambda u: simulate_dt(sys, x0, u, p, horizon)
        else:  # a step of STEP / 10 gives more than 200 mesh steps
            horizon, step = T_END, (STEP / 10 if long else STEP)
            _, p = _signals(rng, domain, 2, 2, interpolation)
            zero = Signal.ct_constant(np.zeros(2), T_END)  # no breakpoint of its own
            simulate = lambda u: simulate_ct(sys, x0, u, p, horizon, step)
        got, want = simulate(None), simulate(zero)
        for a, b in ((got.x, want.x), (got.y, want.y)):
            assert np.array_equal(a.values, b.values)
            assert (a.times is None) == (b.times is None)
            assert a.times is None or np.array_equal(a.times, b.times)
        kw = {} if step is None else {"step": step}
        y = io_response(sys, x0, None, p, horizon, **kw)
        assert np.array_equal(y.values, io_response(sys, x0, zero, p, horizon, **kw).values)
        assert np.array_equal(y.values, got.y.values)


class TestMatchAgainstReference:
    @pytest.mark.parametrize("n_y", [1, 2])
    @pytest.mark.parametrize("domain, interpolation", CASES)
    def test_random_windows(self, domain, interpolation, n_y):
        rng = np.random.default_rng(21 + n_y)
        horizon = N_STEPS if domain == TimeDomain.DT else T_END
        for _ in range(4):
            sys = random_system(rng, n_x=3, n_p=2, n_u=1, n_y=n_y, domain=domain)
            other = random_system(rng, n_x=3, n_p=2, n_u=1, n_y=n_y, domain=domain)
            similar = conjugate_system(sys, random_invertible(rng, 3))
            u, p = _signals(rng, domain, 1, 2, interpolation)
            x0 = rng.standard_normal(3)
            for sys_to in (similar, other):
                got = match_initial_state(sys, x0, sys_to, u, p, horizon, step=STEP)
                ref = match_reference(sys, x0, sys_to, u, p, horizon, step=STEP)
                _assert_agrees(got, ref, x0)

    @pytest.mark.parametrize("domain, interpolation", CASES)
    def test_stateless_target_and_source(self, domain, interpolation):
        # C = 0 makes every state unobservable, so the reduction has n_x = 0
        A = [[[0.5, 0.1], [0.0, 0.3]], [[0.1, 0.0], [0.2, 0.1]]]
        B = [np.ones((2, 1)), np.zeros((2, 1))]
        C = [np.zeros((1, 2))] * 2
        D = [np.ones((1, 1)), np.zeros((1, 1))]
        sys = LpvSsa.from_matrices(A, B, C, D, ([-1.0], [1.0]), domain)
        reduced = observability_reduction(sys).reduced
        assert reduced.n_x == 0
        rng = np.random.default_rng(22)
        u, p = _signals(rng, domain, 1, 1, interpolation)
        horizon = N_STEPS if domain == TimeDomain.DT else T_END
        x0 = np.array([1.0, -2.0])
        for args in ((sys, x0, reduced), (reduced, np.zeros(0), sys)):
            got = match_initial_state(*args, u, p, horizon, step=STEP)
            _assert_agrees(got, match_reference(*args, u, p, horizon, step=STEP), args[1])


@pytest.mark.parametrize("interpolation", [PIECEWISE_CONSTANT, PIECEWISE_LINEAR])
def test_ct_samples_refine_both_signals(interpolation):
    rng = np.random.default_rng(24)
    sys = random_system(rng, n_x=2, n_p=2, n_u=1, n_y=1, domain=TimeDomain.CT)
    u, p = _signals(rng, TimeDomain.CT, 1, 2, interpolation)
    times = simulate_ct(sys, np.zeros(2), u, p, T_END, STEP).times
    for sig in (u, p):
        inner = sig.times[(sig.times > 0.0) & (sig.times < T_END)]
        assert np.all(np.min(np.abs(times[:, None] - inner), axis=0) <= 1e-12)


class TestOneAssemblyPerSystem:
    def test_ct_trial_integrates_each_system_once(self, monkeypatch):
        rng = np.random.default_rng(23)
        sys = random_system(rng, n_x=3, n_p=1, n_u=1, n_y=1, domain=TimeDomain.CT)
        similar = conjugate_system(sys, random_invertible(rng, 3))
        calls = []
        rk4_on_mesh = simulation.rk4_on_mesh

        def counting(*args, **kwargs):
            # (mesh steps, trials): the batch axis of the first stage array
            calls.append((args[2].size - 1, args[1][0].shape[1]))
            return rk4_on_mesh(*args, **kwargs)

        monkeypatch.setattr(simulation, "rk4_on_mesh", counting)
        report = behavior_equivalence_empirical(sys, similar, trials=3, step=0.05)
        assert report.passed
        assert calls == [(40, 3)] * 2  # one batch per system covers every trial

    def test_negative_dt_horizon_is_rejected(self, worked_minimal):
        u = Signal.dt(np.zeros((5, 1)))
        p = Signal.dt(np.full((5, 1), 0.5))
        with pytest.raises(InputError):
            match_initial_state(worked_minimal, [1.0, 0.0], worked_minimal, u, p, -1)
        with pytest.raises(InputError):
            behavior_equivalence_empirical(worked_minimal, worked_minimal, trials=1, horizon=-1)


class TestOneReadPerWindow:
    """Each signal is read once per window, in CT once more at the step
    midpoints, and every system on the window shares that read."""

    @pytest.fixture
    def reads(self, monkeypatch):
        counts = Counter()
        values_at = Signal.values_at

        def spy(sig, ts):
            counts[id(sig)] += 1
            return values_at(sig, ts)

        monkeypatch.setattr(Signal, "values_at", spy)
        return counts

    @staticmethod
    def _reads_per_signal(domain):
        return 1 if domain == TimeDomain.DT else 2

    @pytest.mark.parametrize("domain, interpolation", CASES)
    def test_simulation(self, reads, domain, interpolation):
        rng = np.random.default_rng(26)
        sys = random_system(rng, n_x=3, n_p=2, n_u=1, n_y=1, domain=domain)
        u, p = _signals(rng, domain, 1, 2, interpolation)
        if domain == TimeDomain.DT:
            simulate_dt(sys, np.ones(3), u, p, N_STEPS)
        else:
            simulate_ct(sys, np.ones(3), u, p, T_END, STEP)
        per_signal = self._reads_per_signal(domain)
        assert reads == {id(u): per_signal, id(p): per_signal}

    @pytest.mark.parametrize("domain, interpolation", CASES)
    def test_both_systems_of_a_match_share_the_read(self, reads, domain, interpolation):
        rng = np.random.default_rng(27)
        sys = random_system(rng, n_x=3, n_p=2, n_u=1, n_y=1, domain=domain)
        similar = conjugate_system(sys, random_invertible(rng, 3))
        u, p = _signals(rng, domain, 1, 2, interpolation)
        horizon = N_STEPS if domain == TimeDomain.DT else T_END
        match_initial_state(sys, np.ones(3), similar, u, p, horizon, step=STEP)
        per_signal = self._reads_per_signal(domain)
        assert reads == {id(u): per_signal, id(p): per_signal}

    @pytest.mark.parametrize("domain", [TimeDomain.DT, TimeDomain.CT])
    def test_both_systems_of_a_trial_chunk_share_the_read(self, reads, domain):
        rng = np.random.default_rng(28)
        sys = random_system(rng, n_x=3, n_p=2, n_u=1, n_y=1, domain=domain)
        similar = conjugate_system(sys, random_invertible(rng, 3))
        report = behavior_equivalence_empirical(sys, similar, trials=8, step=0.05)
        assert report.passed
        # 8 schedulings and 8 inputs, each read once for both systems
        assert sorted(reads.values()) == [self._reads_per_signal(domain)] * 16


def test_match_solves_at_the_iteration_floor():
    # O = [C A^k] has columns 1 and k * 1e-12: the second direction sits
    # below the 1e-10 floor, so the solve must not fit it to rounding noise
    sys = near_unobservable()
    rng = np.random.default_rng(0)
    u = random_input(1, rng, sys.domain, n_steps=20)
    p = random_scheduling(sys.region, rng, sys.domain, n_steps=20)
    x0_to, residual = match_initial_state(sys, [1.0, 0.0], sys, u, p, 20)
    assert abs(x0_to[0] - 1.0) <= 1e-9
    assert abs(x0_to[1]) <= 1e-10
    assert residual < 1e-9


class TestFreeResponseMap:
    """``simulation._window`` is the one free-response map, windows included."""

    def test_dt_window_stack_is_the_transition_matrix_stack(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sys = random_system(rng, n_p=int(rng.integers(1, 4)))
            p = random_scheduling(sys.region, rng, sys.domain, n_steps=N_STEPS)
            _, decision = ltv_window_observability(sys, p, N_STEPS)
            Phi = simulation.transition_matrices_dt(sys, p, N_STEPS)
            stack = output_map(sys, p.values_at(np.arange(N_STEPS + 1)), Phi)
            want = RankDecision.from_matrix(stack).singular_values
            assert np.array_equal(decision.singular_values, want)

    @pytest.mark.parametrize("domain", [TimeDomain.DT, TimeDomain.CT])
    def test_no_input_no_forced_output(self, domain):
        rng = np.random.default_rng(10)
        sys = random_system(rng, n_p=2, domain=domain)
        _, p = _signals(rng, domain, sys.n_u, sys.n_p, PIECEWISE_CONSTANT)
        if domain == TimeDomain.DT:
            horizon, u = N_STEPS, Signal.dt(rng.standard_normal((N_STEPS + 1, sys.n_u)))
        else:  # no breakpoint of its own, so both windows share the mesh
            horizon, u = T_END, Signal.ct_constant(rng.standard_normal(sys.n_u), T_END)
        grid = simulation._grid
        O, f = simulation._window(sys, simulation._sample(p, grid(domain, horizon, STEP, p)))
        O_u, f_u = simulation._window(
            sys, simulation._sample(p, grid(domain, horizon, STEP, p, u), u)
        )
        assert f is None and f_u.shape == (O.shape[0] // sys.n_y, sys.n_y)
        assert np.array_equal(O, O_u)
