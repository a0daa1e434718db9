"""Batched windows and batched equivalence trials.

``simulation._window`` takes the samples of a tuple of signals that share
one sample grid and evaluates every member in one pass; member ``b`` must
equal the window of its own signals: ``O`` bit for bit, ``f`` up to the
rounding of one ``[Phi | x_f]`` propagation against two.
``behavior_equivalence_empirical``
draws every trial's signals first and evaluates the trials in chunks
under a memory budget; the reference below is the per-trial loop on the
same draws.
"""

import numpy as np
import pytest

from lpvssa import (
    InputError,
    LpvSsa,
    Signal,
    TimeDomain,
    behavior_equivalence_empirical,
    equivalence,
    simulation,
)
from lpvssa.equivalence import _match, _unit_ball
from lpvssa.signals import PIECEWISE_CONSTANT, PIECEWISE_LINEAR, random_input, random_scheduling

from conftest import conjugate_system, random_invertible, random_system

T_END, STEP, N_STEPS = 1.0, 0.05, 12

CASES = [
    (TimeDomain.DT, None),
    (TimeDomain.CT, PIECEWISE_CONSTANT),
    (TimeDomain.CT, PIECEWISE_LINEAR),
]
MIXED = "mixed"  # CT batch members alternate between the two rules


def _window(sys, p, horizon, u=None, step=STEP):
    """Window of ``sys`` on the one read of ``p`` and ``u`` (signals or batches)."""
    times = simulation._grid(sys.domain, horizon, step, p, u)
    return simulation._window(sys, simulation._sample(p, times, u))


def _batch(rng, sys, interpolation, size):
    """``size`` schedulings and inputs on one grid: shared CT breakpoints off the step grid."""
    if sys.domain == TimeDomain.DT:
        ps = [Signal.dt(rng.uniform(-1, 1, (N_STEPS + 1, sys.n_p))) for _ in range(size)]
        us = [Signal.dt(rng.standard_normal((N_STEPS + 1, sys.n_u))) for _ in range(size)]
        return tuple(ps), tuple(us)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, T_END, 5))])
    if interpolation != PIECEWISE_CONSTANT:
        times = np.append(times, T_END)
    rules = [interpolation] * (size + 1)
    if interpolation == MIXED:
        rules = [(PIECEWISE_CONSTANT, PIECEWISE_LINEAR)[b % 2] for b in range(size + 1)]
    ps = [Signal.ct(times, rng.uniform(-1, 1, (times.size, sys.n_p)), rule)
          for rule in rules[:size]]
    us = [Signal.ct(times, rng.standard_normal((times.size, sys.n_u)), rule)
          for rule in rules[1:]]
    return tuple(ps), tuple(us)


class TestBatchedWindow:
    @pytest.mark.parametrize("size", [1, 2, 7])
    @pytest.mark.parametrize("n_x", [0, 1, 5])
    @pytest.mark.parametrize("domain, interpolation", CASES + [(TimeDomain.CT, MIXED)])
    def test_members_equal_their_own_windows(self, domain, interpolation, n_x, size):
        rng = np.random.default_rng(100 + 10 * n_x + size)
        sys = random_system(rng, n_x=n_x, n_p=2, n_u=2, n_y=2, domain=domain)
        ps, us = _batch(rng, sys, interpolation, size)
        horizon = N_STEPS if domain == TimeDomain.DT else T_END
        O, f = _window(sys, ps, horizon, us)
        assert O.shape[0] == f.shape[0] == size
        for b in range(size):
            O_b, f_b = _window(sys, ps[b], horizon, us[b])
            assert np.array_equal(O[b], O_b)
            assert f[b].shape == f_b.shape
            assert np.max(np.abs(f[b] - f_b), initial=0.0) <= 1e-12 * (
                1.0 + np.max(np.abs(f_b), initial=0.0)
            )

    @pytest.mark.parametrize("domain, interpolation", CASES)
    def test_free_response_map_unchanged_by_the_input(self, domain, interpolation):
        rng = np.random.default_rng(130)
        sys = random_system(rng, n_x=4, n_p=2, n_u=1, n_y=1, domain=domain)
        ps, us = _batch(rng, sys, interpolation, 3)
        horizon = N_STEPS if domain == TimeDomain.DT else T_END
        O_u, _ = _window(sys, ps, horizon, us)
        O, f = _window(sys, ps, horizon)
        assert f is None
        assert np.array_equal(O, O_u)

    @pytest.mark.parametrize("domain, interpolation", CASES)
    def test_batched_step_maps_are_the_members_maps(self, domain, interpolation):
        rng = np.random.default_rng(140)
        sys = random_system(rng, n_x=3, n_p=2, n_u=1, n_y=1, domain=domain)
        ps, us = _batch(rng, sys, interpolation, 4)
        horizon = N_STEPS if domain == TimeDomain.DT else T_END
        times = simulation._grid(sys.domain, horizon, STEP, ps, us)
        M, c = simulation._step_maps(sys, simulation._sample(ps, times, us))
        assert M.shape == (times.size - 1, 4, 3, 3) and c.shape == (times.size - 1, 4, 3)
        for b in range(4):
            times_b = simulation._grid(sys.domain, horizon, STEP, ps[b], us[b])
            M_b, c_b = simulation._step_maps(sys, simulation._sample(ps[b], times_b, us[b]))
            assert np.array_equal(times, times_b)
            assert np.array_equal(M[:, b], M_b) and np.array_equal(c[:, b], c_b)


def _reference(sys1, sys2, trials, horizon, seed, step, segments=10):
    """The per-trial loop: draw a trial's signals, then build and match its windows."""
    dt = sys1.domain == TimeDomain.DT
    rng = np.random.default_rng(seed)
    span = dict(n_steps=int(horizon)) if dt else dict(t_end=float(horizon), segments=segments)
    residuals = np.zeros((trials, 2))
    for k in range(trials):
        p = random_scheduling(sys1.region, rng, sys1.domain, **span)
        u = random_input(sys1.n_u, rng, sys1.domain, **span)
        x1 = _unit_ball(rng, sys1.n_x)
        x2 = _unit_ball(rng, sys2.n_x)
        w1, w2 = (_window(s, p, horizon, u, step) for s in (sys1, sys2))
        _, residuals[k, 0] = _match(w1, x1, w2)
        _, residuals[k, 1] = _match(w2, x2, w1)
    return residuals


class TestBatchedTrials:
    @pytest.mark.parametrize("chunk", [None, 3])
    @pytest.mark.parametrize("domain", [TimeDomain.DT, TimeDomain.CT])
    def test_equals_the_per_trial_loop(self, domain, chunk, monkeypatch):
        rng = np.random.default_rng(150)
        trials, horizon, step = 7, (N_STEPS if domain == TimeDomain.DT else T_END), STEP
        sizes = []
        window = equivalence._window

        def spy(sys, s):
            sizes.append(s.P.shape[1])  # the batch axis of the samples
            return window(sys, s)

        monkeypatch.setattr(equivalence, "_window", spy)
        if chunk is not None:  # a budget that fits 3 trials: chunks of 3, 3 and 1
            samples = N_STEPS + 1 if domain == TimeDomain.DT else round(T_END / STEP) + 1
            monkeypatch.setattr(equivalence, "_TRIAL_DOUBLES", (3 * samples + 1) * 4**2)
        sys = random_system(rng, n_x=3, n_p=2, n_u=1, n_y=1, domain=domain)
        similar = conjugate_system(sys, random_invertible(rng, 3))
        other = random_system(rng, n_x=2, n_p=2, n_u=1, n_y=1, domain=domain)
        for sys2 in (similar, other):
            sizes.clear()
            report = behavior_equivalence_empirical(
                sys, sys2, trials=trials, horizon=horizon, seed=5, step=step
            )
            ref = _reference(sys, sys2, trials, horizon, 5, step)
            assert sizes == ([3, 3, 3, 3, 1, 1] if chunk else [7, 7])
            assert np.max(np.abs(report.residuals - ref)) <= 1e-12
            assert report.passed == bool(ref.max() < report.tolerance)
        assert report.passed is False

    def test_one_trial_per_chunk_when_nothing_fits(self, monkeypatch):
        monkeypatch.setattr(equivalence, "_TRIAL_DOUBLES", 0)
        rng = np.random.default_rng(160)
        sys = random_system(rng, n_x=2, n_p=1, n_u=1, n_y=1)
        report = behavior_equivalence_empirical(sys, sys, trials=3, seed=1)
        ref = _reference(sys, sys, 3, 20, 1, 1e-2)
        assert np.max(np.abs(report.residuals - ref)) <= 1e-12
        assert report.passed


def _region_system(lower, upper):
    Z = np.zeros((1, 1))
    return LpvSsa.from_matrices([Z, Z], [Z, Z], [Z, Z], [Z, Z], ([lower], [upper]), "dt")


class TestSignatureTolerance:
    """Regions agree when ``|a - b| <= 1e-8 + 1e-5 |b|`` on every bound."""

    @pytest.mark.parametrize("bound", [-2.0, 0.0, 3.0])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_both_sides_of_the_edge(self, bound, side):
        tol = 1e-8 + 1e-5 * abs(bound)
        lo, hi = (bound, bound + 1.0) if side == "lower" else (bound - 1.0, bound)
        ref = _region_system(lo, hi)
        for sign in (1.0, -1.0):
            shift = np.array([1.0, 0.0]) if side == "lower" else np.array([0.0, 1.0])
            inside = _region_system(*(np.array([lo, hi]) + sign * 0.9 * tol * shift))
            outside = _region_system(*(np.array([lo, hi]) + sign * 1.1 * tol * shift))
            simulation._check_signature(inside, ref)
            with pytest.raises(InputError, match="scheduling region"):
                simulation._check_signature(outside, ref)

    def test_agrees_with_allclose(self):
        rng = np.random.default_rng(170)
        for _ in range(500):
            b = rng.uniform(-5, 5, 2)
            a = b + rng.uniform(-2, 2, 2) * (1e-8 + 1e-5 * np.abs(b))
            a, b = np.sort(a), np.sort(b)
            sys_a, sys_b = _region_system(*a), _region_system(*b)
            want = np.allclose(a, b)
            try:
                simulation._check_signature(sys_a, sys_b)
                got = True
            except InputError:
                got = False
            assert got == want
