"""One window guard: every window entry point rejects a bad triple.

``simulation._check_signals`` is the only validation of a (system,
scheduling signal, window) triple, and ``simulation._check_window`` the
only rule for the window itself.  Each entry point below gets a system
with ``n_p = 2`` on ``[-1, 1]^2`` and a scheduling signal that is wrong in
exactly one way (time domain, dimension, coverage of the window, or one
sample outside the region), or a window that is wrong (a DT horizon that
is not a nonnegative integer, a CT end time or step that is not finite
and positive), and must raise InputError.
"""

import math

import numpy as np
import pytest

from lpvssa import (
    InputError,
    Signal,
    TimeDomain,
    analysis,
    behavior_equivalence_empirical,
    equivalence,
    find_revealing_scheduling,
    freeze_scheduling,
    io_response,
    ltv_window_observability,
    match_initial_state,
    simulate_ct,
    simulate_dt,
)
from lpvssa.signals import PIECEWISE_CONSTANT, PIECEWISE_LINEAR
from lpvssa.simulation import transition_matrices_ct, transition_matrices_dt

from conftest import random_system

DT, CT = TimeDomain.DT, TimeDomain.CT
HORIZON = {DT: 4, CT: 1.0}
SPAN = dict(HORIZON)  # the signals' span, whatever window a test asks for
STEP = 0.1


def _scheduling(domain, dim=2, end=None, value=0.25):
    """A constant scheduling signal on ``[0, end]`` (default: the default window)."""
    end = SPAN[domain] if end is None else end
    if domain == DT:
        return Signal.dt(np.full((int(end) + 1, dim), value))
    return Signal.ct([0.0, end], np.full((2, dim), value), PIECEWISE_LINEAR)


def _out_of_region(domain):
    p = _scheduling(domain)
    values = p.values.copy()
    values[-1, 1] = 1.5
    if domain == DT:
        return Signal.dt(values)
    return Signal.ct(p.times, values, PIECEWISE_LINEAR)


BAD = {
    "wrong-domain": lambda d: _scheduling(CT if d == DT else DT),
    "wrong-dimension": lambda d: _scheduling(d, dim=3),
    # DT: one sample short of n_steps; CT: a linear signal ending halfway
    "too-short": lambda d: _scheduling(d, end=SPAN[d] - 1 if d == DT else SPAN[d] / 2),
    "out-of-region": _out_of_region,
}


def _input(sys):
    if sys.domain == DT:
        return Signal.dt(np.zeros((SPAN[DT] + 1, sys.n_u)))
    return Signal.ct_constant(np.zeros(sys.n_u), SPAN[CT])


def _equivalence(sys, p, monkeypatch):
    # the trial signals are drawn inside; hand the bad one to every trial
    monkeypatch.setattr(equivalence, "random_scheduling", lambda *a, **k: p)
    behavior_equivalence_empirical(sys, sys, trials=1, horizon=HORIZON[sys.domain], step=STEP)


def _reveal(sys, p, monkeypatch):
    # likewise: every draw of the search is the given signal
    monkeypatch.setattr(analysis, "random_scheduling", lambda *a, **k: p)
    find_revealing_scheduling(sys, 1, HORIZON[sys.domain], 0)


ENTRY_POINTS = {
    "simulate_dt": (
        (DT,), lambda s, p, mp: simulate_dt(s, np.zeros(s.n_x), _input(s), p, HORIZON[DT])
    ),
    "simulate_ct": (
        (CT,),
        lambda s, p, mp: simulate_ct(s, np.zeros(s.n_x), _input(s), p, HORIZON[CT], STEP),
    ),
    "io_response": (
        (DT, CT),
        lambda s, p, mp: io_response(
            s, np.zeros(s.n_x), _input(s), p, HORIZON[s.domain], step=STEP
        ),
    ),
    "transition_matrices_dt": ((DT,), lambda s, p, mp: transition_matrices_dt(s, p, HORIZON[DT])),
    "transition_matrices_ct": (
        (CT,), lambda s, p, mp: transition_matrices_ct(s, p, HORIZON[CT], STEP)
    ),
    "match_initial_state": (
        (DT, CT),
        lambda s, p, mp: match_initial_state(
            s, np.zeros(s.n_x), s, _input(s), p, HORIZON[s.domain], step=STEP
        ),
    ),
    "behavior_equivalence_empirical": ((DT, CT), _equivalence),
    "freeze_scheduling": ((DT, CT), lambda s, p, mp: freeze_scheduling(s, p)),
    "ltv_window_observability": (
        (DT, CT),
        lambda s, p, mp: ltv_window_observability(s, p, HORIZON[s.domain], step=STEP),
    ),
    "find_revealing_scheduling": ((DT, CT), _reveal),
}


def _cases():
    for name, (domains, _) in ENTRY_POINTS.items():
        for domain in domains:
            for bad in BAD:
                # freezing has no window beyond the signal itself
                if name == "freeze_scheduling" and bad == "too-short":
                    continue
                yield pytest.param(name, domain, bad, id=f"{name}-{domain.value}-{bad}")


def _system(domain):
    return random_system(np.random.default_rng(3), n_x=3, n_p=2, n_u=1, n_y=1, domain=domain)


@pytest.mark.parametrize("name,domain,bad", list(_cases()))
def test_bad_window_rejected(name, domain, bad, monkeypatch):
    sys = _system(domain)
    with pytest.raises(InputError):
        ENTRY_POINTS[name][1](sys, BAD[bad](domain), monkeypatch)


@pytest.mark.parametrize("name,domain", [(n, d) for n, (ds, _) in ENTRY_POINTS.items() for d in ds])
def test_good_window_accepted(name, domain, monkeypatch):
    """The same calls run with the admissible signal the bad ones perturb."""
    sys = _system(domain)
    ENTRY_POINTS[name][1](sys, _scheduling(domain), monkeypatch)


DT_WINDOWS = [n for n, (ds, _) in ENTRY_POINTS.items() if DT in ds and n != "freeze_scheduling"]


@pytest.mark.parametrize("name", DT_WINDOWS)
def test_fractional_dt_horizon_rejected(name, monkeypatch):
    """A DT window is a nonnegative whole number of steps: 2.5, NaN, inf
    and -1 are rejected, 4.0 runs."""
    sys = _system(DT)
    for horizon in (2.5, math.nan, math.inf, -1):
        monkeypatch.setitem(HORIZON, DT, horizon)
        with pytest.raises(InputError, match="integer"):
            ENTRY_POINTS[name][1](sys, _scheduling(DT), monkeypatch)
    monkeypatch.setitem(HORIZON, DT, 4.0)
    ENTRY_POINTS[name][1](sys, _scheduling(DT), monkeypatch)


def _ct_window_cases():
    for name, (domains, _) in ENTRY_POINTS.items():
        if CT not in domains or name == "freeze_scheduling":
            continue
        for what in ("end time", "step"):
            # the search for a revealing scheduling takes no step
            if what == "step" and name == "find_revealing_scheduling":
                continue
            for value in (math.nan, math.inf, 0.0):
                yield pytest.param(name, what, value, id=f"{name}-{what.replace(' ', '_')}-{value}")


@pytest.mark.parametrize("name,what,value", list(_ct_window_cases()))
def test_bad_ct_window_rejected(name, what, value, monkeypatch):
    """A CT end time and step are finite and positive."""
    if what == "step":
        monkeypatch.setitem(globals(), "STEP", value)
    else:
        monkeypatch.setitem(HORIZON, CT, value)
    with pytest.raises(InputError, match=f"CT {what} must be finite and positive"):
        ENTRY_POINTS[name][1](_system(CT), _scheduling(CT), monkeypatch)


@pytest.mark.parametrize("window", [2.7, 0, math.nan])
def test_unobservable_reveal_checks_the_window(worked_example, window):
    """No scheduling reveals an unobservable system's state, yet a bad
    window is an input error, not an empty search."""
    with pytest.raises(InputError, match="DT (horizon|window)"):
        find_revealing_scheduling(worked_example, 5, window, 0)


class TestSamplesRead:
    """The region is checked on the samples a window reads, and no others."""

    def test_dt_sample_past_the_window_ignored(self, constant_2state):
        u = Signal.dt(np.zeros((5, 1)))
        inside = np.array([[0.5], [-0.5], [1.0], [0.0], [0.25]])
        p = Signal.dt(np.vstack([inside, [[3.0]]]))
        got = simulate_dt(constant_2state, [1.0, 1.0], u, p, 4)
        ref = simulate_dt(constant_2state, [1.0, 1.0], u, Signal.dt(inside), 4)
        assert np.array_equal(got.x.values, ref.x.values)
        assert np.array_equal(got.y.values, ref.y.values)
        with pytest.raises(InputError, match="first at index 5"):
            simulate_dt(constant_2state, [1.0, 1.0], Signal.dt(np.zeros((6, 1))), p, 5)

    def test_ct_constant_node_past_the_window_ignored(self):
        sys = _system(CT)
        u = Signal.ct_constant(np.zeros(sys.n_u), 2.0)
        p = Signal.ct([0.0, 0.5, 2.0], [[0.2, 0.1], [-0.3, 0.4], [3.0, 0.0]])
        inside = Signal.ct([0.0, 0.5], [[0.2, 0.1], [-0.3, 0.4]])
        got = simulate_ct(sys, np.ones(sys.n_x), u, p, 1.0, STEP)
        ref = simulate_ct(sys, np.ones(sys.n_x), u, inside, 1.0, STEP)
        assert np.array_equal(got.y.values, ref.y.values)
        # the window [0, 2] ends on the node, whose value it never reads
        simulate_ct(sys, np.ones(sys.n_x), u, p, 2.0, STEP)
        with pytest.raises(InputError, match="first at index 2"):
            simulate_ct(sys, np.ones(sys.n_x), u, p, 2.5, STEP)

    def test_ct_linear_reads_the_first_node_at_or_after_the_window(self):
        sys = _system(CT)
        u = Signal.ct_constant(np.zeros(sys.n_u), 3.0)
        values = [[0.2, 0.1], [-0.3, 0.4], [0.5, 0.5], [3.0, 0.0]]
        p = Signal.ct([0.0, 0.5, 1.5, 3.0], values, PIECEWISE_LINEAR)
        simulate_ct(sys, np.ones(sys.n_x), u, p, 1.0, STEP)
        simulate_ct(sys, np.ones(sys.n_x), u, p, 1.5, STEP)
        with pytest.raises(InputError, match="first at index 3"):
            simulate_ct(sys, np.ones(sys.n_x), u, p, 1.6, STEP)

    @pytest.mark.parametrize("interpolation", [None, PIECEWISE_CONSTANT, PIECEWISE_LINEAR])
    def test_freezing_checks_every_sample(self, interpolation):
        values = [[0.1, 0.2], [0.3, 0.4], [3.0, 0.0]]
        if interpolation is None:
            sys, p = _system(DT), Signal.dt(values)
        else:
            sys, p = _system(CT), Signal.ct([0.0, 0.5, 2.0], values, interpolation)
        with pytest.raises(InputError, match="first at index 2"):
            freeze_scheduling(sys, p)
