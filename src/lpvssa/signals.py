"""Sampled input/scheduling signals and simulated trajectories.

Discrete-time signals are finite lists of vectors indexed by step.
Continuous-time signals are values on a strictly increasing mesh starting
at 0 with an interpolation rule: piecewise-constant (left-continuous, the
last value held beyond the final node) or piecewise-linear (defined only
up to the final node).  :meth:`Signal.values_at` is the one lookup rule,
reading a signal at many times in one call; :meth:`Signal.value_at` is
its one-time case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SchedulingRegion, TimeDomain
from .errors import InputError

__all__ = [
    "Signal",
    "Trajectory",
    "PIECEWISE_CONSTANT",
    "PIECEWISE_LINEAR",
    "random_scheduling",
    "random_input",
]

PIECEWISE_CONSTANT = "piecewise-constant"
PIECEWISE_LINEAR = "piecewise-linear"


@dataclass(frozen=True)
class Signal:
    """Sampled trajectory of one vector-valued signal.

    Use :meth:`dt` / :meth:`ct` to construct; the plain constructor checks
    the invariants of whichever representation is requested.
    """

    domain: TimeDomain
    values: np.ndarray
    times: np.ndarray = None
    interpolation: str = None

    def __init__(self, domain, values, times=None, interpolation=None):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise InputError("signal values must be a (samples, dim) array")
        if not np.all(np.isfinite(values)):
            raise InputError("signal values must be finite")
        if domain == TimeDomain.DT:
            if values.shape[0] < 1:
                raise InputError("a DT signal needs at least one sample")
            if times is not None or interpolation is not None:
                raise InputError("DT signals carry no mesh or interpolation rule")
        else:
            times = np.atleast_1d(np.asarray(times, dtype=float))
            if times.ndim != 1 or times.shape[0] != values.shape[0]:
                raise InputError("CT mesh length must match the number of samples")
            if times.shape[0] < 1 or times[0] != 0.0:
                raise InputError("CT mesh must start at t = 0")
            if np.any(np.diff(times) <= 0):
                raise InputError("CT mesh must be strictly increasing")
            if interpolation not in (PIECEWISE_CONSTANT, PIECEWISE_LINEAR):
                raise InputError(
                    f"unknown interpolation rule {interpolation!r}; expected "
                    f"{PIECEWISE_CONSTANT!r} or {PIECEWISE_LINEAR!r}"
                )
            times = times.copy()
            times.setflags(write=False)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "interpolation", interpolation)

    @classmethod
    def dt(cls, values) -> "Signal":
        """Discrete-time signal from a (steps, dim) array."""
        return cls(TimeDomain.DT, values)

    @classmethod
    def ct(cls, times, values, interpolation=PIECEWISE_CONSTANT) -> "Signal":
        """Continuous-time signal on a mesh with an interpolation rule."""
        return cls(TimeDomain.CT, values, times=times, interpolation=interpolation)

    @classmethod
    def dt_constant(cls, value, n_steps: int) -> "Signal":
        value = np.atleast_1d(np.asarray(value, dtype=float))
        return cls.dt(np.tile(value, (n_steps + 1, 1)))

    @classmethod
    def ct_constant(cls, value, t_end: float) -> "Signal":
        value = np.atleast_1d(np.asarray(value, dtype=float))
        return cls.ct([0.0, float(t_end)], np.tile(value, (2, 1)))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    def covers(self, horizon) -> bool:
        """Whether the signal is defined on the whole requested window."""
        if self.domain == TimeDomain.DT:
            return self.n_samples >= int(horizon) + 1
        if self.interpolation == PIECEWISE_CONSTANT:
            return True
        return self.times[-1] >= float(horizon) - 1e-12

    def value_at(self, t):
        """Signal value at one time instant, ``values_at([t])[0]``."""
        return self.values_at([t])[0]

    def values_at(self, ts) -> np.ndarray:
        """Signal values at many time instants, shape ``(K, dim)``: the one lookup rule.

        DT: the step index ``int(t)`` (fractional times truncate toward
        zero), which must lie in ``0 .. n_samples - 1``; InputError if it
        does not or if ``t`` is not finite.  CT times must be finite
        (InputError if not).  CT piecewise-constant: the left-continuous
        step function (jumps at mesh nodes take the older value), the
        first value before ``t = 0`` and the last one held beyond the
        final node.  CT piecewise-linear: linear interpolation
        (``np.interp``, once per dimension), the endpoint values outside
        the mesh.
        """
        ts = np.asarray(ts).reshape(-1)
        if self.domain == TimeDomain.DT:
            inside = (ts > -1) & (ts < self.n_samples)  # false for NaN too
            if not inside.all():
                raise InputError(
                    f"step {ts[~inside][0]:g} outside the signal range "
                    f"0..{self.n_samples - 1}"
                )
            return self.values[ts.astype(np.int64)]
        ts = ts.astype(float)
        if not np.isfinite(ts).all():
            raise InputError(f"time {ts[~np.isfinite(ts)][0]:g} is not finite")
        if self.interpolation == PIECEWISE_CONSTANT:
            idx = np.searchsorted(self.times, ts, side="left") - 1
            return self.values[np.maximum(idx, 0)]
        out = np.empty((ts.size, self.dim))
        for j in range(self.dim):
            out[:, j] = np.interp(ts, self.times, self.values[:, j])
        return out


@dataclass(frozen=True)
class Trajectory:
    """State and output signals aligned on one time grid."""

    x: Signal
    y: Signal

    def __post_init__(self):
        if self.x.domain != self.y.domain:
            raise InputError("state and output must share the time domain")
        if self.x.n_samples != self.y.n_samples:
            raise InputError("state and output must be aligned on the same grid")

    @property
    def times(self):
        return self.x.times


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed it rejects is an InputError naming it."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid seed {seed!r}: {exc}") from exc


def _random_window_signal(draw, domain: TimeDomain, n_steps, t_end, segments) -> Signal:
    """Signal of ``draw(count)`` rows: ``n_steps + 1`` DT samples, or
    ``segments`` piecewise-constant pieces on a uniform mesh over ``[0, t_end]``."""
    if domain == TimeDomain.DT:
        if n_steps is None:
            raise InputError("n_steps is required for a DT signal")
        return Signal.dt(draw(n_steps + 1))
    if t_end is None:
        raise InputError("t_end is required for a CT signal")
    times = np.linspace(0.0, float(t_end), segments, endpoint=False)
    return Signal.ct(times, draw(segments))


def random_scheduling(
    region: SchedulingRegion,
    rng: np.random.Generator,
    domain: TimeDomain,
    *,
    n_steps: int = None,
    t_end: float = None,
    segments: int = 8,
) -> Signal:
    """Random admissible scheduling signal, uniform over the region.

    DT: i.i.d. uniform per step (``n_steps + 1`` samples).  CT:
    piecewise-constant on a uniform mesh of ``segments`` pieces over
    ``[0, t_end]``.
    """
    return _random_window_signal(
        lambda count: region.sample(rng, count), domain, n_steps, t_end, segments
    )


def random_input(
    dim: int,
    rng: np.random.Generator,
    domain: TimeDomain,
    *,
    n_steps: int = None,
    t_end: float = None,
    segments: int = 8,
) -> Signal:
    """Random input signal with standard-normal values (piecewise-constant in CT)."""
    return _random_window_signal(
        lambda count: rng.standard_normal((count, dim)), domain, n_steps, t_end, segments
    )
