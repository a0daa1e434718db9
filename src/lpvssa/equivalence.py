"""Isomorphism computation and empirical behavior-equivalence testing.

A constant invertible ``T`` is an isomorphism from ``sys1`` to ``sys2``
when ``A'_i T = T A_i``, ``B'_i = T B_i``, ``C'_i T = C_i`` and
``D'_i = D_i`` for every coefficient index (primes denoting ``sys2``).
Minimal regular realizations of one behavior are related by exactly one
such transform, which is what :func:`find_isomorphism` estimates.  Its
stacks come from the one observability kernel, run on ``sys2`` with
``sys1`` carried along, and they and both least-squares solves (the
transform, and the matched initial state of :func:`match_initial_state`)
run at the one rank floor ``ITERATION_RTOL`` of :mod:`~lpvssa.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    ITERATION_RTOL,
    RcCertificate,
    _observability_iteration,
    check_rc,
    is_observable,
)
from .core import LpvSsa, TimeDomain
from .errors import InputError
from .signals import Signal, _rng, random_input, random_scheduling
from .simulation import (
    _check_signals,
    _check_signature,
    _check_window,
    _check_x0,
    _grid,
    _sample,
    _sampled,
    _window,
)

__all__ = [
    "IsoResult",
    "EquivalenceReport",
    "find_isomorphism",
    "check_isomorphism",
    "match_initial_state",
    "behavior_equivalence_empirical",
]

CONDITION_CAP = 1e12

# Entries per propagated array of one chunk of trials in
# behavior_equivalence_empirical (512 KiB of doubles): a chunk is one batch
# of windows per system, whose largest arrays hold about
# ``samples * (n_x + 1)**2`` doubles per trial.
_TRIAL_DOUBLES = 1 << 16
TRIAL_CT_SEGMENTS = 10  # pieces of the piecewise-constant CT trial signals


@dataclass(frozen=True)
class IsoResult:
    """Isomorphism verdict with the estimated transform and its residual.

    ``residual`` is the maximum relative Frobenius error over the four
    defining equation families.  ``verdict`` is ``"isomorphic"`` (small
    residual, well-conditioned ``T``), ``"not-isomorphic"`` (with the
    obstruction cited), or ``"inconclusive"`` (an unobservable operand
    makes the transform non-unique, or ``T`` cannot be certified
    invertible).
    """

    T: np.ndarray
    residual: float
    verdict: str
    obstruction: str = None
    condition_number: float = None


def _check_tol(tol) -> None:
    """A residual tolerance must be finite and positive (InputError)."""
    if not 0.0 < tol < np.inf:  # False for NaN too
        raise InputError(f"tolerance must be finite and positive, got {tol!r}")


def _relerr(X: np.ndarray, Y: np.ndarray) -> float:
    num = float(np.linalg.norm(X - Y))
    den = 1.0 + max(float(np.linalg.norm(X)), float(np.linalg.norm(Y)))
    return num / den


def check_isomorphism(sys1: LpvSsa, sys2: LpvSsa, T: np.ndarray) -> float:
    """Residual of ``T`` as a candidate isomorphism from sys1 to sys2.

    Maximum over coefficients of the relative Frobenius errors of the
    four equation families; exactly 0 for an exact isomorphism.
    """
    _check_signature(sys1, sys2)
    T = np.asarray(T, dtype=float)
    n1, n2 = sys1.n_x, sys2.n_x
    if n1 != n2 or T.shape != (n2, n1):
        raise InputError(
            f"transform must be {n2}x{n1} matching both state dimensions, got {T.shape}"
        )
    worst = 0.0
    for i in range(sys1.n_p + 1):
        worst = max(
            worst,
            _relerr(sys2.A.coeffs[i] @ T, T @ sys1.A.coeffs[i]),
            _relerr(sys2.B.coeffs[i], T @ sys1.B.coeffs[i]),
            _relerr(sys2.C.coeffs[i] @ T, sys1.C.coeffs[i]),
            _relerr(sys2.D.coeffs[i], sys1.D.coeffs[i]),
        )
    return worst


def find_isomorphism(sys1: LpvSsa, sys2: LpvSsa, *, tol: float = 1e-8) -> IsoResult:
    """Estimate the isomorphism from ``sys1`` to ``sys2`` and judge it.

    The transform solves the least-squares problem ``Q2 T = Q1`` at the
    ``1e-10`` floor.  ``Q2`` is the row basis that the observability kernel
    ends with on ``sys2``, and ``Q1`` is ``sys1``'s stack carried through
    the same row operations (:func:`~lpvssa.analysis._observability_iteration`
    with ``carried``), so ``Q2 T = Q1`` holds for every isomorphism ``T``
    and ranks are decided on ``sys2`` alone: a pair that is isomorphic only
    to within more than the floor still gets its best transform, and
    neither ``(n_p + 1)^n``-block matrix is formed.  ``sys2`` is observable
    exactly when ``Q2`` has ``n`` rows; ``sys1`` is tested only when the
    transform fails.  The residual then evaluates all four equation
    families (covering the B/D equations the solve does not enforce).
    ``tol`` must be finite and positive (InputError), so every verdict can
    be reached.

    Returns
    -------
    IsoResult
        With ``verdict == "inconclusive"`` when either system is
        unobservable and the residual is large, since transforms between
        unobservable realizations are not unique.
    """
    _check_signature(sys1, sys2)
    _check_tol(tol)
    n1, n2 = sys1.n_x, sys2.n_x
    if n1 != n2:
        return IsoResult(
            T=None,
            residual=np.inf,
            verdict="not-isomorphic",
            obstruction=f"dimension mismatch ({n1} vs {n2})",
        )
    d_err = max(
        _relerr(d2, d1) for d1, d2 in zip(sys1.D.coeffs, sys2.D.coeffs)
    )
    if d_err > tol:
        return IsoResult(
            T=None,
            residual=d_err,
            verdict="not-isomorphic",
            obstruction="feedthrough (D) coefficients differ",
        )
    n = n1
    if n == 0:
        return IsoResult(
            T=np.zeros((0, 0)),
            residual=d_err,
            verdict="isomorphic",
            condition_number=1.0,
        )
    Q = _observability_iteration(sys2.C.coeffs, sys2.A.coeffs, (sys1.C.coeffs, sys1.A.coeffs))[0]
    T = np.linalg.lstsq(Q[:, :n], Q[:, n:], rcond=ITERATION_RTOL)[0]
    residual = check_isomorphism(sys1, sys2, T)
    cond = float(np.linalg.cond(T))
    if residual < tol and cond < CONDITION_CAP:
        return IsoResult(
            T=T, residual=residual, verdict="isomorphic", condition_number=cond
        )
    observable = Q.shape[0] == n and is_observable(sys1)[0]
    if residual >= tol and observable:
        return IsoResult(
            T=T,
            residual=residual,
            verdict="not-isomorphic",
            obstruction=(
                f"residual {residual:.3e} above tolerance {tol:.1e} "
                "with both systems observable"
            ),
            condition_number=cond,
        )
    why = []
    if not observable:
        why.append("an unobservable operand makes the transform non-unique")
    if cond >= CONDITION_CAP:
        why.append(f"estimated transform is ill-conditioned (cond {cond:.2e})")
    return IsoResult(
        T=T,
        residual=residual,
        verdict="inconclusive",
        obstruction="; ".join(why),
        condition_number=cond,
    )


def _match(w_from, x0, w_to):
    """Least-squares state of window ``w_to`` reproducing ``w_from``'s output from ``x0``."""
    (O_from, f_from), (O_to, f_to) = w_from, w_to
    y = f_from + (O_from @ x0).reshape(f_from.shape)
    x0_to = np.linalg.lstsq(O_to, (y - f_to).reshape(-1), rcond=ITERATION_RTOL)[0]
    y_match = f_to + (O_to @ x0_to).reshape(y.shape)
    # both norms of y / m: the squared norm of a finite but huge y overflows
    m = float(np.max(np.abs(y), initial=1.0))
    scale = np.sqrt(y.shape[0]) / m + float(np.linalg.norm(y / m))
    return x0_to, float(np.linalg.norm((y - y_match) / m)) / scale


def match_initial_state(
    sys_from: LpvSsa,
    x0,
    sys_to: LpvSsa,
    u: Signal,
    p: Signal,
    horizon,
    *,
    step: float = 1e-3,
):
    """Best initial state of ``sys_to`` reproducing ``sys_from``'s output.

    One window per system under the shared ``(u, p)``, both from one read
    of the signals: its free-response map ``O`` and forced output ``f`` on
    the DT steps, or in CT on the mesh that refines both signals.
    ``sys_from`` outputs ``y = f_from + O_from x0``, and ``O_to x = y -
    f_to`` is solved by least squares, rank-revealing at the ``1e-10``
    floor (``ITERATION_RTOL``), as short windows can make ``O_to``
    rank-deficient.

    Returns
    -------
    (x0_to, residual)
        The minimizer and the output mismatch: root-mean-square error per
        sample, relative to the output scale of the window
        (``1 + RMS(y)``), so the figure stays meaningful when
        trajectories grow by many orders of magnitude over the horizon.
    """
    _check_signature(sys_from, sys_to)
    s = _sampled(sys_from, p, horizon, step, u)
    x0 = _check_x0(sys_from, x0)
    return _match(_window(sys_from, s), x0, _window(sys_to, s))


def _unit_ball(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0)
    v = rng.standard_normal(n)
    return v * (rng.uniform() ** (1.0 / n) / np.linalg.norm(v))


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the randomized behavior-equivalence test.

    A pass is evidence, not proof: only finitely many random signal
    triples are sampled, while behavior equality quantifies over all of
    them (``note`` restates this).  ``residuals`` holds one
    ``(from sys1, from sys2)`` row per trial.
    """

    trials: int
    horizon: float
    tolerance: float
    seed: int
    residuals: np.ndarray
    max_residual: float
    passed: bool
    rc_sys1: RcCertificate
    rc_sys2: RcCertificate
    note: str


def behavior_equivalence_empirical(
    sys1: LpvSsa,
    sys2: LpvSsa,
    trials: int = 20,
    horizon=None,
    seed: int = 0,
    *,
    tol: float = None,
    step: float = 1e-2,
) -> EquivalenceReport:
    """Randomized two-sided check that two systems share their behavior.

    Each trial draws an initial state in the unit ball, a random input,
    and a random admissible scheduling, then matches the produced output
    with the other system's best initial state — in both directions.  The
    verdict compares the worst residual against ``tol`` (default ``1e-6``
    in DT, ``1e-4`` in CT; default horizon 20 steps / 2.0 time units).
    The regularity certificates of both systems (:func:`check_rc`, the one
    ``check`` reports: certified, refuted with a witness, or undecided)
    are reported because behavior
    equality only coincides with i/o-family equality under regularity.
    The window (``horizon``, and ``step`` in CT) is checked by
    :func:`simulation._check_window` before any signal is drawn.  ``tol``
    (after its default is chosen) must be finite and positive, and a
    ``seed`` that ``np.random.default_rng`` rejects is an InputError.

    All signals are drawn first, trial by trial in the order scheduling,
    input, ``sys1`` state, ``sys2`` state, so a seed gives the same signals
    however the trials are evaluated.  The trials' signals share one
    sample grid (the DT steps, or in CT the integration mesh of
    ``TRIAL_CT_SEGMENTS`` pieces on one uniform mesh), which is decided
    once and sizes the chunks the trials are evaluated in.  A chunk holds
    as many trials as fit in a private budget of ``_TRIAL_DOUBLES``
    doubles per propagated array (at least one trial), so memory stays
    bounded for any ``trials``.  Each chunk's signals are read once (see
    :func:`simulation._sample`), and both systems build their batch of
    windows from those samples (see :func:`simulation._window`).
    """
    _check_signature(sys1, sys2)
    dt = sys1.domain == TimeDomain.DT
    if horizon is None:
        horizon = 20 if dt else 2.0
    if tol is None:
        tol = 1e-6 if dt else 1e-4
    _check_tol(tol)
    if trials < 1:
        raise InputError("trials must be positive")
    _check_window(sys1.domain, horizon, step)
    rng = _rng(seed)
    span = dict(t_end=float(horizon), segments=TRIAL_CT_SEGMENTS)
    span = dict(n_steps=int(horizon)) if dt else span
    ps, us, x1s, x2s = [], [], [], []
    for _ in range(trials):
        ps.append(random_scheduling(sys1.region, rng, sys1.domain, **span))
        us.append(random_input(sys1.n_u, rng, sys1.domain, **span))
        x1s.append(_unit_ball(rng, sys1.n_x))
        x2s.append(_unit_ball(rng, sys2.n_x))
        _check_signals(sys1, ps[-1], horizon, us[-1])
    times = _grid(sys1.domain, horizon, step, tuple(ps), tuple(us))
    chunk = max(1, _TRIAL_DOUBLES // (times.size * (max(sys1.n_x, sys2.n_x) + 1) ** 2))
    residuals = np.zeros((trials, 2))
    for lo in range(0, trials, chunk):
        s = _sample(tuple(ps[lo : lo + chunk]), times, tuple(us[lo : lo + chunk]))
        (O1, f1), (O2, f2) = _window(sys1, s), _window(sys2, s)
        for k, w1, w2 in zip(range(lo, trials), zip(O1, f1), zip(O2, f2)):
            _, residuals[k, 0] = _match(w1, x1s[k], w2)
            _, residuals[k, 1] = _match(w2, x2s[k], w1)
    max_residual = float(residuals.max())
    return EquivalenceReport(
        trials=trials,
        horizon=float(horizon),
        tolerance=tol,
        seed=seed,
        residuals=residuals,
        max_residual=max_residual,
        passed=bool(max_residual < tol),
        rc_sys1=check_rc(sys1),
        rc_sys2=check_rc(sys2),
        note=(
            "pass is empirical evidence over finitely many sampled signals, "
            "not a proof of behavior equality"
        ),
    )
