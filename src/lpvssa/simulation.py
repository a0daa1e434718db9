"""Trajectory generation: exact DT recursion and fixed-step RK4 in CT.

One front end, :func:`_step_maps`, picks the step rule for every window
and returns the maps of ``x_{k+1} = M_k x_k + c_k``: ``M_k = A(p(k))`` and
``c_k = B(p(k)) u(k)`` in DT, the RK4 maps of :func:`rk4_on_mesh` in CT,
with signals and matrices evaluated along the whole horizon in one batch.
Simulation, transition matrices and the free-response map of
:func:`_window` (initial-state matching, equivalence trials and window
observability, in DT and CT alike) share it, then :func:`_propagate` (the
only loop in Python) and the ``C x + D u`` readout of :func:`_outputs`.

The CT integrator is classical 4th-order Runge-Kutta on a mesh that
refines a uniform grid with the signals' breakpoints, so no step
straddles a discontinuity.  Piecewise-constant signals take their segment
value (the value at the step midpoint) at every stage; piecewise-linear
signals their values at the step's start, midpoint and end, which keeps
the nominal order.  The right-hand side is linear in the state, so each
RK4 step is an affine map, and :func:`rk4_on_mesh` assembles the maps of
all steps at once: the stage times are unchanged, only rounding differs.
"""

from __future__ import annotations

import math

import numpy as np

from .core import LpvSsa, TimeDomain
from .errors import InputError
from .signals import PIECEWISE_CONSTANT, PIECEWISE_LINEAR, Signal, Trajectory

__all__ = [
    "simulate_dt",
    "simulate_ct",
    "io_response",
    "error_system",
    "transition_matrices_dt",
    "transition_matrices_ct",
    "integration_mesh",
]


def _check_signature(sys1: LpvSsa, sys2: LpvSsa) -> None:
    if sys1.signature() != sys2.signature():
        raise InputError(
            "systems must share n_u, n_y, n_p and time domain: "
            f"{sys1.signature()} vs {sys2.signature()}"
        )
    if not (
        np.allclose(sys1.region.lower, sys2.region.lower)
        and np.allclose(sys1.region.upper, sys2.region.upper)
    ):
        raise InputError("systems must share the scheduling region")


def _check_signals(sys: LpvSsa, p: Signal, horizon, u: Signal = None) -> None:
    """The one validation of a (system, signal, window) triple; InputError if not.

    The scheduling ``p``, and the input ``u`` when given, must be in the
    system's time domain, have its ``n_p`` (``n_u``) columns and cover
    ``[0, horizon]``, a DT horizon must be nonnegative, and every sample of
    ``p`` that the window reads must lie in the scheduling region (to
    ``1e-12``): in DT the samples ``0 .. horizon``, in CT sample 0, the
    samples before ``horizon`` and, for a piecewise-linear ``p``, the
    first node at or after it.
    """
    if sys.domain == TimeDomain.DT and int(horizon) < 0:
        raise InputError("n_steps must be nonnegative")
    for name, sig, dim in [("scheduling", p, sys.n_p), ("input", u, sys.n_u)]:
        if sig is None:
            continue
        if sig.domain != sys.domain:
            raise InputError(f"{name} signal time domain must match the system")
        if sig.dim != dim:
            raise InputError(f"{name} signal has dimension {sig.dim}, expected {dim}")
        if not sig.covers(horizon):
            raise InputError(f"{name} signal does not cover the requested horizon")
    if sys.domain == TimeDomain.DT:
        last = int(horizon)
    else:
        last = int(np.searchsorted(p.times, float(horizon), side="left"))
        last = last if p.interpolation == PIECEWISE_LINEAR else max(last - 1, 0)
    bad = p.restrict_check(sys.region)
    bad = bad[bad <= last]
    if bad.size:
        raise InputError(
            f"{bad.size} scheduling sample(s) outside the region (first at index {bad[0]})"
        )


def _check_x0(sys: LpvSsa, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (sys.n_x,):
        if x0.size == 1 and x0[0] == 0.0:
            return np.zeros(sys.n_x)  # scalar 0 shorthand for the origin
        raise InputError(f"initial state has shape {x0.shape}, expected ({sys.n_x},)")
    return x0


def simulate_dt(
    sys: LpvSsa,
    x0,
    u: Signal,
    p: Signal,
    n_steps: int,
) -> Trajectory:
    """Run the exact DT recursion for ``t = 0 .. n_steps``.

    ``x(t+1) = A(p(t)) x(t) + B(p(t)) u(t)`` and
    ``y(t) = C(p(t)) x(t) + D(p(t)) u(t)``, in double precision with no
    rounding beyond the arithmetic itself.

    Parameters
    ----------
    sys : LpvSsa
        Discrete-time system.
    x0 : array_like, shape (n_x,)
    u, p : Signal
        Defined for every step up to ``n_steps``.
    n_steps : int
        Number of recursion steps; the trajectory holds ``n_steps + 1``
        aligned state/output samples.

    Returns
    -------
    Trajectory

    Signals that :func:`_check_signals` rejects on the horizon, a
    scheduling sample outside the region included, raise InputError.
    """
    if sys.domain != TimeDomain.DT:
        raise InputError("simulate_dt needs a DT system")
    _check_signals(sys, p, n_steps, u)
    ks, M, c = _step_maps(sys, p, n_steps, u=u)
    xs = _propagate(M, _check_x0(sys, x0), c)
    P = p.values_at(ks)
    ys = _outputs(sys, P, sys.C.at_points(P), u.values_at(ks), xs)
    return Trajectory(x=Signal.dt(xs), y=Signal.dt(ys))


def integration_mesh(t_end: float, step: float, *signals: Signal) -> np.ndarray:
    """Uniform mesh on [0, t_end] refined with the signals' breakpoints."""
    t_end = float(t_end)
    step = float(step)
    if t_end <= 0:
        raise InputError("t_end must be positive")
    if step <= 0:
        raise InputError("step must be positive")
    n = max(1, math.ceil(t_end / step - 1e-9))
    mesh = np.linspace(0.0, t_end, n + 1)
    extra = []
    for sig in signals:
        if sig.times is not None:
            ts = sig.times
            extra.append(ts[(ts > 0.0) & (ts < t_end)])
    if extra:
        mesh = np.unique(np.concatenate([mesh] + extra))
        # merge nodes closer than a relative tolerance, keeping the endpoints
        keep = np.ones(mesh.size, dtype=bool)
        tol = 1e-12 * max(1.0, t_end)
        keep[1:] = np.diff(mesh) > tol
        keep[-1] = True
        if mesh.size > 1 and mesh[-1] - mesh[-2] <= tol:
            keep[-2] = False
        mesh = mesh[keep]
    return mesh


def _matvec(Ms: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Row-wise products ``Ms[k] @ vs[k]`` of a matrix and a vector stack."""
    return np.matmul(Ms, vs[:, :, None])[:, :, 0]


def _propagate(M: np.ndarray, X0, c: np.ndarray = None) -> np.ndarray:
    """Iterates ``X_0 .. X_K`` of ``X_{k+1} = M_k X_k + c_k`` (no ``c``: zero)."""
    X = np.array(X0, dtype=float)
    out = np.empty((M.shape[0] + 1,) + X.shape)
    out[0] = X
    # np.dot runs the same BLAS kernel as ``@`` with less dispatch per call
    if c is None:
        for k, Mk in enumerate(M, 1):
            X = np.dot(Mk, X)
            out[k] = X
    else:
        for k, (Mk, ck) in enumerate(zip(M, c), 1):
            X = np.dot(Mk, X) + ck
            out[k] = X
    return out


def _step_maps(sys: LpvSsa, p: Signal, horizon, step: float = None, u: Signal = None):
    """Sample times ``(K + 1,)`` and maps ``x_{k+1} = M_k x_k + c_k`` of a window.

    The DT recursion on ``0 .. horizon``, or :func:`rk4_on_mesh` on the
    :func:`integration_mesh` of ``p`` and ``u``; without ``u``, ``c`` is None.
    """
    if sys.domain == TimeDomain.CT:
        mesh = integration_mesh(horizon, step, *(s for s in (u, p) if s is not None))
        M, c = rk4_on_mesh(sys, p, mesh, u)
        return mesh, M, c
    ks = np.arange(int(horizon) + 1)
    P = p.values_at(ks[:-1])
    c = None if u is None else _matvec(sys.B.at_points(P), u.values_at(ks[:-1]))
    return ks, sys.A.at_points(P), c


def _outputs(sys: LpvSsa, P: np.ndarray, C: np.ndarray, U: np.ndarray, xs: np.ndarray):
    """Outputs ``C[k] xs[k] + D(P[k]) U[k]``, where ``C`` is ``sys.C`` at ``P``."""
    return _matvec(C, xs) + _matvec(sys.D.at_points(P), U)


def _window(sys: LpvSsa, p: Signal, horizon, step: float = None, u: Signal = None):
    """Free-response map ``O`` and forced output ``f`` of ``sys`` on a window.

    One :func:`_step_maps` call, one read of ``p`` at the sample times and
    one evaluation of ``C`` on it feed both.  ``O`` stacks the rows
    ``C(p(t_k)) Phi(t_k, 0)`` over the samples (the DT steps ``0 ..
    horizon``, or the nodes of the CT integration mesh); from ``x0`` the
    sampled output is ``f + O x0``, reshaped to ``f``'s ``(samples, n_y)``.
    Without ``u``, ``f`` is None.
    """
    times, M, c = _step_maps(sys, p, horizon, step, u)
    P = p.values_at(times)
    C = sys.C.at_points(P)
    CPhi = C @ _propagate(M, np.eye(sys.n_x))
    O = CPhi.reshape(CPhi.shape[0] * sys.n_y, sys.n_x)
    if u is None:
        return O, None
    return O, _outputs(sys, P, C, u.values_at(times), _propagate(M, np.zeros(sys.n_x), c))


def _stage_values(sig: Signal, mesh: np.ndarray) -> tuple:
    """Values of ``sig`` at ``a``, the midpoint and ``b`` of every step ``[a, b]``.

    A piecewise-constant signal takes its segment value (at the midpoint)
    at every stage, and the three ``(K, dim)`` arrays are one.
    """
    a, b = mesh[:-1], mesh[1:]
    if sig.interpolation == PIECEWISE_CONSTANT:
        v = sig.values_at(0.5 * (a + b))
        return v, v, v
    return sig.values_at(a), sig.values_at(a + 0.5 * (b - a)), sig.values_at(b)


def _at_stages(f, stages: tuple) -> tuple:
    """Affine function ``f`` at the three stage points of :func:`_stage_values`."""
    if stages[0] is stages[2]:
        v = f.at_points(stages[0])
        return v, v, v
    return tuple(f.at_points(P) for P in stages)


def rk4_on_mesh(sys: LpvSsa, p: Signal, mesh: np.ndarray, u: Signal = None) -> tuple:
    """Classical RK4 for ``dx/dt = A(p) x + B(p) u`` as one affine map per step.

    Step ``k`` (``h = b - a``) is exactly ``x_{k+1} = M_k x_k + c_k``: with
    ``A_i`` the state matrix at stage ``i``, the stage maps ``S_1 = I``,
    ``S_{i+1} = I + nu_i h K_i`` (``nu = 1/2, 1/2, 1``) and ``K_i = A_i S_i``
    give ``M = I + h/6 (K_1 + 2 K_2 + 2 K_3 + K_4)``, and ``c`` is built the
    same way from the stage forcing ``B_i u_i``.  Without ``u`` the system
    is homogeneous and ``c`` is None.  ``mesh`` must refine the breakpoints
    of ``p`` and ``u``.

    Returns
    -------
    (M, c)
        ``(K, n_x, n_x)``, and ``(K, n_x)`` or None.
    """
    h = np.diff(mesh)[:, None, None]
    hv = h[:, 0]
    eye = np.eye(sys.n_x)
    ps = _stage_values(p, mesh)
    A = _at_stages(sys.A, ps)
    K = A[0]
    M, c = eye + (h / 6.0) * K, None
    if u is not None:
        F = tuple(map(_matvec, _at_stages(sys.B, ps), _stage_values(u, mesh)))
        g = F[0]
        c = (hv / 6.0) * g
    # stages 2 to 4: (stage point, node of the previous stage, weight)
    for j, nu, w in ((1, 0.5, 2.0), (1, 0.5, 2.0), (2, 1.0, 1.0)):
        K = A[j] @ (eye + (nu * h) * K)
        M += (w / 6.0 * h) * K
        if u is not None:
            g = _matvec(A[j], (nu * hv) * g) + F[j]
            c += (w / 6.0 * hv) * g
    return M, c


def simulate_ct(
    sys: LpvSsa,
    x0,
    u: Signal,
    p: Signal,
    t_end: float,
    step: float,
) -> Trajectory:
    """Integrate the CT system on [0, t_end] with fixed-step RK4.

    The output is sampled on the integration mesh (the uniform grid plus
    the signals' breakpoints).  Local truncation is order 4; accuracy is
    controlled by ``step`` and verified by the step-halving convergence
    test in the suite.

    Returns
    -------
    Trajectory
        State and output on the integration mesh.
    """
    if sys.domain != TimeDomain.CT:
        raise InputError("simulate_ct needs a CT system")
    _check_signals(sys, p, t_end, u)
    mesh, M, c = _step_maps(sys, p, t_end, step, u)
    xs = _propagate(M, _check_x0(sys, x0), c)
    P = p.values_at(mesh)
    ys = _outputs(sys, P, sys.C.at_points(P), u.values_at(mesh), xs)
    return Trajectory(
        x=Signal.ct(mesh, xs, PIECEWISE_CONSTANT), y=Signal.ct(mesh, ys, PIECEWISE_CONSTANT)
    )


def io_response(
    sys: LpvSsa,
    x0,
    u: Signal,
    p: Signal,
    horizon,
    *,
    step: float = 1e-3,
) -> Signal:
    """Finite-horizon output of the system from ``x0`` under ``(u, p)``.

    This is the sampled input-output map induced by the initial state:
    the ``y`` component of the simulated trajectory.  ``horizon`` is the
    number of steps in DT and the end time in CT (where ``step`` selects
    the integrator mesh).
    """
    if sys.domain == TimeDomain.DT:
        return simulate_dt(sys, x0, u, p, horizon).y
    return simulate_ct(sys, x0, u, p, horizon, step).y


def transition_matrices_dt(sys: LpvSsa, p: Signal, n_steps: int) -> np.ndarray:
    """State-transition matrices ``Phi(t, 0)`` for ``t = 0 .. n_steps`` (DT)."""
    if sys.domain != TimeDomain.DT:
        raise InputError("transition_matrices_dt needs a DT system")
    _check_signals(sys, p, n_steps)
    _, M, _ = _step_maps(sys, p, n_steps)
    return _propagate(M, np.eye(sys.n_x))


def transition_matrices_ct(sys: LpvSsa, p: Signal, t_end: float, step: float) -> tuple:
    """Mesh and RK4-integrated ``Phi(t, 0)`` on [0, t_end] (CT).

    Returns ``(mesh, Phi)`` with ``Phi[k]`` the transition matrix at
    ``mesh[k]``.
    """
    if sys.domain != TimeDomain.CT:
        raise InputError("transition_matrices_ct needs a CT system")
    _check_signals(sys, p, t_end)
    mesh, M, _ = _step_maps(sys, p, t_end, step)
    return mesh, _propagate(M, np.eye(sys.n_x))


def error_system(sys1: LpvSsa, sys2: LpvSsa) -> LpvSsa:
    """Difference system whose i/o functions subtract those of the operands.

    Block-diagonal state coupling, stacked inputs, and the output
    ``y = y_1 - y_2``: from a stacked initial state ``[x0_1; x0_2]`` its
    output equals ``io_response(sys1, x0_1) - io_response(sys2, x0_2)``
    for every shared ``(u, p)``.
    """
    _check_signature(sys1, sys2)
    Z = np.zeros((sys1.n_x, sys2.n_x))
    A = [np.block([[A1, Z], [Z.T, A2]]) for A1, A2 in zip(sys1.A.coeffs, sys2.A.coeffs)]
    B = [np.vstack(Bs) for Bs in zip(sys1.B.coeffs, sys2.B.coeffs)]
    C = [np.hstack([C1, -C2]) for C1, C2 in zip(sys1.C.coeffs, sys2.C.coeffs)]
    D = [D1 - D2 for D1, D2 in zip(sys1.D.coeffs, sys2.D.coeffs)]
    return LpvSsa.from_matrices(A, B, C, D, sys1.region, sys1.domain)
