"""Trajectory generation: the DT recursion and fixed-step RK4 in CT.

Every window reads its signals once.  :func:`_grid` decides the sample
times, the DT steps ``0 .. horizon`` or in CT the :func:`integration_mesh`
that refines the breakpoints of every signal on the window (batch members
included), and :func:`_sample` reads each signal once at those times and,
in CT only, once more at the step midpoints.  Every system on the window
then takes the same plain arrays: :func:`_step_maps` returns the maps of
``x_{k+1} = M_k x_k + c_k`` (``M_k = A(p(k))`` and ``c_k = B(p(k)) u(k)``
in DT, the RK4 maps of :func:`rk4_on_mesh` in CT), with each matrix
function evaluated along the whole horizon in one
:meth:`~lpvssa.core.AffineMatrixFunction.at_points` call.  Simulation,
transition matrices and the free-response map of :func:`_window`
(initial-state matching, equivalence trials and window observability, in
DT and CT alike) share it, then :func:`_propagate` and the ``C x + D u``
readout of :func:`_outputs`.

:func:`_propagate` carries every window of both time domains by one rule
(:func:`_chunk`).  A window of fewer than 72 steps runs the exact
recursion, one step at a time.  A longer one is composed in two levels
(chunks of about ``sqrt(K / 2)`` steps), in about ``sqrt(K)`` batched calls
instead of ``K``; its result is within a stated forward error bound of
the exact recursion, of the order of ``k (n_x + 1)`` roundings at step
``k``, and a window whose composed chunk maps overflow runs the exact
recursion instead.

The window functions also take a *batch*: a tuple of ``B`` scheduling
signals (and of ``B`` inputs) that share one sample grid, the same DT
horizon or one CT integration mesh (that of all the batch's signals).
Their arrays then carry a batch axis right after the time axis (``M`` is
``(K, B, n_x, n_x)``), every coefficient function is evaluated once on the
stacked points, and one propagation carries all ``B`` windows.  Each
batch member's matrices and free-response map are bit-identical to those
of its own window.

The CT integrator is classical 4th-order Runge-Kutta on a mesh that
refines a uniform grid with the signals' breakpoints, so no step
straddles a discontinuity.  Piecewise-constant signals take their segment
value (the midpoint read) at every stage; piecewise-linear signals their
node values at the step's start and end and their midpoint value, which
keeps the nominal order.  The right-hand side is linear in the state, so
each RK4 step is an affine map.  :func:`rk4_on_mesh` builds one map per
distinct step (the same step length and stage values; a
piecewise-constant window repeats a few along each segment), in
cache-sized blocks, and gathers them: the stage times are unchanged, only
rounding differs from a stage-by-stage integration.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .core import _BLOCK_DOUBLES, LpvSsa, TimeDomain
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
    # np.allclose's rule on both bounds at once (regions are finite)
    a = np.concatenate([sys1.region.lower, sys1.region.upper])
    b = np.concatenate([sys2.region.lower, sys2.region.upper])
    if not np.all(np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b)):
        raise InputError("systems must share the scheduling region")


def _check_window(domain: TimeDomain, horizon, step: float = None) -> None:
    """The one rule for a window itself; InputError if it breaks it.

    A DT horizon is a nonnegative whole number of steps (``20.0`` counts
    as one; ``2.5``, NaN and the infinities do not).  A CT end time, and
    the CT step when one is given, are finite and positive.
    """
    if domain == TimeDomain.DT:
        if not (float(horizon).is_integer() and horizon >= 0):
            raise InputError(f"a DT horizon must be a nonnegative integer, got {horizon!r}")
        return
    for name, value in (("end time", horizon), ("step", step)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise InputError(f"a CT {name} must be finite and positive, got {value!r}")


def _check_signals(sys: LpvSsa, p: Signal, horizon, u: Signal = None) -> None:
    """The one validation of a (system, signal, window) triple; InputError if not.

    The window must pass :func:`_check_window` (a DT horizon a nonnegative
    integer, a CT end time finite and positive).  The scheduling ``p``,
    and the input ``u`` when given, must be in the system's time domain,
    have its ``n_p`` (``n_u``) columns and cover ``[0, horizon]``, and
    every sample of ``p`` that the window reads must lie in the scheduling
    region (to ``1e-12``): in DT the samples ``0 .. horizon``, in CT
    sample 0, the samples before ``horizon`` and, for a piecewise-linear
    ``p``, the first node at or after it.
    """
    _check_window(sys.domain, horizon)
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
    read, lo, hi = p.values[: last + 1], sys.region.lower - 1e-12, sys.region.upper + 1e-12
    bad = np.flatnonzero(~np.all((read >= lo) & (read <= hi), axis=1))
    if bad.size:
        raise InputError(
            f"{bad.size} scheduling sample(s) outside the region (first at index {bad[0]})"
        )


def _check_x0(sys: LpvSsa, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (sys.n_x,):
        raise InputError(f"initial state has shape {x0.shape}, expected ({sys.n_x},)")
    if not np.all(np.isfinite(x0)):
        raise InputError("initial state must be finite")
    return x0


def simulate_dt(
    sys: LpvSsa,
    x0,
    u: Signal,
    p: Signal,
    n_steps: int,
) -> Trajectory:
    """Run the DT recursion for ``t = 0 .. n_steps``.

    ``x(t+1) = A(p(t)) x(t) + B(p(t)) u(t)`` and
    ``y(t) = C(p(t)) x(t) + D(p(t)) u(t)``, in double precision.  Fewer
    than 72 steps run step by step, with no rounding beyond that of each
    step; a longer window is composed in two levels, within the bound of
    :func:`_propagate` of the step-by-step states.

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
    _, xs, ys = _simulate(sys, x0, u, p, n_steps)
    return Trajectory(x=Signal.dt(xs), y=Signal.dt(ys))


def integration_mesh(t_end: float, step: float, *signals: Signal) -> np.ndarray:
    """Uniform mesh on [0, t_end] refined with the signals' breakpoints.

    ``t_end`` and ``step`` must pass :func:`_check_window` (finite and
    positive); InputError if not.
    """
    _check_window(TimeDomain.CT, t_end, step)
    t_end, step = float(t_end), float(step)
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
    """Products ``Ms[..., :, :] @ vs[..., :]`` of a matrix and a vector stack."""
    return np.matmul(Ms, vs[..., None])[..., 0]


def _propagate(M: np.ndarray, X0, c: np.ndarray = None, chunk: int = 1) -> np.ndarray:
    """Iterates ``X_0 .. X_K`` of ``X_{k+1} = M_k X_k + c_k`` (no ``c``: zero).

    With ``chunk = 1`` (the default, and every window shorter than
    :func:`_chunk`'s crossover) this is the exact loop.  Each step writes
    straight into row ``k + 1`` of the result, so no step allocates or
    copies and the rounding is that of ``M_k @ X_k + c_k``: without ``c``,
    one product from row ``k``; with it, the product into one reused
    buffer and one ``np.add`` of buffer and ``c_k`` into the row (an add
    in place on the row is markedly slower when the row has one element,
    ``n_x = 1``).  The product is ``np.dot`` (the BLAS kernel of ``@``)
    for a ``(K, n, n)`` stack, and ``np.matmul`` for a batch ``(K, B, n,
    n)`` with ``X0`` of shape ``(B, n, m)``; each batch slice then rounds
    as ``np.dot`` would on it.

    With ``chunk = L > 1`` (see :func:`_chunk`) the steps are composed in
    two levels, in about ``3 L + K / L`` calls instead of ``K``.  The
    first ``G = K // L`` chunks of ``L`` steps each get their map ``X ->
    P_g X + S_g``, the product and the forced sum over the chunk, built
    one step of a chunk at a time for all chunks at once; the chunk
    boundaries ``X_{gL}`` follow from these maps one chunk after another;
    then every node inside a chunk is stepped from its boundary, again
    one step of a chunk at a time for all chunks at once.  The last ``K -
    G L`` steps run the exact loop.  Every operation acts on one batch
    member at a time, so a batch member rounds as its own propagation
    does.

    A chunk product can overflow where the steps themselves stay finite
    (``M_k = diag(1e40, 0.5)`` from ``(0, 1)``: ``P_g`` holds ``inf``
    and ``P_g X`` a NaN, while every exact step keeps the first entry
    0).  So when a composed boundary ``X_{gL}`` is not finite, the window
    (in a batch, each member hit) is recomputed by the exact loop.

    Both ways compute the product of the augmented maps ``[[M_k, c_k],
    [0, 1]]``, only in another order, so without overflow each node is
    within the forward error bound of a matrix product (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., 2002, section 3.5)
    of the exact recurrence: ``|X_k - exact| <= gamma_{k (n+1)} Z_k``
    componentwise, with ``Z_0 = |X_0|``, ``Z_{k+1} = |M_k| Z_k + |c_k|``
    and ``gamma_j = j u / (1 - j u)``, ``u = 2**-53``.  The two-level
    result is therefore within ``2 gamma_{k (n+1)} Z_k`` of the exact
    loop's.
    """
    X0 = np.asarray(X0, dtype=float)
    out = np.empty((M.shape[0] + 1,) + X0.shape)
    out[0] = X0
    G = M.shape[0] // chunk if chunk > 1 else 0
    if G:
        with np.errstate(over="ignore", invalid="ignore"):
            _compose(M, out, c, chunk, G)
        finite = np.isfinite(out[chunk : G * chunk + 1 : chunk])  # the composed boundaries
        if M.ndim == 3 and not finite.all():
            G = 0  # the exact loop below redoes the whole window
        elif M.ndim == 4:
            hit = ~finite.all(axis=(0,) + tuple(range(2, finite.ndim)))
            if hit.any():
                out[:, hit] = _propagate(M[:, hit], X0[hit], None if c is None else c[:, hit])
    start = G * chunk
    product = np.dot if M.ndim == 3 else np.matmul
    if c is None:
        for Mk, X, row in zip(M[start:], out[start:], out[start + 1 :]):
            product(Mk, X, row)
    else:
        MX = np.empty(X0.shape)
        for Mk, ck, X, row in zip(M[start:], c[start:], out[start:], out[start + 1 :]):
            product(Mk, X, MX)
            np.add(MX, ck, row)
    return out


def _compose(M: np.ndarray, out: np.ndarray, c, L: int, G: int) -> None:
    """Rows ``1 .. G L`` of ``out`` by the two levels of :func:`_propagate` (chunks of ``L``)."""
    Ms = M[: G * L].reshape((G, L) + M.shape[1:])
    Xs = out[: G * L].reshape((G, L) + out.shape[1:])
    cs = None if c is None else c[: G * L].reshape((G, L) + c.shape[1:])
    step = _matvec if out.ndim == M.ndim - 1 else np.matmul  # vector or matrix states
    # the chunk maps X -> P X + S, one step of a chunk at a time for all chunks
    P = Ms[:, 0].copy()
    for j in range(1, L):
        P = np.matmul(Ms[:, j], P)
    if cs is not None:
        S = cs[:, 0].copy()
        for j in range(1, L):
            S = np.add(step(Ms[:, j], S), cs[:, j], S)
    # the chunk boundaries X_L, X_2L, .. X_GL, one chunk after another
    for g in range(G):
        row = out[(g + 1) * L]
        if cs is None:
            np.copyto(row, step(P[g], Xs[g, 0]))
        else:
            np.add(step(P[g], Xs[g, 0]), S[g], row)
    # the nodes inside the chunks from their first node, one step at a time for all chunks
    for j in range(L - 1):
        if cs is None:
            np.copyto(Xs[:, j + 1], step(Ms[:, j], Xs[:, j]))
        else:
            np.add(step(Ms[:, j], Xs[:, j]), cs[:, j], Xs[:, j + 1])


_CROSSOVER = 72  # steps; see _chunk


def _chunk(steps: int, n_x: int) -> int:
    """Chunk length ``L`` of :func:`_propagate` for a window of ``steps`` steps.

    The one rule of both time domains: ``L = floor(sqrt(steps / 2))``,
    which about minimizes the ``3 L + steps / L`` calls of the two
    levels, for a window of at least ``_CROSSOVER = 72`` steps, and the
    exact loop (``L = 1``) for a shorter one, or above ``n_x = 16``, where
    the chunk products, ``n_x**3`` per step, cost more than the calls they
    save.  ``L`` never depends on a batch's size, so a batch member rounds
    as its own window does.

    The crossover is measured on :func:`_propagate` alone, single windows
    of random ``M_k`` with vector states ``x`` and forced ``[Phi | x_f]``
    states, ``n_x`` 2 to 8, 300 alternating calls each (2-core x86 VM,
    one BLAS thread).  Over two such runs the median time of the two
    levels over that of the exact loop was 0.94-1.08 at 56 steps,
    0.88-1.07 at 64 and 0.84-1.00 at 72 (the largest for ``[Phi | x_f]``
    at ``n_x = 8``), and 0.67-0.79 at 150.
    """
    if steps < _CROSSOVER or n_x > 16:
        return 1
    return math.isqrt(steps // 2)


class _Samples(NamedTuple):
    """A window's signals as read once by :func:`_sample`.

    ``P`` and ``U`` hold ``p`` and ``u`` at the ``K + 1`` sample ``times``,
    ``(K + 1, dim)`` or for a batch ``(K + 1, B, dim)``.  In CT
    ``p_stages`` and ``u_stages`` hold their values at the start, midpoint
    and end of every step, three ``(K, [B,] dim)`` arrays (one array three
    times when every signal is piecewise-constant).  Fields of a missing
    ``u``, and the stages in DT, are None.
    """

    times: np.ndarray
    P: np.ndarray
    p_stages: tuple
    U: np.ndarray
    u_stages: tuple


def _grid(domain: TimeDomain, horizon, step: float, *signals) -> np.ndarray:
    """Sample times of a window: the DT steps ``0 .. horizon``, or the CT mesh.

    In CT the :func:`integration_mesh` of step ``step`` refines the
    breakpoints of every signal given, each member of a batch (tuple)
    included; None stands for a missing input.
    """
    if domain == TimeDomain.DT:
        return np.arange(int(horizon) + 1)
    members = [s for sig in signals if sig is not None
               for s in (sig if isinstance(sig, tuple) else (sig,))]
    return integration_mesh(horizon, step, *members)


def _read(sig, times: np.ndarray) -> tuple:
    """A signal or batch at ``times`` and, in CT, at the RK4 stages of each step.

    A piecewise-constant signal takes its segment value, read at the step
    midpoint, at all three stages; a piecewise-linear one its node values
    at the step's start and end and its value at the midpoint.  A batch is
    read member by member and stacked on axis 1, so in a mixed batch each
    member keeps its own rule.
    """
    if sig is None:
        return None, None
    sigs = sig if isinstance(sig, tuple) else (sig,)
    stack = partial(np.stack, axis=1) if isinstance(sig, tuple) else itemgetter(0)
    nodes = stack([s.values_at(times) for s in sigs])
    if sigs[0].domain == TimeDomain.DT:
        return nodes, None
    a, b = times[:-1], times[1:]
    mids = {PIECEWISE_CONSTANT: 0.5 * (a + b), PIECEWISE_LINEAR: a + 0.5 * (b - a)}
    mid = stack([s.values_at(mids[s.interpolation]) for s in sigs])
    held = np.array([s.interpolation == PIECEWISE_CONSTANT for s in sigs])
    if held.all():
        return nodes, (mid, mid, mid)
    held = held[:, None]  # one rule per signal, broadcast along the batch axis
    return nodes, (np.where(held, mid, nodes[:-1]), mid, np.where(held, mid, nodes[1:]))


def _sample(p, times: np.ndarray, u=None) -> _Samples:
    """The one read of a window's signals on its sample ``times`` (see :func:`_grid`).

    Each signal of ``p`` and ``u`` (single signals, or batches as tuples)
    is read once at the times and, in CT only, once more at the step
    midpoints; every system on the window then uses the same samples.
    """
    return _Samples(times, *_read(p, times), *_read(u, times))


def _step_maps(sys: LpvSsa, s: _Samples):
    """Maps ``x_{k+1} = M_k x_k + c_k`` of a sampled window (no ``u``: ``c`` is None).

    DT: ``M_k = A(P_k)`` and ``c_k = B(P_k) U_k`` for the steps ``k <
    K``; CT: :func:`rk4_on_mesh` on the stage values.  For a batch ``M``
    and ``c`` carry the batch axis after the time axis.
    """
    if sys.domain == TimeDomain.CT:
        return rk4_on_mesh(sys, s.p_stages, s.times, s.u_stages)
    P = s.P[:-1]
    c = None if s.U is None else _matvec(sys.B.at_points(P), s.U[:-1])
    return sys.A.at_points(P), c


def _outputs(sys: LpvSsa, P: np.ndarray, C: np.ndarray, U: np.ndarray, xs: np.ndarray):
    """Outputs ``C[k] xs[k] + D(P[k]) U[k]``, where ``C`` is ``sys.C`` at ``P``.

    ``P``, ``C``, ``U`` and ``xs`` share their leading axes: the samples,
    and for a batch the batch axis after them.
    """
    return _matvec(C, xs) + _matvec(sys.D.at_points(P), U)


def _window(sys: LpvSsa, s: _Samples):
    """Free-response map ``O`` and forced output ``f`` of ``sys`` on a sampled window.

    The samples ``s`` of :func:`_sample` feed one :func:`_step_maps` call
    and one evaluation of ``C`` at the sample times, and both feed ``O``
    and ``f``.  ``O`` stacks the rows ``C(p(t_k)) Phi(t_k, 0)`` over the
    samples (the DT steps ``0 .. horizon``, or the nodes of the CT
    integration mesh); from ``x0`` the sampled output is ``f + O x0``,
    reshaped to ``f``'s ``(samples, n_y)``.  Without ``u``, ``f`` is None.
    With ``u``, one propagation carries ``[Phi | x_f]`` from ``[I | 0]``
    under the forcing ``[0 | c_k]``; ``O`` is read from the contiguous
    ``Phi`` block, bit-identical to propagating ``Phi`` alone, while the
    forced state ``x_f`` differs from its own propagation only by rounding.

    Samples of a batch (see the module docstring) give ``O`` of shape
    ``(B, samples * n_y, n_x)`` and ``f`` of shape ``(B, samples, n_y)``,
    member ``b`` computed as the window of its own signals on the batch's
    sample grid.  Memory grows with ``B``, so callers pass batches of
    bounded size.
    """
    M, c = _step_maps(sys, s)
    C = sys.C.at_points(s.P)
    n = sys.n_x
    if c is None:
        X0, F = np.eye(n), None
    else:
        X0, F = np.eye(n, n + 1), np.zeros(c.shape + (n + 1,))
        F[..., n] = c
    X0 = np.broadcast_to(X0, M.shape[1:-1] + X0.shape[1:])
    X = _propagate(M, X0, F, _chunk(M.shape[0], n))
    CPhi = C @ np.ascontiguousarray(X[..., :n])
    f = None if c is None else _outputs(sys, s.P, C, s.U, X[..., n])
    rows = CPhi.shape[0] * sys.n_y
    if s.P.ndim == 3:  # a batch
        O = np.moveaxis(CPhi, 1, 0).reshape(s.P.shape[1], rows, n)
        return O, None if f is None else np.moveaxis(f, 1, 0)
    return CPhi.reshape(rows, n), f


def _simulate(sys: LpvSsa, x0, u, p, horizon, step: float = None) -> tuple:
    """Sample times, states and outputs of the validated window from ``x0``."""
    _check_signals(sys, p, horizon, u)
    x0 = _check_x0(sys, x0)
    s = _sample(p, _grid(sys.domain, horizon, step, p, u), u)
    M, c = _step_maps(sys, s)
    xs = _propagate(M, x0, c, _chunk(M.shape[0], sys.n_x))
    return s.times, xs, _outputs(sys, s.P, sys.C.at_points(s.P), s.U, xs)


def _distinct_steps(values: np.ndarray) -> tuple:
    """Steps (columns of ``values``) that differ in some bit, and the label of every step.

    Returns ``(first, label)``: ``first`` indexes the first step of each
    group in order of appearance, and step ``i`` equals step
    ``first[label[i]]`` bit for bit (``-0.0`` and ``0.0`` differ).  Steps
    are grouped by a stable sort of a hash of their bits (their sum
    weighted by odd constants, modulo ``2**64``); a step that differs from
    its group's first step (a hash collision) heads a group of its own.
    """
    steps, bits = values.shape[1], values.view(np.uint64)
    mix = np.arange(1, 2 * values.shape[0], 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    tag = mix @ bits
    order = np.argsort(tag, kind="stable")
    tag = tag[order]
    start = np.ones(steps, dtype=bool)
    np.not_equal(tag[1:], tag[:-1], out=start[1:])
    head = np.empty(steps, dtype=np.intp)
    head[order] = order[start].take(np.cumsum(start) - 1)
    own = np.arange(steps)
    dup = np.flatnonzero(head != own)
    odd = dup[np.any(bits.take(dup, axis=1) != bits.take(head[dup], axis=1), axis=0)]
    head[odd] = odd
    first = np.flatnonzero(head == own)
    label = np.empty(steps, dtype=np.intp)
    label[first] = np.arange(first.size)
    return first, label.take(head)


def rk4_on_mesh(sys: LpvSsa, ps: tuple, mesh: np.ndarray, us: tuple = None) -> tuple:
    """Classical RK4 for ``dx/dt = A(p) x + B(p) u`` as one affine map per step.

    Step ``k`` (``h = b - a``) is exactly ``x_{k+1} = M_k x_k + c_k``: with
    ``A_i`` the state matrix at stage ``i``, the stage maps ``S_1 = I``,
    ``S_{i+1} = I + nu_i h K_i`` (``nu = 1/2, 1/2, 1``) and ``K_i = A_i S_i``
    give ``M = I + h/6 (K_1 + 2 K_2 + 2 K_3 + K_4)``, and ``c`` is built the
    same way from the stage forcing ``B_i u_i``.  ``ps`` and ``us`` are the
    stage values of the scheduling and the input on ``mesh``, the
    ``p_stages`` and ``u_stages`` of :func:`_sample`: three ``(K, n_p)``
    (``(K, n_u)``) arrays, the start, midpoint and end of every step, or
    ``(K, B, .)`` for a batch.  Without ``us`` the system is homogeneous
    and ``c`` is None.

    A map depends only on its step's ``h`` and stage values, so the maps
    are built once per distinct row of them (:func:`_distinct_steps`) and
    gathered: a piecewise-constant window repeats one row along each
    segment, up to the rounding of ``h``, while a piecewise-linear one
    has every row distinct.  The distinct rows are built in blocks of
    about ``_BLOCK_DOUBLES`` matrix entries, as
    :meth:`AffineMatrixFunction.at_points` evaluates, so the stage
    matrices and temporaries of a block stay in cache; each operation
    acts on one row at a time, so every map is bit-identical to the one
    the same RK4 formulas give for its step alone.

    Returns
    -------
    (M, c)
        ``(K, n_x, n_x)``, and ``(K, n_x)`` or None; for a batch
        ``(K, B, n_x, n_x)`` and ``(K, B, n_x)``.
    """
    lead, n = ps[0].shape[:-1], sys.n_x
    rows = math.prod(lead)
    h = np.repeat(np.diff(mesh), rows // lead[0])  # one row per step and batch member
    # each stage array once: a piecewise-constant read passes one for all three stages
    flat = {id(a): a.reshape(rows, -1) for a in ps + (us or ())}
    first, label = _distinct_steps(np.concatenate([h[None]] + [a.T for a in flat.values()]))
    M = np.empty((first.size, n, n))
    c = None if us is None else np.empty((first.size, n))
    block = max(1, _BLOCK_DOUBLES // max(1, n * n))
    for lo in range(0, first.size, block):
        idx = first[lo : lo + block]
        at = {key: a[idx] for key, a in flat.items()}  # the block's rows of each array
        _rk4_block(sys, h[idx], [at[id(a)] for a in ps], us and [at[id(a)] for a in us],
                   M[lo : lo + block], None if c is None else c[lo : lo + block])
    if first.size < rows:
        M = M.take(label, axis=0)
        c = None if c is None else c.take(label, axis=0)
    return M.reshape(lead + (n, n)), None if c is None else c.reshape(lead + (n,))


def _at_stages(f, stages: list) -> tuple:
    """Affine function ``f`` at three stage value arrays, once if they are one array."""
    if stages[0] is stages[2]:
        v = f.at_points(stages[0])
        return v, v, v
    return tuple(f.at_points(P) for P in stages)


def _rk4_block(sys: LpvSsa, h: np.ndarray, ps: list, us, M: np.ndarray, c) -> None:
    """The maps of :func:`rk4_on_mesh` for steps ``h`` and stage values ``ps``, ``us``.

    Writes into ``M`` and, with ``us``, ``c``; every step is a row.
    """
    A = _at_stages(sys.A, ps)
    hv = h[:, None]
    hm = hv[..., None]
    eye = np.eye(sys.n_x)
    T, Kb = np.empty_like(M), np.empty_like(M)
    np.multiply(hm / 6.0, A[0], T)
    np.add(eye, T, M)
    K = A[0]
    if c is not None:
        F = tuple(map(_matvec, _at_stages(sys.B, ps), us))
        g = F[0]
        np.multiply(hv / 6.0, g, c)
    # stages 2 to 4: (stage point, node of the previous stage, weight)
    for j, nu, w in ((1, 0.5, 2.0), (1, 0.5, 2.0), (2, 1.0, 1.0)):
        np.multiply(nu * hm, K, T)
        np.add(eye, T, T)
        K = np.matmul(A[j], T, Kb)
        np.multiply(w / 6.0 * hm, K, T)
        M += T
        if c is not None:
            g = _matvec(A[j], (nu * hv) * g) + F[j]
            c += (w / 6.0 * hv) * g


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
    mesh, xs, ys = _simulate(sys, x0, u, p, t_end, step)
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
    """State-transition matrices ``Phi(t, 0)`` for ``t = 0 .. n_steps`` (DT).

    Propagated by the rule of :func:`_chunk`, as every window is: the
    plain products ``A(p(t-1)) .. A(p(0))`` below 72 steps, within the
    bound of :func:`_propagate` of them from 72 on.
    """
    if sys.domain != TimeDomain.DT:
        raise InputError("transition_matrices_dt needs a DT system")
    _check_signals(sys, p, n_steps)
    M, _ = _step_maps(sys, _sample(p, _grid(sys.domain, n_steps, None)))
    return _propagate(M, np.eye(sys.n_x), None, _chunk(M.shape[0], sys.n_x))


def transition_matrices_ct(sys: LpvSsa, p: Signal, t_end: float, step: float) -> tuple:
    """Mesh and RK4-integrated ``Phi(t, 0)`` on [0, t_end] (CT).

    Returns ``(mesh, Phi)`` with ``Phi[k]`` the transition matrix at
    ``mesh[k]``.
    """
    if sys.domain != TimeDomain.CT:
        raise InputError("transition_matrices_ct needs a CT system")
    _check_signals(sys, p, t_end)
    s = _sample(p, _grid(sys.domain, t_end, step, p))
    M = _step_maps(sys, s)[0]
    return s.times, _propagate(M, np.eye(sys.n_x), None, _chunk(M.shape[0], sys.n_x))


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
