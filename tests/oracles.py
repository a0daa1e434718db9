"""Independent reference implementations used to check the library.

Everything here is deliberately brute-force and kept free of the
library's own stacking/iteration code paths.
"""

import itertools

import numpy as np


def two_level_bound(M, X0, c):
    """``2 gamma_{k (n+1)} Z_k`` of the ``simulation._propagate`` docstring, at every node ``k``.

    The componentwise distance allowed between the two-level propagation
    and the exact loop of ``X_{k+1} = M_k X_k + c_k`` (no ``c``: zero).
    """
    u, n = 2.0**-53, M.shape[-1]
    Z = [np.abs(np.asarray(X0, dtype=float))]
    for k in range(M.shape[0]):
        Z.append(np.abs(M[k]) @ Z[-1] + (0.0 if c is None else np.abs(c[k])))
    j = np.arange(M.shape[0] + 1) * (n + 1) * u
    gamma = (j / (1.0 - j)).reshape((-1,) + (1,) * np.ndim(X0))
    return 2.0 * gamma * np.array(Z)


def literal_observability_recursion(sys, n):
    """Textbook recursion O_{k+1} = [O_k; O_k A_0; ...; O_k A_np], duplicates kept."""
    O = np.vstack(sys.C.coeffs)
    for _ in range(n):
        O = np.vstack([O] + [O @ Ai for Ai in sys.A.coeffs])
    return O


def word_reachable_columns(sys, max_len):
    """Columns {A_w B_j} for every product word of length <= max_len."""
    cols = []
    n = sys.n_x
    for length in range(max_len + 1):
        for word in itertools.product(range(sys.n_p + 1), repeat=length):
            M = np.eye(n)
            for i in word:
                M = sys.A.coeffs[i] @ M
            for Bj in sys.B.coeffs:
                cols.append(M @ Bj)
    return np.hstack(cols) if cols else np.zeros((n, 0))


def word_reach_rank(sys, max_len):
    cols = word_reachable_columns(sys, max_len)
    return int(np.linalg.matrix_rank(cols)) if cols.size else 0


def dt_reference_simulation(sys, x0, u_vals, p_vals, n_steps):
    """Plain-loop DT recursion working straight off value arrays."""
    x = np.asarray(x0, dtype=float).copy()
    ys = []
    for t in range(n_steps + 1):
        p = p_vals[t]
        A = sys.A(p)
        B = sys.B(p)
        C = sys.C(p)
        D = sys.D(p)
        ys.append(C @ x + D @ u_vals[t])
        x = A @ x + B @ u_vals[t]
    return np.array(ys)


def _rk4_stage_value(sig, t, a, b):
    """Signal value for an RK4 stage at time ``t`` within the step [a, b]."""
    if sig.interpolation == "piecewise-constant":
        return sig.value_at(0.5 * (a + b))
    return sig.value_at(t)


def rk4_reference(deriv, X0, mesh):
    """Per-stage classical RK4 for ``dX/dt = deriv(t, a, b, X)`` on a mesh.

    Four calls of ``deriv`` per step, which receives the stage time and
    the current step ``[a, b]``; returns the state at every mesh node.
    """
    X = np.array(X0, dtype=float)
    out = np.empty((mesh.size,) + X.shape)
    out[0] = X
    for k in range(mesh.size - 1):
        a = mesh[k]
        b = mesh[k + 1]
        h = b - a
        m = a + 0.5 * h
        k1 = deriv(a, a, b, X)
        k2 = deriv(m, a, b, X + (0.5 * h) * k1)
        k3 = deriv(m, a, b, X + (0.5 * h) * k2)
        k4 = deriv(b, a, b, X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = X
    return out


def ct_reference_simulation(sys, x0, u, p, mesh):
    """States and outputs of the CT system on ``mesh``, point by point."""

    def deriv(t, a, b, x):
        pt = _rk4_stage_value(p, t, a, b)
        ut = _rk4_stage_value(u, t, a, b)
        return sys.A(pt) @ x + sys.B(pt) @ ut

    xs = rk4_reference(deriv, x0, mesh)
    ys = np.empty((mesh.size, sys.n_y))
    for k, t in enumerate(mesh):
        pt = p.value_at(t)
        ys[k] = sys.C(pt) @ xs[k] + sys.D(pt) @ u.value_at(t)
    return xs, ys


def ct_reference_transition(sys, p, mesh):
    """Transition matrices ``Phi(t, 0)`` at every mesh node, point by point."""

    def deriv(t, a, b, X):
        return sys.A(_rk4_stage_value(p, t, a, b)) @ X

    return rk4_reference(deriv, np.eye(sys.n_x), mesh)


def output_map(sys, P, Phi):
    """Rows ``C(P[k]) Phi[k]`` stacked: initial state to zero-input outputs."""
    CPhi = sys.C.at_points(P) @ Phi
    return CPhi.reshape(CPhi.shape[0] * sys.n_y, sys.n_x)


def match_reference(sys_from, x0, sys_to, u, p, horizon, step=1e-3, rtol=1e-10):
    """Initial-state match composed of whole simulations, one map at a time.

    Simulates ``sys_from`` from ``x0`` and ``sys_to`` from zero with
    ``io_response`` (checked against the per-point loops above elsewhere in
    the suite), builds the free-response map of ``sys_to`` on the output
    samples from ``transition_matrices_dt`` in DT, or from the per-stage RK4
    transition on the simulated mesh in CT, and :func:`output_map`, then solves
    the least-squares problem at the relative floor ``rtol``.
    """
    from lpvssa.core import TimeDomain
    from lpvssa.simulation import io_response, transition_matrices_dt

    y_from = io_response(sys_from, x0, u, p, horizon, step=step)
    y_forced = io_response(sys_to, np.zeros(sys_to.n_x), u, p, horizon, step=step).values
    if sys_to.domain == TimeDomain.DT:
        times = np.arange(int(horizon) + 1)
        Phi = transition_matrices_dt(sys_to, p, int(horizon))
    else:
        times = y_from.times
        Phi = ct_reference_transition(sys_to, p, times)
    M = output_map(sys_to, p.values_at(times), Phi)
    y = y_from.values
    x0_to = np.linalg.lstsq(M, (y - y_forced).reshape(-1), rcond=rtol)[0]
    y_match = y_forced + (M @ x0_to).reshape(y.shape)
    scale = np.sqrt(y.shape[0]) + float(np.linalg.norm(y))
    return x0_to, float(np.linalg.norm(y - y_match)) / scale


def rk4_maps_full_horizon(sys, ps, mesh, us=None):
    """RK4 step maps built on whole-horizon arrays, every step evaluated.

    The stage matrices are evaluated at every step's stage values and the
    maps assembled with one array operation per RK4 term over all steps
    at once: the arithmetic of ``simulation.rk4_on_mesh`` without its
    distinct-step build, to compare it against bit for bit.
    """

    def at(f, P):
        lead = P.shape[:-1]
        return f.at_points(P.reshape(-1, P.shape[-1])).reshape(lead + f.shape)

    def matvec(Ms, vs):
        return np.matmul(Ms, vs[..., None])[..., 0]

    A = [at(sys.A, P) for P in ps]
    hv = np.diff(mesh).reshape((-1,) + (1,) * (A[0].ndim - 2))
    h = hv[..., None]
    eye = np.eye(sys.n_x)
    K = A[0]
    M, c = eye + (h / 6.0) * K, None
    if us is not None:
        F = [matvec(at(sys.B, P), U) for P, U in zip(ps, us)]
        g = F[0]
        c = (hv / 6.0) * g
    for j, nu, w in ((1, 0.5, 2.0), (1, 0.5, 2.0), (2, 1.0, 1.0)):
        K = A[j] @ (eye + (nu * h) * K)
        M += (w / 6.0 * h) * K
        if us is not None:
            g = matvec(A[j], (nu * hv) * g) + F[j]
            c += (w / 6.0 * hv) * g
    return M, c
