"""Reference computations the benchmark checks the library against.

They read the benchmark's own coefficient arrays (``systems.Plant``) and
never call into ``lpvssa``: a plain DT recursion, exact matrix-exponential
propagation for piecewise-constant CT signals, ``solve_ivp`` for
piecewise-linear ones, and SVD rank tests on stacks the benchmark builds.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

RANK_RTOL = 1e-10  # same relative floor the library's window tests use


class OracleError(Exception):
    """An output disagrees with its reference computation."""


def require(cond, msg):
    if not cond:
        raise OracleError(msg)


def close(actual, expected, tol, what):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    scale = 1.0 + float(np.max(np.abs(expected))) if expected.size else 1.0
    err = float(np.max(np.abs(actual - expected))) if expected.size else 0.0
    require(err <= tol * scale, f"{what}: error {err:.3e} above {tol:.1e} x scale {scale:.3e}")


def pwc_lookup(times, values, t):
    """Left-continuous step function, last value held beyond the last node."""
    k = int(np.searchsorted(times, t, side="left")) - 1
    return values[max(k, 0)]


def pwl_lookup(times, values, t):
    return np.array([np.interp(t, times, values[:, j]) for j in range(values.shape[1])])


def dt_reference(plant, x0, u_vals, p_vals, n_steps):
    """Plain recursion ``x+ = A x + B u``, ``y = C x + D u``."""
    x = np.array(x0, dtype=float)
    xs, ys = [], []
    for t in range(n_steps + 1):
        p, u = p_vals[t], u_vals[t]
        xs.append(x)
        ys.append(plant.at("C", p) @ x + plant.at("D", p) @ u)
        x = plant.at("A", p) @ x + plant.at("B", p) @ u
    return np.array(xs), np.array(ys)


def _outputs(plant, mesh, xs, p_at, u_at):
    return np.array([
        plant.at("C", p_at(t)) @ x + plant.at("D", p_at(t)) @ u_at(t)
        for t, x in zip(mesh, xs)
    ])


def ct_pwc_reference(plant, x0, mesh, p_sig, u_sig):
    """Exact propagation through ``expm`` of the augmented matrix per mesh step.

    ``p_sig``/``u_sig`` are ``(times, values)`` of piecewise-constant
    signals; on each step ``[a, b]`` both are constant at their midpoint
    value, so ``[x; 1]`` evolves by ``expm(h [[A, B u], [0, 0]])``.
    """
    n = plant.n_x
    x = np.array(x0, dtype=float)
    xs = [x]
    cache = {}
    for a, b in zip(mesh[:-1], mesh[1:]):
        h, m = b - a, 0.5 * (a + b)
        ip = int(np.searchsorted(p_sig[0], m, side="left"))
        iu = int(np.searchsorted(u_sig[0], m, side="left"))
        key = (ip, iu, round(h, 13))
        E = cache.get(key)
        if E is None:
            p, u = pwc_lookup(*p_sig, m), pwc_lookup(*u_sig, m)
            M = np.zeros((n + 1, n + 1))
            M[:n, :n] = plant.at("A", p)
            M[:n, n] = plant.at("B", p) @ u
            E = cache[key] = expm(h * M)
        x = E[:n, :n] @ x + E[:n, n]
        xs.append(x)
    xs = np.array(xs)
    ys = _outputs(
        plant, mesh, xs, lambda t: pwc_lookup(*p_sig, t), lambda t: pwc_lookup(*u_sig, t)
    )
    return xs, ys


def ct_pwl_reference(plant, x0, mesh, p_sig, u_sig):
    """``solve_ivp`` (DOP853, rtol 1e-11) between the signals' breakpoints."""
    def rhs(t, x):
        p, u = pwl_lookup(*p_sig, t), pwl_lookup(*u_sig, t)
        return plant.at("A", p) @ x + plant.at("B", p) @ u

    cuts = np.unique(np.concatenate([[mesh[0], mesh[-1]], p_sig[0], u_sig[0]]))
    cuts = cuts[(cuts >= mesh[0]) & (cuts <= mesh[-1])]
    x = np.array(x0, dtype=float)
    xs = np.empty((mesh.size, plant.n_x))
    xs[0] = x
    for a, b in zip(cuts[:-1], cuts[1:]):
        sel = np.where((mesh > a) & (mesh <= b))[0]
        sol = solve_ivp(
            rhs, (a, b), x, method="DOP853", rtol=1e-11, atol=1e-13,
            t_eval=np.unique(np.append(mesh[sel], b)),
        )
        require(sol.success, f"reference integration failed: {sol.message}")
        xs[sel] = sol.y[:, : sel.size].T
        x = sol.y[:, -1]
    ys = _outputs(
        plant, mesh, xs, lambda t: pwl_lookup(*p_sig, t), lambda t: pwl_lookup(*u_sig, t)
    )
    return xs, ys


def rk4_tolerance(plant, t_end, step):
    """Relative error budget of classical RK4: ``T h^4 L^5 / 120`` plus rounding.

    That is the local error ``(L h)^5 / 120`` summed over ``T / h`` steps,
    with ``L`` the bound on ``||A(p)||`` over the region.
    """
    L = plant.meta.get("a_norm", 1.0) + abs(plant.meta.get("shift", 0.0))
    return t_end * step**4 * max(L, 1.0) ** 5 / 120 + 1e-10


def check_mesh(mesh, t_end, step, *signal_times):
    require(mesh[0] == 0.0 and abs(mesh[-1] - t_end) <= 1e-12 * t_end, "mesh endpoints")
    h = np.diff(mesh)
    require(np.all(h > 0) and np.all(h <= step * (1 + 1e-9)), "mesh steps")
    for ts in signal_times:
        for t in ts[(ts > 0) & (ts < t_end)]:
            require(np.min(np.abs(mesh - t)) <= 1e-12 * t_end, f"breakpoint {t} missing")


def is_singular(M):
    s = np.linalg.svd(M, compute_uv=False)
    return s[0] == 0.0 or s[-1] <= 1e-10 * s[0]


def rank_ok(blocks, n):
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return s.size >= n and s[n - 1] > RANK_RTOL * s[0]


def dt_window_blocks(plant, p_vals, n_steps):
    """``C(p_t) Phi(t, 0)`` for ``t = 0 .. n_steps``."""
    Phi = np.eye(plant.n_x)
    blocks = []
    for t in range(n_steps + 1):
        blocks.append(plant.at("C", p_vals[t]) @ Phi)
        Phi = plant.at("A", p_vals[t]) @ Phi
    return blocks


def ct_window_blocks(plant, p_sig, t_end, per_segment=8):
    """``C(p(t)) Phi(t, 0)`` on a grid, ``Phi`` propagated exactly by ``expm``."""
    cuts = np.unique(np.concatenate([[0.0, t_end], p_sig[0][p_sig[0] < t_end]]))
    Phi = np.eye(plant.n_x)
    blocks = [plant.at("C", pwc_lookup(*p_sig, 0.0)) @ Phi]
    for a, b in zip(cuts[:-1], cuts[1:]):
        p = pwc_lookup(*p_sig, 0.5 * (a + b))
        E = expm((b - a) / per_segment * plant.at("A", p))
        C = plant.at("C", p)
        for _ in range(per_segment):
            Phi = E @ Phi
            blocks.append(C @ Phi)
    return blocks
