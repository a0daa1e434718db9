"""Independent reference implementations used to check the library.

Everything here is deliberately brute-force and kept free of the
library's own stacking/iteration code paths.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from lpvssa.errors import InputError


def region_grid(region, points_per_axis):
    """Tensor grid of a box region, ``points_per_axis`` points per axis, shape ``(m, n_p)``."""
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in zip(region.lower, region.upper)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


def in_box(region, p):
    """Whether ``p`` is one point of the closed box ``region``, with no tolerance."""
    p = np.asarray(p)
    return p.shape == (region.n_p,) and bool(np.all((region.lower <= p) & (p <= region.upper)))


def textbook_reachability(sys, n):
    """Extended reachability matrix ``R_n`` by its own column recursion.

    Level 0 is ``[B_0 .. B_np]``, level ``d + 1`` is ``[A_0 L_d .. A_np L_d]``
    for level ``L_d``, and ``R_n`` sets levels 0 to ``n`` side by side.
    """
    level = np.hstack(sys.B.coeffs)
    levels = [level]
    for _ in range(n):
        level = np.hstack([Ai @ level for Ai in sys.A.coeffs])
        levels.append(level)
    return np.hstack(levels)


def dyadic(sys):
    """``sys`` with every coefficient rounded to a multiple of ``2**-10``.

    For coefficients of modest size, every sum of products of up to four
    of them is a multiple of ``2**-40`` well inside the 53-bit significand,
    so it is exact in floating point whatever the summation order, and two
    constructions of one such matrix agree bit for bit.
    """
    return type(sys).from_matrices(
        *([np.round(m * 2.0**10) / 2.0**10 for m in f.coeffs] for f in (sys.A, sys.B, sys.C, sys.D)),
        sys.region, sys.domain,
    )


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


def bareiss_det(M):
    """Determinant of a square list of lists of ``Fraction`` by Bareiss elimination.

    Fraction-free Gaussian elimination (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968): step ``k`` sets ``M[i][j] = (M[i][j] M[k][k] - M[i][k] M[k][j])
    / M[k-1][k-1]``, an exact division, and a zero pivot is swapped for a
    row below with a nonzero entry in its column.  No rounding anywhere.
    """
    M = [list(row) for row in M]
    n, sign, prev = len(M), 1, Fraction(1)
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            M[k], M[swap], sign = M[swap], M[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) / prev
        prev = M[k][k]
    return sign * M[-1][-1] if n else Fraction(1)


def exact_det_poly(sys):
    """Coefficients of ``det A(p)`` for one scheduling variable, constant first, exactly.

    ``det(A_0 + p A_1)`` is a polynomial of degree at most ``n_x``: it is
    evaluated by :func:`bareiss_det` at ``p = 0, 1, .., n_x`` and
    Lagrange-interpolated, all in ``Fraction``.  Every float is a dyadic
    rational, so the ``n_x + 1`` coefficients are exact (trailing zeros
    kept).
    """
    if sys.n_p != 1:
        raise ValueError("exact_det_poly needs one scheduling variable")
    A0, A1 = ([[Fraction(v) for v in row] for row in M.tolist()] for M in sys.A.coeffs)
    points = range(sys.n_x + 1)
    coeffs = [Fraction(0)] * len(points)
    for xj in points:
        value = bareiss_det([[a + xj * b for a, b in zip(r0, r1)] for r0, r1 in zip(A0, A1)])
        basis = [Fraction(1)]  # prod over m != j of (p - x_m) / (x_j - x_m), constant first
        for xm in points:
            if xm != xj:
                basis = [(up - xm * b) / (xj - xm) for up, b in zip([0] + basis, basis + [0])]
        coeffs = [c + value * b for c, b in zip(coeffs, basis)]
    return coeffs


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


# ---------------------------------------------------------------------------
# Documents read and written entry by entry: the reading of ``io`` and the
# coefficient conversion of ``core`` as they were before the one-pass layer,
# and the payload text of ``json.dumps`` itself.


def reference_finite(obj):
    """``obj`` with numpy arrays as lists and every number that is not finite as None."""
    if isinstance(obj, dict):
        return {key: reference_finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, np.ndarray)):
        return [reference_finite(value) for value in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def reference_payload_text(payload):
    """Strict JSON text of a ``--json`` payload, by ``json.dumps`` after :func:`reference_finite`."""
    return json.dumps(
        reference_finite(payload), indent=2, allow_nan=False, default=lambda obj: obj.tolist()
    )


def reference_coefficient_stack(coeffs):
    """The ``(n_p + 1, rows, cols)`` stack of ``coeffs``, one coefficient at a time."""
    mats = [np.atleast_2d(np.asarray(c, dtype=float)) for c in coeffs]
    if not mats:
        raise InputError("need at least the constant coefficient matrix")
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise InputError(f"coefficient {i} has shape {m.shape}, expected {shape}")
    stack = np.stack(mats)
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
    if bad.size:
        raise InputError(f"coefficient {bad[0]} contains non-finite entries")
    return stack


def _reference_region(lower, upper):
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
        raise InputError("lower and upper must be 1-d vectors of equal length")
    if lo.size < 1:
        raise InputError("scheduling region needs at least one coordinate")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InputError("region bounds must be finite")
    empty = np.flatnonzero(lo >= hi)
    if empty.size:
        raise InputError("; ".join(
            f"region has empty interior in coordinate {i}: lower={lo[i]} >= upper={hi[i]}"
            for i in empty
        ))
    return lo, hi


def _reference_reject_constant(name):
    raise InputError(f"non-finite number {name!r} is not allowed")


def _reference_expect_object(node, path, required, optional=()):
    if not isinstance(node, dict):
        raise InputError(f"{path or '/'}: expected an object")
    unknown = set(node) - set(required) - set(optional)
    if unknown:
        raise InputError(f"{path or '/'}: unknown field(s) {sorted(unknown)}")
    for key in required:
        if key not in node:
            raise InputError(f"{path or '/'}: missing field {key!r}")
    return node


def reference_number_list(node, path):
    """The entries of a JSON list of finite numbers as floats, checked one by one."""
    if not isinstance(node, list):
        raise InputError(f"{path}: expected a list of numbers")
    out = []
    for i, v in enumerate(node):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InputError(f"{path}/{i}: expected a number")
        try:
            v = float(v)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise InputError(f"{path}/{i}: number must be finite")
        out.append(v)
    return out


def reference_parse_matrix(node, path):
    _reference_expect_object(node, path, ("shape", "data"))
    shape = node["shape"]
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape)
    ):
        raise InputError(f"{path}/shape: expected [rows, cols] nonnegative integers")
    rows, cols = shape
    data = reference_number_list(node["data"], f"{path}/data")
    if len(data) != rows * cols:
        raise InputError(
            f"{path}/data: expected {rows * cols} entries for shape {rows}x{cols}, "
            f"got {len(data)}"
        )
    return np.array(data, dtype=float).reshape(rows, cols)


def reference_parse_system(text):
    """A system document read entry by entry: ``(stacks, lower, upper, domain)``.

    ``stacks`` maps ``"A"`` .. ``"D"`` to coefficient stacks.  Every check
    and message of the reading is repeated here; the system invariants
    are those of :class:`lpvssa.LpvSsa`, checked on the stacks built here.
    """
    from lpvssa.core import AffineMatrixFunction, LpvSsa, SchedulingRegion, TimeDomain

    try:
        doc = json.loads(text, parse_constant=_reference_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    _reference_expect_object(doc, "", ("schema_version", "domain", "region", "A", "B", "C", "D"))
    if doc["schema_version"] != "1":
        raise InputError(
            f"/schema_version: unsupported version {doc['schema_version']!r} (expected '1')"
        )
    if doc["domain"] not in ("dt", "ct"):
        raise InputError("/domain: expected \"dt\" or \"ct\"")
    region_node = _reference_expect_object(doc["region"], "/region", ("lower", "upper"))
    lower = reference_number_list(region_node["lower"], "/region/lower")
    upper = reference_number_list(region_node["upper"], "/region/upper")
    if len(lower) != len(upper) or not lower:
        raise InputError("/region: lower and upper must be nonempty and equally long")
    n_p = len(lower)
    mats = {}
    for name in ("A", "B", "C", "D"):
        node = doc[name]
        if not isinstance(node, list) or not node:
            raise InputError(f"/{name}: expected a nonempty list of matrices")
        mats[name] = [reference_parse_matrix(m, f"/{name}/{i}") for i, m in enumerate(node)]
        if len(mats[name]) != n_p + 1:
            raise InputError(
                f"/{name}: expected {n_p + 1} coefficient matrices for "
                f"n_p = {n_p}, got {len(mats[name])}"
            )
    try:
        lo, hi = _reference_region(lower, upper)
        stacks = {name: reference_coefficient_stack(mats[name]) for name in mats}
        LpvSsa(
            *(AffineMatrixFunction(stacks[name]) for name in "ABCD"),
            SchedulingRegion(lo, hi),
            TimeDomain(doc["domain"]),
        )
    except InputError as exc:
        raise InputError(f"system document invalid: {exc}") from exc
    return stacks, lo, hi, doc["domain"]
