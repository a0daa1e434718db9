"""Observability/reachability analysis and regularity certification.

Every observability decision (``unobservable_subspace``,
``is_observable``, ``is_span_reachable_from_zero``, and the paired
stacks behind ``equivalence.find_isomorphism``) runs through one
polynomial-time kernel, the compressed subspace iteration of
:func:`_observability_iteration`, at one rank floor: a singular value
counts toward the rank when it exceeds ``sigma_max * ITERATION_RTOL``
(``1e-10``; ``rtol`` overrides it).  :func:`_threshold` is the only
SVD that decides a rank, and :func:`_rank_floor` resolves the floor for
it, the least-squares solves and the CLI.  Window observability
(:func:`ltv_window_observability`) thresholds the stacked ``C Phi`` map of
``simulation._window`` at the same floor, in DT and CT alike.  The
explicit extended matrices (:func:`extended_observability_matrix`,
:func:`extended_reachability_matrix`) have ``(n_p + 1)^n`` blocks; they
are kept as builders for tests and export and decide nothing.
Invertibility of ``A(p)`` is judged by the scaled SVD test at
``SINGULARITY_RTOL``, and :func:`check_rc` decides it on the whole region
by branch and bound on boxes, with no random draw.  Orthonormal bases returned
from SVDs are sign-normalized so the largest-magnitude entry of each
column is positive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import LpvSsa, TimeDomain, transpose_dual
from .errors import InputError, ResourceCapError
from .signals import Signal, random_scheduling
from .simulation import _check_signals, _window

__all__ = [
    "RankDecision",
    "RcCertificate",
    "LtvSystem",
    "extended_observability_matrix",
    "extended_reachability_matrix",
    "unobservable_subspace",
    "is_observable",
    "is_span_reachable_from_zero",
    "check_rc",
    "freeze_scheduling",
    "ltv_window_observability",
    "find_revealing_scheduling",
]

DEFAULT_MAX_ENTRIES = 10**7  # entry cap of the explicit builders only
SINGULARITY_RTOL = 1e-10
RC_MAX_BOXES = 4096  # box budget of the DT regularity search
RC_NEWTON_STEPS = 8  # Newton steps on sigma_min before a search gives up
# rank floor for iterated subspaces and transition-matrix stacks, whose
# rounding debris sits well above machine precision (see the docstrings)
ITERATION_RTOL = 1e-10


def _rank_floor(rtol: float = None) -> float:
    """The relative rank floor that runs: ``ITERATION_RTOL`` unless ``rtol`` is given.

    It must be finite and nonnegative; 1 or more is legal and counts no
    singular value.
    """
    if rtol is None:
        return ITERATION_RTOL
    if not 0.0 <= rtol < np.inf:  # False for NaN too
        raise InputError(f"rank floor must be finite and nonnegative, got {rtol!r}")
    return float(rtol)


@dataclass(frozen=True)
class RankDecision:
    """Numerical rank verdict: rank = #{singular values > tolerance_used}."""

    rank: int
    singular_values: np.ndarray
    tolerance_used: float

    @classmethod
    def from_matrix(cls, M: np.ndarray, rtol: float = None) -> "RankDecision":
        """The decision of :func:`_threshold` on ``M`` (floor ``1e-10`` unless ``rtol``)."""
        return _threshold(M, rtol)[0]


def _sign_fix(V: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive."""
    V = V.copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        if col.size and col[np.argmax(np.abs(col))] < 0:
            V[:, j] = -col
    return V


def _obs_levels(sys: LpvSsa, n: int, max_entries: int):
    """Levels of the extended observability stack: depth-d blocks, d = 0..n.

    Level 0 stacks ``C_0 .. C_np``; level ``d+1`` right-multiplies level
    ``d`` by ``A_0 .. A_np`` in order.  Each product word appears exactly
    once, which keeps the row count at the stated geometric total while
    spanning the same rows as the textbook recursion.
    """
    level = np.vstack(sys.C.coeffs)
    levels = [level]
    total = level.shape[0]
    width = max(sys.n_x, 1)
    for _ in range(n):
        total += level.shape[0] * (sys.n_p + 1)
        if total * width > max_entries:
            raise ResourceCapError(
                f"extended matrix would hold {total * width} entries "
                f"(cap {max_entries}); use the subspace-iteration path "
                "(unobservable_subspace / is_observable)"
            )
        level = np.vstack([level @ Ai for Ai in sys.A.coeffs])
        levels.append(level)
    return levels


def extended_observability_matrix(
    sys: LpvSsa, n: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> np.ndarray:
    """Extended n-step observability matrix ``O_n``.

    ``O_0`` stacks the output coefficients; each further step appends the
    previous blocks propagated through every state coefficient, so the
    rows span ``{C_j A_w : words w of length <= n}``.  Row count is
    ``n_y (n_p+1) ((n_p+1)^{n+1} - 1) / n_p`` for ``n_p >= 1``.

    An explicit builder for tests and export: no decision in the package
    forms this matrix (see :func:`is_observable`).

    Raises
    ------
    ResourceCapError
        When the matrix would exceed ``max_entries`` entries.
    """
    if n < 0:
        raise InputError("n must be nonnegative")
    return np.vstack(_obs_levels(sys, n, max_entries))


def extended_reachability_matrix(
    sys: LpvSsa, n: int, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> np.ndarray:
    """Extended n-step reachability matrix ``R_n = O_n(dual)^T``."""
    return extended_observability_matrix(
        transpose_dual(sys), n, max_entries=max_entries
    ).T


def _threshold(M: np.ndarray, rtol: float = None, *, kernel: bool = False):
    """The one rank threshold: one SVD of ``M``, ``sigma_max`` times :func:`_rank_floor`.

    Returns the RankDecision, the rows of ``Vh`` it keeps (an orthonormal
    row basis) and, with ``kernel``, the rest of the full SVD's ``Vh`` as
    sign-normalized columns (an orthonormal kernel basis).  Without
    ``kernel`` the SVD is the reduced one, which has no complete kernel for
    a wide ``M``, and the kernel is None.
    """
    M = np.asarray(M, dtype=float)
    floor, n = _rank_floor(rtol), M.shape[1]
    if M.size == 0:
        return RankDecision(0, np.zeros(0), 0.0), np.zeros((0, n)), np.eye(n) if kernel else None
    _, s, Vh = np.linalg.svd(M, full_matrices=kernel)
    tol = float(s[0]) * floor
    rank = int(np.sum(s > tol))
    return RankDecision(rank, s, tol), Vh[:rank], _sign_fix(Vh[rank:].T) if kernel else None


def _observability_iteration(C_coeffs, A_coeffs, rtol: float = None):
    """The observability kernel shared by every observability decision.

    Compressed subspace iteration that never forms the extended matrix:
    ``Q`` holds an orthonormal row basis of the row space of ``O_k`` of
    the system with output coefficients ``C_i`` and state coefficients
    ``A_i``.  Level 0 thresholds the stacked output coefficients ``[C_0; ..; C_np]``;
    each further level thresholds ``[Q; Q A_0; ..; Q A_np]``, whose row
    space is that of ``O_{k+1}``, and the iteration stops once the rank
    stops changing or reaches ``n_x`` (at most ``n_x - 1`` levels).  The
    kernel of the final ``Q`` is the largest subspace inside ``ker C_i``
    invariant under every ``A_i``, that is ``Ker O_{n_x - 1}``.

    Every level uses the floor ``ITERATION_RTOL`` (or ``rtol``): a
    computed invariant subspace is only accurate to roughly
    ``eps * sigma_max / sigma_min`` of the matrix it came from, and later
    levels must not count that rounding debris as new directions.

    Returns
    -------
    (Q, RankDecision)
        The final row basis and the decision on the last thresholded
        stack, so ``decision.rank == Q.shape[0]``.
    """
    n = A_coeffs[0].shape[0]
    decision, Q, _ = _threshold(np.vstack(C_coeffs), rtol)
    for _ in range(max(n - 1, 0)):
        if not 0 < Q.shape[0] < n:
            break
        decision, grown, _ = _threshold(np.vstack([Q] + [Q @ Ai for Ai in A_coeffs]), rtol)
        unchanged = grown.shape[0] == Q.shape[0]
        Q = grown
        if unchanged:
            break
    return Q, decision


def unobservable_subspace(sys: LpvSsa, rtol: float = None) -> np.ndarray:
    """Orthonormal basis (columns) of the unobservable subspace.

    The orthogonal complement of the row basis that the observability
    kernel (:func:`_observability_iteration`) ends with; it spans
    ``Ker O_{n_x - 1}``.  The rank floor defaults to ``1e-10`` relative
    (``ITERATION_RTOL``); pass ``rtol`` to override.  ``Q`` has orthonormal
    rows, so its complement is taken at the fixed floor whatever ``rtol``.
    """
    Q, _ = _observability_iteration(sys.C.coeffs, sys.A.coeffs, rtol)
    return _threshold(Q, kernel=True)[2]


def is_observable(sys: LpvSsa, rtol: float = None):
    """Rank test for observability: ``rank O_{n_x - 1} = n_x``.

    Verdict and evidence come from one matrix: the returned RankDecision
    is the SVD of the last stack the observability kernel thresholded
    (``[Q; Q A_0; ..; Q A_np]``, or the stacked ``C_i`` when the
    iteration ends at level 0), its ``tolerance_used`` is that matrix's
    largest singular value times the floor that ran (``1e-10``, or
    ``rtol``), and ``rank == n_x - dim Ker O_{n_x - 1}``.  The explicit
    ``O_{n_x - 1}`` with its ``(n_p + 1)^{n_x}`` blocks is never formed.

    Returns
    -------
    (bool, RankDecision)
    """
    Q, decision = _observability_iteration(sys.C.coeffs, sys.A.coeffs, rtol)
    return Q.shape[0] == sys.n_x, decision


def is_span_reachable_from_zero(sys: LpvSsa, rtol: float = None):
    """Rank test for span-reachability from zero: observability of the dual.

    Returns
    -------
    (bool, RankDecision)
    """
    return is_observable(transpose_dual(sys), rtol)


def _scaled_singular(s: np.ndarray) -> np.ndarray:
    """Scaled invertibility test on stacked singular values ``(K, n)``, descending.

    Entry ``k`` is True when the smallest singular value is at most
    ``SINGULARITY_RTOL`` times the largest (an all-zero matrix included).
    """
    return s[:, -1] <= SINGULARITY_RTOL * s[:, 0]


def _singular_mask(As: np.ndarray) -> np.ndarray:
    """The scaled invertibility test on a ``(K, n, n)`` stack, one stacked SVD."""
    return _scaled_singular(np.linalg.svd(As, compute_uv=False))


def _newton_witness(sys: LpvSsa, starts: np.ndarray):
    """A scheduling point at which ``A`` fails the scaled test, or None.

    Runs ``RC_NEWTON_STEPS`` Newton steps on ``sigma_min(A(p))`` from each
    start point at once.  The gradient of ``sigma_min`` along ``p_i`` is
    ``u^T A_i v`` (``u``, ``v`` its singular vectors), and each step
    ``p -= sigma_min g / |g|^2`` goes to the zero of the linearization,
    clipped to the box.  A point is returned only after it passed
    :func:`_singular_mask`.
    """
    lo, hi = sys.region.lower, sys.region.upper
    slopes = np.stack(sys.A.coeffs[1:])
    P = np.array(starts, dtype=float)
    for step in range(RC_NEWTON_STEPS + 1):
        As = sys.A.at_points(P)
        hit = np.flatnonzero(_singular_mask(As))
        if hit.size:
            return P[hit[0]]
        if step == RC_NEWTON_STEPS:
            return None
        U, s, Vh = np.linalg.svd(As)
        g = np.einsum("ka,iab,kb->ki", U[:, :, -1], slopes, Vh[:, -1, :])
        gg = np.sum(g * g, axis=1)
        scale = np.divide(s[:, -1], gg, out=np.zeros_like(gg), where=gg > 0)
        P = np.clip(P - scale[:, None] * g, lo, hi)


def _det_on_segment(sys: LpvSsa, a: np.ndarray, b: np.ndarray):
    """``det A(a + t (b - a))`` as a Chebyshev series in ``t`` on ``[0, 1]``.

    The determinant is a polynomial of degree at most ``n_x`` in ``t``, so
    its interpolant at the ``n_x + 1`` Chebyshev nodes is exact up to
    rounding: one ``at_points`` call and one stacked determinant.
    Numerically-zero leading coefficients are dropped.
    """
    t = _chebyshev_nodes(0.0, 1.0, sys.n_x + 1)
    dets = np.linalg.det(sys.A.at_points(a + t[:, None] * (b - a)))
    fit = np.polynomial.Chebyshev.fit(t, dets, sys.n_x, domain=[0.0, 1.0])
    return fit.trim(1e-12 * float(np.max(np.abs(fit.coef))))


def _segment_roots(det: np.polynomial.Chebyshev) -> np.ndarray:
    """Real roots of the interpolant in ``[0, 1]`` (within ``1e-9``), clipped.

    An identically-zero determinant vanishes everywhere; its candidate is
    the midpoint.
    """
    if not np.any(det.coef):
        return np.array([0.5])
    if det.degree() < 1:
        return np.zeros(0)
    r = det.roots()
    real = np.abs(r.imag) <= 1e-8 * (1.0 + np.abs(r.real))
    inside = (r.real >= -1e-9) & (r.real <= 1.0 + 1e-9)
    return np.clip(r.real[real & inside], 0.0, 1.0)


def _segment_witness(sys: LpvSsa, a: np.ndarray, b: np.ndarray):
    """A verified singular point on the segment from ``a`` to ``b``, or None.

    The candidates are the real roots of the determinant interpolant,
    polished by :func:`_newton_witness`.  When ``det A`` takes opposite
    signs at ``a`` and ``b``, a root lies on the segment.
    """
    t = _segment_roots(_det_on_segment(sys, a, b))
    if t.size == 0:
        return None
    return _newton_witness(sys, a + t[:, None] * (b - a))


@dataclass(frozen=True)
class RcCertificate:
    """Outcome of the regularity check.

    ``dt_invertibility`` is one of:

    - ``"not-applicable"`` in CT (nothing beyond the region shape is
      required there);
    - ``"certified"``: ``A(p)`` passes the scaled invertibility test on
      the whole box: Weyl's bound certified ``boxes`` boxes and
      ``sigma_min(A(p)) >= sigma_min_bound`` everywhere;
    - ``"refuted-with-witness"``: ``witness`` is a scheduling point at
      which ``A`` fails the scaled test (:func:`_singular_mask`);
    - ``"undecided"``: the box budget ran out with neither.
      ``sigma_min_bound`` is the smallest lower bound left open and
      ``box`` (rows: lower and upper corner) the box that holds it.

    ``holds`` is true only for ``"certified"`` and ``"not-applicable"``.
    Every DT certificate carries ``grid_per_axis``, the grid of the
    sign-change search, and ``boxes``.  With one scheduling variable
    ``det_poly_1d`` holds the coefficients of ``det A(p)`` (constant
    first) as evidence; it decides nothing.
    """

    convex_ok: bool
    dt_invertibility: str
    witness: np.ndarray = None
    det_poly_1d: np.ndarray = None
    grid_per_axis: int = None
    boxes: int = None
    sigma_min_bound: float = None
    box: np.ndarray = None

    @property
    def holds(self) -> bool:
        return self.convex_ok and self.dt_invertibility in (
            "not-applicable",
            "certified",
        )


def _chebyshev_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    k = np.arange(count)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2 * k + 1) * np.pi / (2 * count))


def _refuted(witness: np.ndarray, boxes: int) -> RcCertificate:
    return RcCertificate(True, "refuted-with-witness", witness=witness, boxes=boxes)


def _rc_boxes(sys: LpvSsa, grid_per_axis: int) -> RcCertificate:
    """Decide DT invertibility of ``A(p)`` on the box by branch and bound.

    A box with centre ``c`` and half-widths ``r`` satisfies, by Weyl's
    perturbation bound (Horn & Johnson 1991, section 3.3), ``sigma_min(A(p))
    >= sigma_min(A(c)) - sum_i r_i ||A_i||_2`` and ``sigma_max(A(p)) <=
    sigma_max(A(c)) + sum_i r_i ||A_i||_2`` for every ``p`` in it.  Both
    bounds are widened by an explicit floating-point margin ``8 (n_x +
    n_p + 1) eps`` times a bound on ``||A(p)||_2`` over the region (the
    rounding of ``A(c)``, of its SVD, of the norms and of the box
    corners).  A box is certified when the lower bound exceeds
    ``SINGULARITY_RTOL`` times the upper one; every other box is bisected
    along the axis of largest ``r_i ||A_i||_2``.  Each frontier of boxes
    costs one ``at_points`` call and one stacked SVD.

    A witness comes from a box centre that fails the scaled test, or from
    a sign change of ``det A`` between the uncertified centres and, once
    the root box is open, the ``grid_per_axis`` grid, resolved by
    :func:`_segment_witness`.  When the root box yields neither, the roots
    of ``det A`` along the region's main diagonal are tried, which finds
    roots of even multiplicity on it (for ``n_p = 1`` the diagonal is the
    interval itself).  When the ``RC_MAX_BOXES`` budget runs out,
    or a box is too small for its bound to tighten, Newton steps from the
    worst box get a last try before the verdict is ``"undecided"``.
    """
    lo, hi = sys.region.lower, sys.region.upper
    norms = np.linalg.norm(np.stack(sys.A.coeffs[1:]), 2, axis=(1, 2))
    reach = np.linalg.norm(sys.A.coeffs[0], 2) + np.maximum(np.abs(lo), np.abs(hi)) @ norms
    margin = 8 * (sys.n_x + sys.n_p + 1) * np.finfo(float).eps * reach
    centres, radii = (0.5 * (lo + hi))[None], (0.5 * (hi - lo))[None]
    boxes, certified_min = 0, np.inf
    while True:
        As = sys.A.at_points(centres)
        s = np.linalg.svd(As, compute_uv=False)
        boxes += centres.shape[0]
        hit = np.flatnonzero(_scaled_singular(s))
        if hit.size:
            return _refuted(centres[hit[0]], boxes)
        spread = radii @ norms + margin
        lower = s[:, -1] - spread
        open_ = lower <= SINGULARITY_RTOL * (s[:, 0] + spread)
        certified_min = min(certified_min, lower[~open_].min(initial=np.inf))
        if not open_.any():
            return RcCertificate(
                True, "certified", boxes=boxes, sigma_min_bound=float(certified_min)
            )
        centres, radii, lower = centres[open_], radii[open_], lower[open_]
        points, dets = centres, np.linalg.det(As[open_])
        if boxes == 1:
            grid = sys.region.grid(grid_per_axis)
            points = np.vstack([points, grid])
            dets = np.concatenate([dets, np.linalg.det(sys.A.at_points(grid))])
        i, j = np.argmax(dets), np.argmin(dets)
        witness = _segment_witness(sys, points[j], points[i]) if dets[i] > 0.0 > dets[j] else None
        if witness is None and boxes == 1:  # roots of even multiplicity
            witness = _segment_witness(sys, lo, hi)
        if witness is not None:
            return _refuted(witness, boxes)
        weight = radii * norms
        if boxes + 2 * centres.shape[0] > RC_MAX_BOXES or np.any(weight.sum(axis=1) <= margin):
            break
        rows, axis = np.arange(centres.shape[0]), np.argmax(weight, axis=1)
        radii = radii.copy()
        radii[rows, axis] *= 0.5
        step = np.zeros_like(radii)
        step[rows, axis] = radii[rows, axis]
        centres, radii = np.vstack([centres - step, centres + step]), np.vstack([radii, radii])
    worst = int(np.argmin(lower))
    witness = _newton_witness(sys, centres[worst : worst + 1])
    if witness is not None:
        return _refuted(witness, boxes)
    return RcCertificate(
        True,
        "undecided",
        boxes=boxes,
        sigma_min_bound=float(lower[worst]),
        box=np.clip(np.stack([centres[worst] - radii[worst], centres[worst] + radii[worst]]), lo, hi),
    )


def check_rc(sys: LpvSsa, grid_per_axis: int = 10) -> RcCertificate:
    """Regularity certificate: region shape plus DT invertibility of ``A(p)``.

    CT systems only need the region to be convex with nonempty interior,
    which holds for every validated box.  In DT the verdict is
    deterministic (no random draw) and never a pass without a proof: for
    every ``n_p`` the Weyl-bound box search of :func:`_rc_boxes`
    certifies, refutes with a verified witness (a failing box centre, or a
    root of ``det A`` between points of opposite sign on the
    ``grid_per_axis`` grid or among open box centres, or on the region's
    main diagonal), or returns ``"undecided"`` with its smallest bound.
    With one scheduling variable the certificate also reports the
    coefficients of ``det A(p)`` (``det_poly_1d``).
    """
    convex_ok = sys.region.has_interior()
    if sys.domain == TimeDomain.CT:
        return RcCertificate(convex_ok=convex_ok, dt_invertibility="not-applicable")
    if grid_per_axis < 1:
        raise InputError("grid_per_axis must be positive")
    if sys.n_x == 0:  # the minimum over no singular value is +inf
        cert = RcCertificate(True, "certified", boxes=0, sigma_min_bound=np.inf)
    else:
        cert = _rc_boxes(sys, grid_per_axis)
    if sys.n_p == 1:  # reported evidence; the box search decided
        lo, hi = sys.region.lower, sys.region.upper
        det = np.polynomial.Chebyshev(_det_on_segment(sys, lo, hi).coef, domain=[lo[0], hi[0]])
        cert = replace(cert, det_poly_1d=det.convert(kind=np.polynomial.Polynomial).coef)
    return replace(cert, convex_ok=convex_ok, grid_per_axis=grid_per_axis)


@dataclass(frozen=True)
class LtvSystem:
    """Time-indexed matrices of a system frozen along one scheduling signal."""

    domain: TimeDomain
    times: np.ndarray
    As: np.ndarray
    Bs: np.ndarray
    Cs: np.ndarray
    Ds: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]


def freeze_scheduling(sys: LpvSsa, p: Signal) -> LtvSystem:
    """Evaluate the affine matrix functions along a scheduling signal.

    The result holds one matrix quadruple per signal sample (per step in
    DT, per mesh node in CT), so every sample is checked: a window just
    past the last sample reads them all, and :func:`_check_signals`
    rejects only a wrong domain, a wrong dimension or a sample outside the
    region on it.
    """
    end = p.n_samples - 1 if p.times is None else np.nextafter(p.times[-1], np.inf)
    _check_signals(sys, p, end)
    K = p.n_samples
    As, Bs, Cs, Ds = (f.at_points(p.values) for f in (sys.A, sys.B, sys.C, sys.D))
    times = (
        np.arange(K, dtype=float) if sys.domain == TimeDomain.DT else p.times.copy()
    )
    return LtvSystem(domain=sys.domain, times=times, As=As, Bs=Bs, Cs=Cs, Ds=Ds)


def ltv_window_observability(
    sys: LpvSsa,
    p: Signal,
    t_end,
    rtol: float = None,
    *,
    step: float = None,
):
    """Observability of the frozen-scheduling LTV system on ``[0, t_end]``.

    Tests the window matrix of :func:`simulation._window` for full column
    rank: the rows ``C(t) Phi(t, 0)`` stacked over the samples, ``t = 0 ..
    t_end`` in DT and the nodes of the RK4 integration mesh in CT (step
    ``step``, by default ``t_end / 200``, refined with the breakpoints of
    ``p``).  The stack is a chain of matrix products, whose rounding turns
    exact rank deficiencies into debris of order ``eps * ||Phi||``, so the
    rank decision runs at the ``1e-10`` relative floor of the subspace
    iteration, in both domains on the scale of the singular values of
    ``C Phi`` themselves; pass ``rtol`` to override.

    A window that is not positive, or a scheduling that
    :func:`_check_signals` rejects on it, raises InputError.

    Returns
    -------
    (bool, RankDecision)
    """
    dt = sys.domain == TimeDomain.DT
    t_end = int(t_end) if dt else float(t_end)
    if t_end <= 0:
        raise InputError(
            "t_end must be a positive integer in DT" if dt else "t_end must be positive in CT"
        )
    _check_signals(sys, p, t_end)
    stack = _window(sys, p, t_end, t_end / 200.0 if step is None else step)[0]
    decision = RankDecision.from_matrix(stack, rtol)
    return decision.rank == sys.n_x, decision


def find_revealing_scheduling(
    sys: LpvSsa,
    trials: int,
    window,
    seed: int,
    *,
    ct_segments: int = 8,
    step: float = None,
    rtol: float = None,
):
    """Randomized search for a scheduling signal that reveals the state.

    For an observable system satisfying the regularity conditions, some
    scheduling signal makes the frozen LTV system observable on a finite
    window; this draws ``trials`` random signals (DT: i.i.d. uniform over
    the region per step; CT: piecewise-constant on a uniform mesh of
    ``ct_segments`` pieces) and returns the first ``(signal, window)``
    passing the LTV window test, or None if the search is exhausted.
    Unobservable systems return None immediately with a warning, since no
    such signal can exist.  Deterministic for a given seed.
    """
    if trials < 1:
        raise InputError("trials must be positive")
    observable, _ = is_observable(sys, rtol)
    if not observable:
        warnings.warn(
            "system is not observable; no revealing scheduling exists",
            stacklevel=2,
        )
        return None
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        if sys.domain == TimeDomain.DT:
            p = random_scheduling(sys.region, rng, sys.domain, n_steps=int(window))
        else:
            p = random_scheduling(
                sys.region, rng, sys.domain, t_end=float(window), segments=ct_segments
            )
        ok, _ = ltv_window_observability(sys, p, window, rtol, step=step)
        if ok:
            return p, window
    return None
