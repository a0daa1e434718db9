"""Observability/reachability analysis and regularity certification.

Every observability decision (``unobservable_subspace``,
``is_observable``, ``is_span_reachable_from_zero``, and the paired
stacks behind ``equivalence.find_isomorphism``) runs through one
polynomial-time kernel, the compressed subspace iteration of
:func:`_observability_iteration`, at one rank floor: a singular value
counts toward the rank when it exceeds ``sigma_max * ITERATION_RTOL``
(``1e-10``).  :func:`_threshold` is the only SVD that decides a rank,
and the least-squares solves of :mod:`~lpvssa.equivalence` use the same
floor.  The floor is a constant of the numerics, not a setting: a
computed invariant subspace, or a chain of transition-matrix products, is
only accurate to roughly ``eps * sigma_max / sigma_min`` of the matrix it
came from, and a lower floor counts that rounding debris as new
directions: at ``1e-15``, ``find_isomorphism`` called 24 of 100 randomly
conjugated observable pairs not isomorphic, and none at ``1e-10``.  Window
observability (:func:`ltv_window_observability`) thresholds the stacked
``C Phi`` map of ``simulation._window`` at the same floor, in DT and CT
alike.  The explicit extended observability matrix
(:func:`extended_observability_matrix`) has ``(n_p + 1)^n`` blocks; it is
kept as a builder for tests and export and decides nothing.  Reachability
has no builder of its own: the extended reachability matrix of ``sys`` is
``extended_observability_matrix(transpose_dual(sys), n).T``.
Invertibility of ``A(p)`` is judged by the scaled SVD test at
``SINGULARITY_RTOL``, and :func:`check_rc` decides it on the whole region
by branch and bound on boxes, with no random draw.  Orthonormal bases returned
from SVDs are sign-normalized so the largest-magnitude entry of each
column is positive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as poly
from numpy.polynomial import polyutils as pu

from .core import LpvSsa, TimeDomain, transpose_dual
from .errors import InputError
from .signals import Signal, _rng, random_scheduling
from .simulation import _check_signals, _check_window, _grid, _sample, _window

__all__ = [
    "RankDecision",
    "RcCertificate",
    "LtvSystem",
    "extended_observability_matrix",
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
RC_NEWTON_STEPS = 8  # Newton steps on sigma_min that polish a segment root
# rank floor for iterated subspaces and transition-matrix stacks, whose
# rounding debris sits well above machine precision (see the docstrings)
ITERATION_RTOL = 1e-10
REVEAL_CT_SEGMENTS = 8  # pieces of the piecewise-constant CT revealing candidates


@dataclass(frozen=True)
class RankDecision:
    """Numerical rank verdict: rank = #{singular values > tolerance_used}."""

    rank: int
    singular_values: np.ndarray
    tolerance_used: float

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "RankDecision":
        """The decision of :func:`_threshold` on ``M`` (floor ``1e-10``)."""
        return _threshold(M)[0]


def _sign_fix(V: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-magnitude entry is positive."""
    V = V.copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        if col.size and col[np.argmax(np.abs(col))] < 0:
            V[:, j] = -col
    return V


def _obs_levels(sys: LpvSsa, n: int):
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
        if total * width > DEFAULT_MAX_ENTRIES:
            raise InputError(
                f"extended matrix would hold {total * width} entries "
                f"(cap {DEFAULT_MAX_ENTRIES}); use the subspace-iteration path "
                "(unobservable_subspace / is_observable)"
            )
        level = np.vstack(level @ sys.A.coeffs)
        levels.append(level)
    return levels


def extended_observability_matrix(sys: LpvSsa, n: int) -> np.ndarray:
    """Extended n-step observability matrix ``O_n``.

    ``O_0`` stacks the output coefficients; each further step appends the
    previous blocks propagated through every state coefficient, so the
    rows span ``{C_j A_w : words w of length <= n}``.  Row count is
    ``n_y (n_p+1) ((n_p+1)^{n+1} - 1) / n_p`` for ``n_p >= 1``.

    An explicit builder for tests and export: no decision in the package
    forms this matrix (see :func:`is_observable`).

    Raises
    ------
    InputError
        When ``n`` is negative, or the matrix would exceed
        ``DEFAULT_MAX_ENTRIES`` entries.
    """
    if n < 0:
        raise InputError("n must be nonnegative")
    return np.vstack(_obs_levels(sys, n))


def _threshold(M: np.ndarray, *, kernel: bool = False):
    """The one rank threshold: one SVD of ``M``, ``sigma_max`` times ``ITERATION_RTOL``.

    Every rank decision runs this one SVD routine, with singular vectors.
    Returns the RankDecision, the rows of ``Vh`` it keeps (an orthonormal
    row basis) and, with ``kernel``, the rest of the full SVD's ``Vh`` as
    sign-normalized columns (an orthonormal kernel basis).  Without
    ``kernel`` the SVD is the reduced one, which has no complete kernel for
    a wide ``M``, and the kernel is None.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[1]
    if M.size == 0:
        return RankDecision(0, np.zeros(0), 0.0), np.zeros((0, n)), np.eye(n) if kernel else None
    _, s, Vh = np.linalg.svd(M, full_matrices=kernel)
    tol = float(s[0]) * ITERATION_RTOL
    rank = int(np.sum(s > tol))
    return RankDecision(rank, s, tol), Vh[:rank], _sign_fix(Vh[rank:].T) if kernel else None


def _observability_iteration(C_coeffs, A_coeffs):
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

    Every level uses the floor ``ITERATION_RTOL``, so later levels do not
    count the rounding debris of earlier ones as new directions (see the
    module docstring).

    Returns
    -------
    (Q, RankDecision)
        The final row basis and the decision on the last thresholded
        stack, so ``decision.rank == Q.shape[0]``.
    """
    n = A_coeffs[0].shape[0]
    decision, Q, _ = _threshold(np.vstack(C_coeffs))
    for _ in range(max(n - 1, 0)):
        if not 0 < Q.shape[0] < n:
            break
        decision, grown, _ = _threshold(np.vstack([Q, *(Q @ A_coeffs)]))
        unchanged = grown.shape[0] == Q.shape[0]
        Q = grown
        if unchanged:
            break
    return Q, decision


def unobservable_subspace(sys: LpvSsa) -> np.ndarray:
    """Orthonormal basis (columns) of the unobservable subspace.

    The orthogonal complement of the row basis that the observability
    kernel (:func:`_observability_iteration`) ends with; it spans
    ``Ker O_{n_x - 1}``.
    """
    Q, _ = _observability_iteration(sys.C.coeffs, sys.A.coeffs)
    return _threshold(Q, kernel=True)[2]


def is_observable(sys: LpvSsa):
    """Rank test for observability: ``rank O_{n_x - 1} = n_x``.

    Verdict and evidence come from one matrix: the returned RankDecision
    is the SVD of the last stack the observability kernel thresholded
    (``[Q; Q A_0; ..; Q A_np]``, or the stacked ``C_i`` when the
    iteration ends at level 0), its ``tolerance_used`` is that matrix's
    largest singular value times the floor ``1e-10``, and ``rank == n_x -
    dim Ker O_{n_x - 1}``.  The explicit ``O_{n_x - 1}`` with its
    ``(n_p + 1)^{n_x}`` blocks is never formed.

    Returns
    -------
    (bool, RankDecision)
    """
    Q, decision = _observability_iteration(sys.C.coeffs, sys.A.coeffs)
    return Q.shape[0] == sys.n_x, decision


def is_span_reachable_from_zero(sys: LpvSsa):
    """Rank test for span-reachability from zero: observability of the dual.

    Returns
    -------
    (bool, RankDecision)
    """
    return is_observable(transpose_dual(sys))


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
    P = np.array(starts, dtype=float)
    for step in range(RC_NEWTON_STEPS + 1):
        As = sys.A.at_points(P)
        hit = np.flatnonzero(_singular_mask(As))
        if hit.size:
            return P[hit[0]]
        if step == RC_NEWTON_STEPS:
            return None
        U, s, Vh = np.linalg.svd(As)
        g = np.einsum("ka,iab,kb->ki", U[:, :, -1], sys.A.coeffs[1:], Vh[:, -1, :])
        gg = np.sum(g * g, axis=1)
        scale = np.divide(s[:, -1], gg, out=np.zeros_like(gg), where=gg > 0)
        P = np.clip(P - scale[:, None] * g, lo, hi)


def _det_on_segment(sys: LpvSsa, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``det A(a + t (b - a))`` as Chebyshev coefficients in ``t`` on ``[0, 1]``.

    The determinant is a polynomial of degree at most ``n_x`` in ``t``, so
    its interpolant at the ``n_x + 1`` Chebyshev nodes is exact up to
    rounding: one ``at_points`` call and one stacked determinant.
    Numerically-zero leading coefficients are dropped.  The steps are
    those of ``Chebyshev.fit(t, dets, n_x, domain=[0, 1]).trim(tol)``, on
    arrays: the fit runs on ``2 t - 1``.
    """
    t = _chebyshev_nodes(0.0, 1.0, sys.n_x + 1)
    dets = np.linalg.det(sys.A.at_points(a + t[:, None] * (b - a)))
    coef = cheb.chebfit(2.0 * t - 1.0, dets, sys.n_x)
    return pu.trimcoef(coef, 1e-12 * float(np.max(np.abs(coef))))


def _segment_roots(det: np.ndarray) -> np.ndarray:
    """Real roots of the interpolant ``det`` in ``[0, 1]`` (within ``1e-9``), clipped.

    Every segment passed here runs through a point that passed the scaled
    test (two open box centres, or the root box's centre on the
    diagonal), so ``det`` is not identically zero on it; a constant
    series has no roots.
    """
    r = pu.mapdomain(cheb.chebroots(det), (-1.0, 1.0), (0.0, 1.0))
    real = np.abs(r.imag) <= 1e-8 * (1.0 + np.abs(r.real))
    inside = (r.real >= -1e-9) & (r.real <= 1.0 + 1e-9)
    return np.clip(r.real[real & inside], 0.0, 1.0)


def _power_series(det: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The Chebyshev series ``det`` on ``[lo, hi]`` as power-series coefficients.

    The operations, and their order, of
    ``Chebyshev(det, domain=[lo, hi]).convert(kind=Polynomial).coef``: the
    Clenshaw recursion of ``chebval`` run on the power series of the map
    from ``[lo, hi]`` onto ``[-1, 1]``, with the series arithmetic of
    ``numpy.polynomial`` (``np.convolve`` and :func:`_series_add`, each
    with trailing zeros trimmed), so the result is the same to the bit.
    The recursion's difference ``c - c1`` is taken as ``c + (-c1)``, which
    IEEE arithmetic rounds as ``polysub`` does, signed zeros included.
    """
    off, scl = pu.mapparms([lo, hi], [-1.0, 1.0])
    x = poly.polyadd(off, poly.polymul(scl, [0.0, 1.0]))
    x2 = poly.polymul(2, x)
    c0, c1 = (det[:1], np.zeros(1)) if len(det) == 1 else (det[-2:-1], det[-1:])
    for k in range(len(det) - 3, -1, -1):
        c0, c1 = _series_add(det[k:k + 1], -c1), _series_add(c0, pu.trimseq(np.convolve(c1, x2)))
    return _series_add(c0, pu.trimseq(np.convolve(c1, x)))


def _series_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``polyadd(a, b)`` on float coefficient arrays, without its conversions."""
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return pu.trimseq(out)


def _segment_witness(sys: LpvSsa, a: np.ndarray, b: np.ndarray, det):
    """A verified singular point on the segment from ``a`` to ``b``, or None.

    The candidates are the real roots of ``det``, the determinant
    interpolant of the segment (:func:`_det_on_segment`), polished by
    :func:`_newton_witness`.  When ``det A`` takes opposite signs at ``a``
    and ``b``, a root lies on the segment.
    """
    t = _segment_roots(det)
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
      Deciding nonsingularity on a box is NP-hard in general (Poljak &
      Rohn 1993), so a bounded search with this honest third verdict is
      deliberate.

    The region needs no verdict of its own: every
    :class:`~lpvssa.core.SchedulingRegion` is convex with nonempty
    interior by construction.  ``holds`` is true exactly for
    ``"certified"`` and ``"not-applicable"``.
    Every DT certificate carries ``boxes``, the boxes visited.  With one
    scheduling variable ``det_poly_1d`` holds the coefficients of ``det
    A(p)`` (constant first) as evidence; it decides nothing.
    """

    dt_invertibility: str
    witness: np.ndarray = None
    det_poly_1d: np.ndarray = None
    boxes: int = None
    sigma_min_bound: float = None
    box: np.ndarray = None

    @property
    def holds(self) -> bool:
        return self.dt_invertibility in ("not-applicable", "certified")


def _chebyshev_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    k = np.arange(count)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2 * k + 1) * np.pi / (2 * count))


def _refuted(witness: np.ndarray, boxes: int) -> RcCertificate:
    return RcCertificate("refuted-with-witness", witness=witness, boxes=boxes)


def _rc_boxes(sys: LpvSsa, diagonal) -> RcCertificate:
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
    costs one ``at_points`` call at its centres and one stacked SVD (plus
    the stacked determinant of its open boxes), so the work per box is
    polynomial in ``n_x`` and ``n_p``.

    A witness comes from a box centre that fails the scaled test, or from
    a sign change of ``det A`` between two open box centres of a
    frontier, resolved by :func:`_segment_witness`.  When the root box is
    open, the roots of ``det A`` along the region's main diagonal are
    tried too, which also finds roots of even multiplicity on it (for
    ``n_p = 1`` the diagonal is the interval itself); ``diagonal()``
    returns their interpolant.  No other point is evaluated.  Deciding
    nonsingularity on a box is NP-hard in general (Poljak & Rohn,
    "Checking robust nonsingularity is NP-hard", Math. Control Signals
    Systems 6, 1993), so the search is bounded instead: when the
    ``RC_MAX_BOXES`` budget runs out, or a box is too small for its bound
    to tighten, the verdict is ``"undecided"``, with the worst box open.
    """
    lo, hi = sys.region.lower, sys.region.upper
    norms = np.linalg.norm(sys.A.coeffs[1:], 2, axis=(1, 2))
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
            return RcCertificate("certified", boxes=boxes, sigma_min_bound=float(certified_min))
        centres, radii, lower = centres[open_], radii[open_], lower[open_]
        dets = np.linalg.det(As[open_])
        i, j = np.argmax(dets), np.argmin(dets)
        witness = None
        if dets[i] > 0.0 > dets[j]:
            a, b = centres[j], centres[i]
            witness = _segment_witness(sys, a, b, _det_on_segment(sys, a, b))
        if witness is None and boxes == 1:  # roots of even multiplicity
            witness = _segment_witness(sys, lo, hi, diagonal())
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
    return RcCertificate(
        "undecided",
        boxes=boxes,
        sigma_min_bound=float(lower[worst]),
        box=np.clip(np.stack([centres[worst] - radii[worst], centres[worst] + radii[worst]]), lo, hi),
    )


def check_rc(sys: LpvSsa) -> RcCertificate:
    """Regularity certificate: DT invertibility of ``A(p)`` on the region.

    CT systems only need the region to be convex with nonempty interior,
    which every :class:`~lpvssa.core.SchedulingRegion` is by construction,
    so their verdict is ``"not-applicable"``.  In DT the verdict is
    deterministic (no random draw) and never a pass without a proof: for
    every ``n_p`` the Weyl-bound box search of :func:`_rc_boxes`
    certifies, refutes with a verified witness (a failing box centre, or a
    root of ``det A`` between open box centres of opposite sign or on the
    region's main diagonal), or returns ``"undecided"`` with its smallest
    bound.  Each frontier of boxes costs one ``at_points`` call and one
    stacked SVD.  Deciding nonsingularity on a box is NP-hard in general
    (Poljak & Rohn 1993), so the ``RC_MAX_BOXES`` budget and the
    ``"undecided"`` verdict are deliberate.  With one scheduling variable
    the certificate also reports the coefficients of ``det A(p)``
    (``det_poly_1d``).
    """
    if sys.domain == TimeDomain.CT:
        return RcCertificate("not-applicable")
    lo, hi = sys.region.lower, sys.region.upper
    diagonal = cache(partial(_det_on_segment, sys, lo, hi))  # interpolated at most once
    if sys.n_x == 0:  # the minimum over no singular value is +inf
        cert = RcCertificate("certified", boxes=0, sigma_min_bound=np.inf)
    else:
        cert = _rc_boxes(sys, diagonal)
    if sys.n_p == 1:  # reported evidence; the box search decided
        cert = replace(cert, det_poly_1d=_power_series(diagonal(), lo[0], hi[0]))
    return cert


@dataclass(frozen=True)
class LtvSystem:
    """Time-indexed matrices of a system frozen along one scheduling signal."""

    domain: TimeDomain
    times: np.ndarray
    As: np.ndarray
    Bs: np.ndarray
    Cs: np.ndarray
    Ds: np.ndarray


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


def _check_observed_window(domain: TimeDomain, t_end, step: float = None) -> None:
    """:func:`_check_window`, and at least one step in DT: one sample of ``C``
    cannot reveal a state (InputError)."""
    _check_window(domain, t_end, step)
    if domain == TimeDomain.DT and t_end < 1:
        raise InputError(f"a DT window needs at least one step, got {t_end!r}")


def ltv_window_observability(sys: LpvSsa, p: Signal, t_end, *, step: float = None):
    """Observability of the frozen-scheduling LTV system on ``[0, t_end]``.

    Tests the window matrix of :func:`simulation._window` for full column
    rank: the rows ``C(t) Phi(t, 0)`` stacked over the samples, ``t = 0 ..
    t_end`` in DT and the nodes of the RK4 integration mesh in CT (step
    ``step``, by default ``t_end / 200``, refined with the breakpoints of
    ``p``).  The stack is a chain of matrix products, whose rounding turns
    exact rank deficiencies into debris of order ``eps * ||Phi||``, so the
    rank decision runs at the ``1e-10`` relative floor of the subspace
    iteration, in both domains on the scale of the singular values of
    ``C Phi`` themselves.

    A window that :func:`_check_observed_window` rejects (no DT step, a DT
    window that is not an integer, a CT end time or step that is not
    finite and positive), or a scheduling that :func:`_check_signals`
    rejects on it, raises InputError.

    Returns
    -------
    (bool, RankDecision)
    """
    _check_observed_window(sys.domain, t_end, step)
    _check_signals(sys, p, t_end)
    times = _grid(sys.domain, t_end, t_end / 200.0 if step is None else step, p)
    stack = _window(sys, _sample(p, times))[0]
    decision = RankDecision.from_matrix(stack)
    return decision.rank == sys.n_x, decision


def find_revealing_scheduling(sys: LpvSsa, trials: int, window, seed: int):
    """Randomized search for a scheduling signal that reveals the state.

    For an observable system satisfying the regularity conditions, some
    scheduling signal makes the frozen LTV system observable on a finite
    window; this draws ``trials`` random signals (DT: i.i.d. uniform over
    the region per step; CT: piecewise-constant on a uniform mesh of
    ``REVEAL_CT_SEGMENTS`` pieces) and returns the first ``(signal,
    window)`` passing the LTV window test (:func:`ltv_window_observability`
    at its default step), or None if the search is exhausted.
    The window is checked first, by the rule of
    :func:`ltv_window_observability` (InputError), so a bad window is
    rejected on every system.  Unobservable systems then return None
    immediately with a warning, since no such signal can exist.
    Deterministic for a given seed; a seed that ``np.random.default_rng``
    rejects is an InputError.
    """
    if trials < 1:
        raise InputError("trials must be positive")
    _check_observed_window(sys.domain, window)
    observable, _ = is_observable(sys)
    if not observable:
        warnings.warn(
            "system is not observable; no revealing scheduling exists",
            stacklevel=2,
        )
        return None
    rng = _rng(seed)
    for _ in range(trials):
        if sys.domain == TimeDomain.DT:
            p = random_scheduling(sys.region, rng, sys.domain, n_steps=int(window))
        else:
            p = random_scheduling(
                sys.region, rng, sys.domain, t_end=float(window), segments=REVEAL_CT_SEGMENTS
            )
        ok, _ = ltv_window_observability(sys, p, window)
        if ok:
            return p, window
    return None
