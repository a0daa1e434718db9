"""Observability reduction, minimization, and the dual reachability reduction.

The reduction changes basis with an orthogonal transform whose last rows
span the unobservable subspace, then keeps the leading blocks.  Every
solution of the original system projects to a solution of the reduced
one, so the manifest behavior is preserved; when the regularity
certificate of the reduced system holds it is moreover a minimal
realization.  Every rank runs at the one floor ``ITERATION_RTOL`` of
:mod:`~lpvssa.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import RcCertificate, _threshold, check_rc, unobservable_subspace
from .core import LpvSsa, transpose_dual

__all__ = ["ReductionResult", "observability_reduction", "minimize", "reachability_reduction"]


@dataclass(frozen=True)
class ReductionResult:
    """Reduced system plus the full change of basis.

    ``projection_Pi`` is the first ``o`` rows of ``transform_T``: it maps
    original states to reduced states, and stacking it with the discarded
    rows recovers ``transform_T``.  For the observability reduction,
    ``T A_i T^{-1}`` is block lower-triangular with the reduced ``A_i`` as
    the top-left block, the first ``o`` rows of ``T B_i`` form the reduced
    ``B_i``, and ``C_i T^{-1}`` has its last columns zero; the reachability
    reduction satisfies the transposed statements.
    """

    reduced: LpvSsa
    transform_T: np.ndarray
    projection_Pi: np.ndarray
    o: int
    minimality: str = None
    rc: RcCertificate = None


def observability_reduction(sys: LpvSsa) -> ReductionResult:
    """Split off the unobservable part and keep the observable blocks.

    The unobservable subspace is spanned by the trailing basis vectors,
    its orthogonal complement by the leading ones, and the assembled
    basis matrix is orthogonal, so ``T`` is simply its transpose.  The
    reduced system is observable and has the same manifest behavior; an
    observable input comes back unchanged up to an orthogonal change of
    basis (``o = n_x``), a zero-output system collapses to the
    state-free feedthrough system (``o = 0``).  The bases come from SVDs,
    so the completion is deterministic; a reduction of the same system in
    other coordinates (``T_0 A_i T_0^{-1}``, ...) gives a different but
    equally valid one, isomorphic to this.

    Returns
    -------
    ReductionResult
    """
    K = unobservable_subspace(sys)
    W = _threshold(K.T, kernel=True)[2]  # orthogonal complement of the kernel
    o = W.shape[1]
    basis = np.hstack([W, K])  # orthogonal: complement first, kernel last
    T = basis.T
    Pi = T[:o]

    reduced = LpvSsa.from_matrices(
        A=(T @ sys.A.coeffs @ basis)[:, :o, :o],
        B=(T @ sys.B.coeffs)[:, :o],
        C=(sys.C.coeffs @ basis)[:, :, :o],
        D=sys.D,
        region=sys.region,
        domain=sys.domain,
    )
    return ReductionResult(reduced=reduced, transform_T=T, projection_Pi=Pi, o=o)


def minimize(sys: LpvSsa) -> ReductionResult:
    """Observability reduction with the minimality claim made explicit.

    The observable reduction is minimal when it satisfies the regularity
    conditions, so its certificate (:func:`check_rc` of
    ``result.reduced``) is evaluated alongside and the result is flagged
    ``"minimal (behavioral)"`` only when it holds (``"certified"``, or
    ``"not-applicable"`` in CT), and ``"observable reduction only"`` when
    regularity is refuted or undecided.  (Without regularity an observable
    system can still admit a smaller realization of the same behavior.)

    The reduction's certificate, not the input's, carries the claim.  In
    reduced coordinates ``T A(p) T^{-1}`` is block lower-triangular with
    ``A_o(p)``, the reduced ``A(p)``, as its top-left block, so ``det A(p)
    = det A_o(p) det A_u(p)`` and ``sigma_min(A_o(p)) >= sigma_min(A(p))``
    (``T`` is orthogonal).  A regular input therefore has a regular
    reduction, but not conversely: a singular unobservable block makes the
    input singular while the reduction stays regular.
    """
    result = observability_reduction(sys)
    rc = check_rc(result.reduced)
    flag = "minimal (behavioral)" if rc.holds else "observable reduction only"
    return replace(result, minimality=flag, rc=rc)


def reachability_reduction(sys: LpvSsa) -> ReductionResult:
    """Restrict to the span-reachable-from-zero part via the dual system.

    Dualize, reduce, dualize back: the reduced system is span-reachable
    from zero, and the returned transform is the dual reduction's, so the
    block structure is the transpose of the observability case
    (``T A_i T^{-1}`` block upper-triangular, last rows of ``T B_i``
    zero).
    """
    dual = observability_reduction(transpose_dual(sys))
    return ReductionResult(
        reduced=transpose_dual(dual.reduced),
        transform_T=dual.transform_T,
        projection_Pi=dual.projection_Pi,
        o=dual.o,
    )
