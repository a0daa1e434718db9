"""Core types for LPV state-space systems with affine scheduling dependence.

A system is described by four matrix-valued affine functions ``A, B, C, D``
of a scheduling point ``p`` ranging over a box region, together with a time
domain tag (discrete or continuous).  All values are immutable after
construction and every operation here is a pure function.

:meth:`AffineMatrixFunction.at_points` is the one evaluator of an affine
function: a stack of scheduling points of any leading shape, such as the
samples of a signal, in one call.  Calling the function at one point is
its one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError

__all__ = [
    "AffineMatrixFunction",
    "SchedulingRegion",
    "TimeDomain",
    "LpvSsa",
    "transpose_dual",
]


# Matrix entries per block of :meth:`AffineMatrixFunction.at_points` (128 KiB
# of doubles): a block and its product temporary fit in L2.
_BLOCK_DOUBLES = 16384


def _check_shapes(coeffs) -> None:
    """Name the first coefficient whose shape differs from coefficient 0's.

    Runs only when one array conversion of ``coeffs`` gives no stack of
    scalars, vectors or matrices.  Each coefficient is converted on its
    own, so an entry that is not a number raises numpy's own error.
    """
    shapes = [np.asarray(c, dtype=float).shape for c in coeffs]
    for i, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise InputError(f"coefficient {i} has shape {shape}, expected {shapes[0]}")


class TimeDomain(Enum):
    """Discrete-time (forward shift) or continuous-time (derivative) dynamics."""

    DT = "dt"
    CT = "ct"


@dataclass(frozen=True)
class AffineMatrixFunction:
    """Matrix-valued affine function ``M(p) = M_0 + sum_i p_i M_i``.

    The coefficients are stored as one read-only ``(n_p + 1, rows, cols)``
    array, ``coeffs``, checked for finiteness once, at construction.
    Iterating, indexing, slicing and ``len`` give the coefficient matrices
    in index order, and stacked products such as ``T @ f.coeffs @ S``
    transform every coefficient at once.

    Construction costs what the data costs: one ``np.array`` conversion
    of the whole coefficient list and one ``isfinite`` pass over the
    stack.  Only when the conversion is refused, or gives no stack of
    scalars, vectors or matrices, are the coefficients converted one by
    one, to name the first whose shape differs; only when the finiteness
    pass fails is the first non-finite coefficient located.

    Parameters
    ----------
    coeffs : sequence of (rows, cols) array_like
        ``n_p + 1`` real matrices of identical shape.  Index 0 is the
        constant term, index ``i >= 1`` multiplies scheduling coordinate
        ``p_i``.  Coefficients that are all scalars are ``1 x 1``
        matrices and coefficients that are all 1-D are single rows; a
        list that mixes scalars, vectors and matrices is refused, as is
        an iterator.

    Raises
    ------
    InputError
        If the coefficient list is empty, shapes disagree, it is not a
        sequence of scalars, vectors or matrices, or any entry is not
        finite.
    """

    coeffs: np.ndarray

    def __init__(self, coeffs):
        try:
            stack = np.array(coeffs, dtype=float)
        except (TypeError, ValueError):  # ragged, an entry that is not a number, or an iterator
            stack = None
        if stack is None or not 1 <= stack.ndim <= 3:
            _check_shapes(coeffs)
            raise InputError(
                "coefficients must be a sequence of scalars, vectors or matrices of one shape"
            )
        if stack.ndim < 3:  # scalar or 1-D coefficients are 1 x cols matrices
            stack = stack.reshape(len(stack), 1, *(stack.shape[1:] or (1,)))
        if not len(stack):
            raise InputError("need at least the constant coefficient matrix")
        if not np.isfinite(stack).all():
            bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
            raise InputError(f"coefficient {bad[0]} contains non-finite entries")
        stack.setflags(write=False)
        object.__setattr__(self, "coeffs", stack)

    @property
    def n_p(self) -> int:
        """Number of scheduling coordinates (``len(coeffs) - 1``)."""
        return len(self.coeffs) - 1

    @property
    def shape(self) -> tuple:
        return self.coeffs.shape[1:]

    def __call__(self, p) -> np.ndarray:
        """Evaluate ``M_0 + sum_i p_i M_i`` at one scheduling point.

        The one-point case of :meth:`at_points`, so ``self(p)`` is
        bit-identical to ``at_points(p[None])[0]``.

        Parameters
        ----------
        p : array_like, shape (n_p,)
            Scheduling point.  A scalar is accepted when ``n_p == 1``.

        Returns
        -------
        (rows, cols) ndarray
        """
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if p.shape != (self.n_p,):
            raise InputError(
                f"scheduling point has shape {p.shape}, expected ({self.n_p},)"
            )
        return self.at_points(p)

    def at_points(self, points) -> np.ndarray:
        """Evaluate at a stack of scheduling points, the one evaluator of ``M``.

        The points are taken in blocks of about ``_BLOCK_DOUBLES`` matrix
        entries, so a block of the result and its product temporary stay
        in cache: each block is filled with ``M_0`` and accumulates
        ``p_i M_i`` in place, one coefficient after another in index
        order, so every point rounds as ``M_0 + p_1 M_1 + ...`` written
        out does, whatever the stack's shape.

        Parameters
        ----------
        points : array_like, shape (..., n_p)

        Returns
        -------
        (..., rows, cols) ndarray
        """
        P = np.asarray(points, dtype=float)
        if P.ndim < 1 or P.shape[-1] != self.n_p:
            raise InputError(
                f"scheduling points have shape {P.shape}, expected (..., {self.n_p})"
            )
        lead = P.shape[:-1]
        P = P.reshape(math.prod(lead), self.n_p)
        out = np.empty((P.shape[0],) + self.shape)
        block = max(1, _BLOCK_DOUBLES // max(1, self.coeffs[0].size))
        tmp = np.empty((min(block, P.shape[0]),) + self.shape)
        for start in range(0, P.shape[0], block):
            Pb, Ob = P[start : start + block], out[start : start + block]
            Tb = tmp[: Ob.shape[0]]
            Ob[...] = self.coeffs[0]
            for i in range(self.n_p):
                np.multiply(Pb[:, i, None, None], self.coeffs[i + 1], out=Tb)
                Ob += Tb
        return out.reshape(lead + self.shape)

    def transpose(self) -> "AffineMatrixFunction":
        """Coefficient-wise transpose."""
        return AffineMatrixFunction(self.coeffs.transpose(0, 2, 1))


@dataclass(frozen=True)
class SchedulingRegion:
    """Axis-aligned box in R^{n_p} of admissible scheduling values.

    The theory only needs a convex set with nonempty interior; boxes are
    the supported subset because they bisect into boxes, each with a
    centre and half-widths that bound ``A(p)`` on it (see
    ``analysis.check_rc``).  The interior is enforced here: a box with
    ``lower[i] >= upper[i]`` in any coordinate is an InputError naming
    every such coordinate, so every region is convex with nonempty
    interior.  Each bound is converted once, into the read-only copy
    the region keeps.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, lower, upper):
        lo = np.array(lower, dtype=float, ndmin=1)
        hi = np.array(upper, dtype=float, ndmin=1)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise InputError("lower and upper must be 1-d vectors of equal length")
        if lo.size < 1:
            raise InputError("scheduling region needs at least one coordinate")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise InputError("region bounds must be finite")
        empty = np.flatnonzero(lo >= hi)
        if empty.size:
            raise InputError("; ".join(
                f"region has empty interior in coordinate {i}: lower={lo[i]} >= upper={hi[i]}"
                for i in empty
            ))
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n_p(self) -> int:
        return self.lower.size

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` uniform draws from the box, shape ``(size, n_p)``.

        Whether a sample lies in the region is decided by one rule, that of
        ``simulation._check_signals``.
        """
        return rng.uniform(self.lower, self.upper, size=(size, self.n_p))


@dataclass(frozen=True)
class LpvSsa:
    """LPV state-space system with affine scheduling dependence.

    Dynamics (``xi`` is the forward shift in DT, the derivative in CT)::

        xi x(t) = A(p(t)) x(t) + B(p(t)) u(t)
        y(t)    = C(p(t)) x(t) + D(p(t)) u(t)

    Every system is valid by construction: the structural invariants
    (square ``A``, shapes of ``B``, ``C`` and ``D`` that agree with it, at
    least one input and one output, and ``n_p`` coefficients that match
    the region) are checked once, when the system is built, and a
    violation is an InputError that lists every violated invariant
    (``invalid system: ...``).  The region's interior is enforced by
    :class:`SchedulingRegion` itself.  :meth:`from_matrices` converts
    plain coefficient lists.
    """

    A: AffineMatrixFunction
    B: AffineMatrixFunction
    C: AffineMatrixFunction
    D: AffineMatrixFunction
    region: SchedulingRegion
    domain: TimeDomain

    def __post_init__(self):
        v = []
        n_x = self.A.shape[0]
        if self.A.shape[1] != n_x:
            v.append(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n_x:
            v.append(f"B has {self.B.shape[0]} rows but A is {n_x}x{n_x}")
        if self.C.shape[1] != n_x:
            v.append(f"C has {self.C.shape[1]} columns but A is {n_x}x{n_x}")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            v.append(
                f"D has shape {self.D.shape}, expected "
                f"({self.C.shape[0]}, {self.B.shape[1]})"
            )
        if self.B.shape[1] < 1:
            v.append("system needs at least one input (n_u >= 1)")
        if self.C.shape[0] < 1:
            v.append("system needs at least one output (n_y >= 1)")
        n_p = self.region.n_p
        for name, f in (("A", self.A), ("B", self.B), ("C", self.C), ("D", self.D)):
            if f.n_p != n_p:
                v.append(
                    f"{name} has {f.n_p} scheduling coefficients but the "
                    f"region has n_p = {n_p}"
                )
        if v:
            raise InputError("invalid system: " + "; ".join(v))

    @classmethod
    def from_matrices(cls, A, B, C, D, region, domain) -> "LpvSsa":
        """Build a system from coefficient lists, converting each argument.

        Parameters
        ----------
        A, B, C, D : sequence of array_like or AffineMatrixFunction
            Coefficient lists (constant term first).
        region : SchedulingRegion or (lower, upper) pair
        domain : TimeDomain or {"dt", "ct"}

        Raises
        ------
        InputError
            From the conversions, or from construction, listing every
            violated invariant.
        """

        def _amf(x):
            return x if isinstance(x, AffineMatrixFunction) else AffineMatrixFunction(x)

        if not isinstance(region, SchedulingRegion):
            region = SchedulingRegion(*region)
        if not isinstance(domain, TimeDomain):
            domain = TimeDomain(str(domain).lower())
        return cls(_amf(A), _amf(B), _amf(C), _amf(D), region, domain)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    @property
    def n_p(self) -> int:
        return self.region.n_p

    def signature(self) -> tuple:
        """(n_u, n_y, n_p, domain) — what two systems must share to be compared."""
        return (self.n_u, self.n_y, self.n_p, self.domain)


def transpose_dual(sys: LpvSsa) -> LpvSsa:
    """Dual system: ``A_i -> A_i^T``, ``B_i -> C_i^T``, ``C_i -> B_i^T``, ``D_i -> D_i^T``.

    Span-reachability of ``sys`` from zero is observability of the dual,
    which is how the reachability-side operations are implemented.  The
    map is an involution: ``transpose_dual(transpose_dual(sys)) == sys``
    coefficient-wise.
    """
    return LpvSsa(
        A=sys.A.transpose(),
        B=sys.C.transpose(),
        C=sys.B.transpose(),
        D=sys.D.transpose(),
        region=sys.region,
        domain=sys.domain,
    )
