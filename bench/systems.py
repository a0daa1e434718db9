"""Seeded generators for the benchmark's systems and signals.

Every system is kept as plain coefficient arrays (``Plant``) that the
oracles read directly; the library only ever sees the documents written
from them.  Planted structure is exact: an unobservable part is a zero
block of ``C`` and of the upper-right block of every ``A_i`` before a random
orthogonal change of basis, an unreachable part the transposed pattern on
``B`` and ``A_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Plant:
    """Coefficient lists ``M_0 .. M_np`` of an affine LPV system on a box."""

    A: list
    B: list
    C: list
    D: list
    lower: np.ndarray
    upper: np.ndarray
    domain: str  # "dt" or "ct"
    meta: dict = field(default_factory=dict)

    @property
    def n_x(self):
        return self.A[0].shape[0]

    @property
    def n_p(self):
        return len(self.A) - 1

    def at(self, name, p):
        """``M_0 + sum_i p_i M_i`` evaluated by the benchmark itself."""
        coeffs = getattr(self, name)
        out = coeffs[0].copy()
        for pi, Mi in zip(p, coeffs[1:]):
            out += pi * Mi
        return out

    def to_lpvssa(self):
        from lpvssa import LpvSsa

        return LpvSsa.from_matrices(
            self.A, self.B, self.C, self.D, (self.lower, self.upper), self.domain
        )


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def random_invertible(rng, n, log_cond=1.0):
    """Random ``n x n`` matrix with condition number ``10**log_cond``."""
    s = np.logspace(-log_cond / 2, log_cond / 2, n)
    return _orthogonal(rng, n) @ np.diag(s) @ _orthogonal(rng, n).T


def random_plant(
    rng,
    n_x,
    n_p,
    domain,
    *,
    n_u=1,
    n_y=1,
    unobs=0,
    unreach=0,
    shift=0.0,
    a_norm=0.9,
):
    """Random plant on ``[-1, 1]^n_p`` with planted structure.

    Each ``A_i`` (before the shift) has spectral norm ``a_norm / (n_p + 1)``,
    so ``||A(p) - shift I|| <= a_norm`` on the whole box.  With
    ``shift > a_norm`` this proves ``sigma_min(A(p)) >= shift - a_norm > 0``
    everywhere, i.e. ``A(p)`` is invertible on the region.
    """
    o = n_x - unobs
    r = n_x - unreach
    A = []
    for _ in range(n_p + 1):
        Ai = rng.standard_normal((n_x, n_x))
        if unobs:
            Ai[:o, o:] = 0.0
        if unreach:
            Ai[r:, :r] = 0.0
        A.append(Ai * (a_norm / (n_p + 1) / np.linalg.norm(Ai, 2)))
    A[0] = A[0] + shift * np.eye(n_x)
    C = [rng.standard_normal((n_y, n_x)) for _ in range(n_p + 1)]
    B = [rng.standard_normal((n_x, n_u)) for _ in range(n_p + 1)]
    for Ci in C:
        Ci[:, o:] = 0.0
    for Bi in B:
        Bi[r:] = 0.0
    D = [rng.standard_normal((n_y, n_u)) for _ in range(n_p + 1)]
    meta = {"unobs": unobs, "unreach": unreach, "shift": shift, "a_norm": a_norm}
    box = (-np.ones(n_p), np.ones(n_p))
    # the observable block in planted coordinates is a minimal realization
    observable_part = Plant(
        [Ai[:o, :o] for Ai in A], [Bi[:o] for Bi in B], [Ci[:, :o] for Ci in C],
        D, *box, domain, dict(meta, unobs=0),
    )
    Q = _orthogonal(rng, n_x)
    return Plant(
        A=[Q @ Ai @ Q.T for Ai in A],
        B=[Q @ Bi for Bi in B],
        C=[Ci @ Q.T for Ci in C],
        D=D,
        lower=box[0],
        upper=box[1],
        domain=domain,
        meta=dict(meta, observable_part=observable_part),
    )


def conjugate(plant, T):
    """Same plant in the state basis ``z = T x``."""
    Ti = np.linalg.inv(T)
    return Plant(
        A=[T @ Ai @ Ti for Ai in plant.A],
        B=[T @ Bi for Bi in plant.B],
        C=[Ci @ Ti for Ci in plant.C],
        D=[Di.copy() for Di in plant.D],
        lower=plant.lower,
        upper=plant.upper,
        domain=plant.domain,
        meta=dict(plant.meta),
    )


def perturb_output(rng, plant, scale=0.3):
    """Copy whose ``C_0`` carries an additive random perturbation."""
    C = [Ci.copy() for Ci in plant.C]
    C[0] = C[0] + scale * rng.standard_normal(C[0].shape)
    return Plant(plant.A, plant.B, C, plant.D, plant.lower, plant.upper, plant.domain)


def fixed_plant(A, B, C, D, lower, upper, domain):
    """Plant from literal coefficient lists (the seed-independent fixtures)."""

    def arr(ms):
        return [np.atleast_2d(np.asarray(m, dtype=float)) for m in ms]

    return Plant(
        arr(A), arr(B), arr(C), arr(D),
        np.asarray(lower, dtype=float), np.asarray(upper, dtype=float), domain,
    )


def near_unobservable():
    """``C = [1 0]``, ``A_0 = [[1, 1e-12], [0, 1]]``: observable by a 1e-12 margin."""
    Z2, Z1 = np.zeros((2, 2)), np.zeros((1, 1))
    return fixed_plant(
        [[[1.0, 1e-12], [0.0, 1.0]], Z2],
        [[[1.0], [1.0]], np.zeros((2, 1))],
        [[[1.0, 0.0]], np.zeros((1, 2))],
        [Z1, Z1],
        [0.0], [1.0], "dt",
    )


SINGULAR_LINE_P1 = 0.123456789


def singular_line():
    """``A(p) = [[p_1 - 0.123456789, 0], [0, 1 + 0.5 p_2]]`` on ``[0, 1]^2``.

    ``A(p)`` is singular on the whole line ``p_1 = 0.123456789``.
    """
    Z1 = np.zeros((1, 1))
    return fixed_plant(
        [
            [[-SINGULAR_LINE_P1, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.5]],
        ],
        [[[1.0], [1.0]], np.zeros((2, 1)), np.zeros((2, 1))],
        [[[1.0, 1.0]], np.zeros((1, 2)), np.zeros((1, 2))],
        [Z1, Z1, Z1],
        [0.0, 0.0], [1.0, 1.0], "dt",
    )


def pwc_values(rng, plant, segments):
    """Scheduling and input samples for ``segments`` constant pieces."""
    p = rng.uniform(plant.lower, plant.upper, size=(segments, plant.n_p))
    u = rng.standard_normal((segments, plant.B[0].shape[1]))
    return p, u
