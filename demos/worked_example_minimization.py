#!/usr/bin/env python3
"""Minimize the bundled 3-state worked example and certify the result.

The system is discrete-time with one scheduling variable on [0, 1].  It is
span-reachable but not observable: the observability reduction drops the
state dimension from 3 to 2, and the reduced system is isomorphic to the
known minimal realization bundled alongside.
"""

from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from lpvssa import (
    check_rc,
    find_isomorphism,
    is_observable,
    is_span_reachable_from_zero,
    minimize,
    unobservable_subspace,
)
from lpvssa.io import parse_system

DATA = Path(__file__).parent / "data"

sys3 = parse_system((DATA / "worked_example.json").read_text())
minimal = parse_system((DATA / "worked_minimal.json").read_text())

print("=== the 3-state worked example ===")
print("A(0) =")
print(sys3.A(np.array([0.0])))
print("A(1) =")
print(sys3.A(np.array([1.0])))

obs, obs_dec = is_observable(sys3)
reach, reach_dec = is_span_reachable_from_zero(sys3)
print(f"\nobservable:            {obs} (rank {obs_dec.rank} of {sys3.n_x})")
print(f"span-reachable from 0: {reach} (rank {reach_dec.rank} of {sys3.n_x})")

kernel = unobservable_subspace(sys3)
print(f"unobservable direction: {np.round(kernel.ravel(), 6)}")

# The regularity certificate: in discrete time the state matrix must be
# invertible over the whole region.  Weyl's bound, with a floating-point
# margin, bounds sigma_min(A(p)) from below on boxes that cover the
# interval.
cert = check_rc(sys3)
print(f"\nregularity: {cert.dt_invertibility}")
print(f"sigma_min(A(p)) >= {cert.sigma_min_bound:.6g} on [0, 1] ({cert.boxes} boxes)")


def exact_det_coefficients(A0, A1):
    """det(A0 + p A1) by the Leibniz formula in exact fractions, constant first."""
    A0, A1 = ([[Fraction(v) for v in row] for row in M.tolist()] for M in (A0, A1))
    coeffs = [Fraction(0)] * (len(A0) + 1)
    for perm in permutations(range(len(A0))):
        term = [Fraction((-1) ** sum(a > b for a, b in combinations(perm, 2)))]
        for i, j in enumerate(perm):  # times A0[i][j] + p A1[i][j]
            term = [A0[i][j] * t + A1[i][j] * s for t, s in zip(term + [0], [0] + term)]
        coeffs = [c + t for c, t in zip(coeffs, term)]
    return coeffs


# The paper's determinant, which the certificate does not need: it has no
# root in [0, 1], in agreement with the verdict above.
det = exact_det_coefficients(*sys3.A.coeffs)
print(f"det A(p) coefficients (constant first, exact): {', '.join(map(str, det))}")

result = minimize(sys3)
print(f"\nreduced dimension: {result.o} (status: {result.minimality})")
print("reduced A_0 =")
print(np.round(result.reduced.A.coeffs[0], 6))
print("reduced A_1 =")
print(np.round(result.reduced.A.coeffs[1], 6))

# Minimal realizations of one behavior are related by a constant
# invertible change of state basis, recovered here from the stacked
# observability matrices.
iso = find_isomorphism(result.reduced, minimal)
print(f"\nisomorphic to the bundled minimal system: {iso.verdict}")
print(f"residual: {iso.residual:.3e}")
print("T =")
print(np.round(iso.T, 6))
