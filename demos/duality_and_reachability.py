#!/usr/bin/env python3
"""Reachability machinery is the observability machinery of the dual.

Transposing every coefficient and swapping the input and output maps turns
span-reachability questions into observability questions: the extended
reachability matrix of a system is the transposed extended observability
matrix of its dual, so its rank at depth ``n_x - 1`` is the rank that the
span-reachability test reports, and restricting to the reachable span is
the dual of the observability reduction.
"""

from pathlib import Path

import numpy as np

from lpvssa import (
    LpvSsa,
    RankDecision,
    extended_observability_matrix,
    is_span_reachable_from_zero,
    reachability_reduction,
    transpose_dual,
)
from lpvssa.io import parse_system

DATA = Path(__file__).parent / "data"

sys3 = parse_system((DATA / "worked_example.json").read_text())

print("=== reachability through the dual's observability ===")
reach, dec = is_span_reachable_from_zero(sys3)
for depth in range(sys3.n_x):
    O_dual = extended_observability_matrix(transpose_dual(sys3), depth)
    rank = RankDecision.from_matrix(O_dual).rank
    print(f"depth {depth}: O_{depth}(dual) is {O_dual.shape[0]}x{O_dual.shape[1]}, "
          f"rank {rank}; the span-reachability test reports rank {dec.rank}")

print(f"\nworked example span-reachable from zero: {reach} "
      f"(rank {dec.rank} of {sys3.n_x})")

# remove the input entirely: nothing is reachable from the origin
stripped = parse_system((DATA / "constant_2state.json").read_text())
reach0, dec0 = is_span_reachable_from_zero(stripped)
print(f"zero-input-map system reachable: {reach0} (rank {dec0.rank})")
res = reachability_reduction(stripped)
print(f"its reachability reduction keeps {res.o} states "
      f"(feedthrough-only system remains)")

# a planted example: one state direction is driven, the other never moves
A = [np.array([[0.5, 0.0], [0.0, 0.3]]), np.zeros((2, 2))]
B = [np.array([[1.0], [0.0]]), np.zeros((2, 1))]
C = [np.array([[1.0, 1.0]]), np.zeros((1, 2))]
D = [np.zeros((1, 1)), np.zeros((1, 1))]
half = LpvSsa.from_matrices(A, B, C, D, ([-1.0], [1.0]), "dt")
res2 = reachability_reduction(half)
print(f"\nplanted half-reachable system: kept {res2.o} of {half.n_x} states")
print("restricted A_0 =", np.round(res2.reduced.A.coeffs[0], 6).tolist())
print("restricted B_0 =", np.round(res2.reduced.B.coeffs[0], 6).ravel().tolist())
