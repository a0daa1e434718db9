#!/usr/bin/env python3
"""Freeze a scheduling signal and test observability on finite windows.

Substituting a concrete scheduling trajectory into the affine matrix
functions yields an ordinary time-varying linear system.  For an
observable system (under regularity), some scheduling signal makes that
frozen system observable on a finite window, which a seeded random search
finds quickly; for an unobservable system no window ever suffices.
"""

from pathlib import Path

import numpy as np

from lpvssa import (
    Signal,
    find_revealing_scheduling,
    freeze_scheduling,
    ltv_window_observability,
    observability_reduction,
    simulate_ct,
)
from lpvssa.io import parse_system

DATA = Path(__file__).parent / "data"

sys3 = parse_system((DATA / "worked_example.json").read_text())
minimal = observability_reduction(sys3).reduced

print("=== freezing an alternating scheduling ===")
p_alt = Signal.dt(np.array([[0.0], [1.0], [0.0], [1.0]]))
frozen = freeze_scheduling(sys3, p_alt)
print("A at t=0 equals A(0):", np.array_equal(frozen.As[0], sys3.A(np.array([0.0]))))
print("A at t=1 equals A(1):", np.array_equal(frozen.As[1], sys3.A(np.array([1.0]))))

print("\n=== window observability, 200 random schedulings, window 3 ===")
rng = np.random.default_rng(0)
hits_min = hits_full = 0
for _ in range(200):
    p = Signal.dt(rng.uniform(0, 1, (4, 1)))
    hits_min += ltv_window_observability(minimal, p, 3)[0]
    hits_full += ltv_window_observability(sys3, p, 3)[0]
print(f"minimal (observable) system:   {hits_min}/200 windows reveal the state")
print(f"unreduced (unobservable) one:  {hits_full}/200 — no window can")

print("\n=== randomized search for a revealing scheduling ===")
found = find_revealing_scheduling(minimal, trials=50, window=3, seed=42)
p_found, window = found
print(f"found one on window {window}: samples {np.round(p_found.values.ravel(), 4)}")

print("\n=== continuous time: rank the stacked C(t) Phi(t, 0) window ===")
from lpvssa import LpvSsa

ct = LpvSsa.from_matrices(
    [np.array([[-0.2, 1.0], [0.0, -0.5]]), 0.1 * np.eye(2)],
    [np.array([[0.0], [1.0]]), np.zeros((2, 1))],
    [np.array([[1.0, 0.0]]), np.zeros((1, 2))],
    [np.zeros((1, 1)), np.zeros((1, 1))],
    ([-1.0], [1.0]),
    "ct",
)
p_ct = Signal.ct([0.0, 0.5], [[0.3], [-0.4]])
u_ct = Signal.ct_constant([1.0], 1.0)
traj = simulate_ct(ct, [1.0, 0.0], u_ct, p_ct, 1.0, 1e-3)
print(f"state at t=1: {np.round(traj.x.values[-1], 6)}")
ok, dec = ltv_window_observability(ct, p_ct, 1.0)
print(f"window test on the RK4 mesh of [0, 1]: observable = {ok} (rank {dec.rank})")
