"""Batched evaluation and the stacked-SVD regularity sampling.

``check_rc`` with ``n_p >= 2`` evaluates ``A`` on all sample points at
once and runs one stacked SVD; it must return exactly what a per-point
loop over the same points in the same order returns.
"""

import numpy as np
import pytest

from lpvssa import InputError, LpvSsa, check_rc
from lpvssa.analysis import SINGULARITY_RTOL

from conftest import random_system


def reference_witness(sys, grid_per_axis, seed=12345):
    """Per-point loop over the documented sample order: first singular point."""
    pts = sys.region.grid(grid_per_axis)
    rng = np.random.default_rng(seed)
    pts = np.vstack([pts, sys.region.sample(rng, 10 * grid_per_axis**sys.n_p)])
    for p in pts:
        s = np.linalg.svd(sys.A(p), compute_uv=False)
        if s[0] == 0.0 or s[-1] <= SINGULARITY_RTOL * s[0]:
            return p
    return None


def assert_matches_reference(sys, grid_per_axis):
    cert = check_rc(sys, grid_per_axis)
    expected = reference_witness(sys, grid_per_axis)
    if expected is None:
        assert cert.dt_invertibility == "heuristic-pass"
        assert cert.witness is None
    else:
        assert cert.dt_invertibility == "refuted-with-witness"
        assert np.array_equal(cert.witness, expected)
    return cert


def with_state_matrix(sys, A):
    return LpvSsa.from_matrices(
        A, list(sys.B.coeffs), list(sys.C.coeffs), list(sys.D.coeffs),
        sys.region, sys.domain,
    )


def diagonal_line(n_p, offset, scale=1.0):
    """``A(p) = diag(scale (p_1 - offset), 1 + 0.25 p_2)``: singular on ``p_1 = offset``."""
    A = [np.diag([-scale * offset, 1.0])]
    for i in range(n_p):
        A.append(np.diag([scale if i == 0 else 0.0, 0.25 if i == 1 else 0.0]))
    Z = np.zeros((2, 1))
    C = np.array([[1.0, 1.0]])
    return LpvSsa.from_matrices(
        A, [Z] * (n_p + 1), [C] * (n_p + 1), [np.zeros((1, 1))] * (n_p + 1),
        (-np.ones(n_p), np.ones(n_p)), "dt",
    )


class TestAtPoints:
    def test_bit_identical_to_pointwise_evaluation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sys = random_system(rng, n_p=int(rng.integers(1, 4)))
            P = sys.region.sample(rng, 17)
            batch = sys.A.at_points(P)
            assert batch.shape == (17, sys.n_x, sys.n_x)
            for k in range(17):
                assert np.array_equal(batch[k], sys.A(P[k]))
            C = sys.C.at_points(P)
            assert np.array_equal(C[3], sys.C(P[3]))

    def test_empty_and_malformed_point_sets(self, worked_example):
        assert worked_example.A.at_points(np.zeros((0, 1))).shape == (0, 3, 3)
        with pytest.raises(InputError):
            worked_example.A.at_points(np.zeros(3))
        with pytest.raises(InputError):
            worked_example.A.at_points(np.zeros((4, 2)))


class TestBatchedSampling:
    def test_regular_systems_match_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sys = random_system(rng, n_p=int(rng.integers(2, 4)), rc_shift=2.0)
            cert = assert_matches_reference(sys, int(rng.integers(2, 6)))
            assert cert.dt_invertibility == "heuristic-pass"

    def test_common_kernel_refuted_at_first_point(self):
        rng = np.random.default_rng(2)
        for n_p in (2, 3):
            sys = random_system(rng, n_x=4, n_p=n_p)
            v = rng.standard_normal((4, 1))
            proj = np.eye(4) - v @ v.T / np.sum(v * v)
            singular = with_state_matrix(sys, [Ai @ proj for Ai in sys.A.coeffs])
            cert = assert_matches_reference(singular, 4)
            assert np.array_equal(cert.witness, singular.region.grid(4)[0])

    def test_singular_hyperplane_on_grid(self):
        # grid 5 on [-1, 1] has p_1 = 0.5 as a node
        for n_p in (2, 3):
            cert = assert_matches_reference(diagonal_line(n_p, 0.5), 5)
            assert cert.dt_invertibility == "refuted-with-witness"
            assert cert.witness[0] == 0.5

    def test_singular_hyperplane_off_grid(self):
        # the exact line p_1 = 0.123456789 is missed by grid and samples
        for n_p in (2, 3):
            cert = assert_matches_reference(diagonal_line(n_p, 0.123456789), 5)
            assert cert.dt_invertibility == "heuristic-pass"

    def test_badly_scaled_band_refuted(self):
        # sigma_min / sigma_max <= 1e-10 wherever |p_1 - 0.3| >= ~0.125, so
        # the first grid corner already refutes
        cert = assert_matches_reference(diagonal_line(2, 0.3, scale=1e11), 3)
        assert np.array_equal(cert.witness, [-1.0, -1.0])

    def test_random_sweep_matches_loop(self):
        # A(p) = Q diag(a(p), 1e11, .., 1e11) Q^T with a(p) = 500 (w.p - c)
        # fails the scaled test on the slab |w.p - c| <= 0.02, which the grid,
        # the random draws or neither may hit first
        rng = np.random.default_rng(3)
        outcomes = set()
        for _ in range(60):
            n_p, n_x = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            sys = random_system(rng, n_x=n_x, n_p=n_p)
            w = rng.standard_normal(n_p)
            c = rng.uniform(-1.0, 1.0) * np.sum(np.abs(w))
            Q = np.linalg.qr(rng.standard_normal((n_x, n_x)))[0]
            D0, E = 1e11 * np.eye(n_x), np.zeros((n_x, n_x))
            D0[0, 0], E[0, 0] = -500.0 * c, 500.0
            A = [Q @ D0 @ Q.T] + [Q @ (w[i] * E) @ Q.T for i in range(n_p)]
            cert = assert_matches_reference(with_state_matrix(sys, A), 3)
            grid = sys.region.grid(3)
            if cert.witness is None:
                outcomes.add("pass")
            elif any(np.array_equal(cert.witness, g) for g in grid):
                outcomes.add("grid")
            else:
                outcomes.add("sample")
        assert outcomes == {"pass", "grid", "sample"}
