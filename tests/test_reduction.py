import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpvssa import (
    InputError,
    LpvSsa,
    check_rc,
    extended_observability_matrix,
    find_isomorphism,
    io_response,
    is_observable,
    is_span_reachable_from_zero,
    minimize,
    observability_reduction,
    reachability_reduction,
    transpose_dual,
    unobservable_subspace,
)
from lpvssa.signals import random_input, random_scheduling

from conftest import conjugate_system, random_orthogonal, random_system
from oracles import word_reach_rank


def _zero_system_like(sys):
    return LpvSsa.from_matrices(
        list(sys.A.coeffs), list(sys.B.coeffs),
        [np.zeros_like(c) for c in sys.C.coeffs], list(sys.D.coeffs),
        sys.region, sys.domain,
    )


class TestObservabilityReduction:
    def test_worked_example_structure(self, worked_example):
        res = observability_reduction(worked_example)
        assert res.o == 2
        assert res.reduced.n_x == 2
        T = res.transform_T
        Tinv = np.linalg.inv(T)
        assert np.array_equal(res.projection_Pi, T[:2])
        for i in range(2):
            Ai = worked_example.A.coeffs[i]
            conj = T @ Ai @ Tinv
            # block lower-triangular: top-right block vanishes
            assert np.max(np.abs(conj[:2, 2:])) < 1e-9 * np.linalg.norm(Ai)
            assert np.allclose(conj[:2, :2], res.reduced.A.coeffs[i], atol=1e-12)
            Ci = worked_example.C.coeffs[i]
            assert np.max(np.abs((Ci @ Tinv)[:, 2:])) < 1e-9 * max(
                np.linalg.norm(Ci), 1.0
            )
            assert np.allclose(
                (T @ worked_example.B.coeffs[i])[:2], res.reduced.B.coeffs[i],
                atol=1e-12,
            )
            assert np.array_equal(worked_example.D.coeffs[i], res.reduced.D.coeffs[i])
        assert is_observable(res.reduced)[0]

    def test_worked_example_isomorphic_to_bundled_minimal(
        self, worked_example, worked_minimal
    ):
        res = observability_reduction(worked_example)
        iso = find_isomorphism(res.reduced, worked_minimal)
        assert iso.verdict == "isomorphic"
        assert iso.residual < 1e-8

    def test_observable_input_returns_orthogonal_conjugation(self, worked_minimal):
        res = observability_reduction(worked_minimal)
        assert res.o == 2
        T = res.transform_T
        assert np.allclose(T @ T.T, np.eye(2), atol=1e-12)
        rebuilt = conjugate_system(worked_minimal, T)
        for name in ("A", "B", "C", "D"):
            got = getattr(res.reduced, name).coeffs
            want = getattr(rebuilt, name).coeffs
            assert all(np.allclose(g, w, atol=1e-12) for g, w in zip(got, want))

    def test_zero_output_collapses_to_feedthrough(self):
        rng = np.random.default_rng(0)
        sys = _zero_system_like(random_system(rng, n_x=4))
        res = observability_reduction(sys)
        assert res.o == 0
        assert res.reduced.n_x == 0
        assert res.reduced.n_u == sys.n_u and res.reduced.n_y == sys.n_y
        assert all(
            np.array_equal(a, b)
            for a, b in zip(res.reduced.D.coeffs, sys.D.coeffs)
        )

    def test_dimension_equals_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            planted = int(rng.integers(0, 3))
            n_x = int(rng.integers(max(planted + 1, 1), 6))
            sys = random_system(rng, n_x=n_x, unobservable_dim=planted or None)
            res = observability_reduction(sys)
            O = extended_observability_matrix(sys, max(n_x - 1, 0))
            assert res.o == np.linalg.matrix_rank(O)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_x=st.integers(1, 6),
        planted_share=st.floats(0.0, 1.0),
        zero_output=st.booleans(),
    )
    def test_transform_square_and_dimension_is_the_rank(
        self, seed, n_x, planted_share, zero_output
    ):
        # one floor: the kept dimension is the kernel's complement and the
        # rank is_observable reports, and the transform stays orthogonal
        rng = np.random.default_rng(seed)
        planted = round(planted_share * n_x)
        sys = random_system(rng, n_x=n_x, unobservable_dim=planted or None)
        if zero_output:
            sys = _zero_system_like(sys)
        red = observability_reduction(sys)
        assert red.transform_T.shape == (n_x, n_x)
        assert np.allclose(red.transform_T @ red.transform_T.T, np.eye(n_x), atol=1e-12)
        assert red.o == n_x - unobservable_subspace(sys).shape[1] == is_observable(sys)[1].rank
        assert red.reduced.n_x == red.o
        if zero_output:
            assert red.o == 0

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_x=st.integers(1, 5),
        planted_share=st.floats(0.0, 1.0),
        n_u=st.integers(1, 2),
        n_y=st.integers(1, 2),
    )
    def test_io_preservation_dt(self, seed, n_x, planted_share, n_u, n_y):
        rng = np.random.default_rng(seed)
        planted = round(planted_share * n_x)  # 0 .. n_x unobservable dimensions
        sys = random_system(rng, n_x=n_x, n_u=n_u, n_y=n_y, unobservable_dim=planted or None)
        res = observability_reduction(sys)
        assert res.o <= n_x - planted
        N = 20
        u = random_input(sys.n_u, rng, sys.domain, n_steps=N)
        p = random_scheduling(sys.region, rng, sys.domain, n_steps=N)
        x0 = rng.standard_normal(sys.n_x)
        y_full = io_response(sys, x0, u, p, N).values
        y_red = io_response(res.reduced, res.projection_Pi @ x0, u, p, N).values
        assert np.max(np.abs(y_full - y_red)) < 1e-9

    def test_io_preservation_ct(self):
        rng = np.random.default_rng(3)
        from lpvssa import TimeDomain

        for _ in range(10):
            sys = random_system(
                rng, n_x=3, n_p=1, unobservable_dim=int(rng.integers(0, 2)) or None,
                domain=TimeDomain.CT,
            )
            res = observability_reduction(sys)
            t_end = 2.0
            u = random_input(sys.n_u, rng, sys.domain, t_end=t_end, segments=4)
            p = random_scheduling(sys.region, rng, sys.domain, t_end=t_end, segments=4)
            x0 = rng.standard_normal(sys.n_x)
            y_full = io_response(sys, x0, u, p, t_end, step=1e-3).values
            y_red = io_response(
                res.reduced, res.projection_Pi @ x0, u, p, t_end, step=1e-3
            ).values
            assert np.max(np.abs(y_full - y_red)) < 1e-6

    def test_behavior_preservation_reverse_direction(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            planted = int(rng.integers(0, 3))
            n_x = int(rng.integers(max(planted + 1, 1), 6))
            sys = random_system(rng, n_x=n_x, unobservable_dim=planted or None)
            res = observability_reduction(sys)
            if res.o == 0:
                continue
            z0 = rng.standard_normal(res.o)
            x0 = np.linalg.pinv(res.projection_Pi) @ z0
            N = 20
            u = random_input(sys.n_u, rng, sys.domain, n_steps=N)
            p = random_scheduling(sys.region, rng, sys.domain, n_steps=N)
            y_red = io_response(res.reduced, z0, u, p, N).values
            y_full = io_response(sys, x0, u, p, N).values
            assert np.max(np.abs(y_full - y_red)) < 1e-9

    def test_rc_preserved_on_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sys = random_system(
                rng, n_x=4, unobservable_dim=int(rng.integers(0, 3)) or None,
                rc_shift=1.5,
            )
            grid = np.linspace(-1, 1, 100)[:, None]
            if sys.n_p > 1:
                continue
            ok_full = all(
                np.linalg.svd(sys.A(g), compute_uv=False)[-1] > 1e-10 for g in grid
            )
            if not ok_full:
                continue
            res = observability_reduction(sys)
            if res.o == 0:
                continue
            for g in grid:
                s = np.linalg.svd(res.reduced.A(g), compute_uv=False)
                assert s[-1] > 1e-10

    def test_different_completions_isomorphic(self):
        # the second completion reduces the same system in rotated coordinates
        rng, rotations = np.random.default_rng(6), np.random.default_rng(101)
        for _ in range(20):
            sys = random_system(
                rng, n_x=4, unobservable_dim=int(rng.integers(1, 3)),
            )
            r1 = observability_reduction(sys)
            r2 = observability_reduction(conjugate_system(sys, random_orthogonal(rotations, 4)))
            iso = find_isomorphism(r1.reduced, r2.reduced)
            assert iso.verdict == "isomorphic"
            assert iso.residual < 1e-8

    def test_invalid_system_rejected(self, worked_example):
        from lpvssa import SchedulingRegion

        # an invalid system cannot be built, so no reduction can receive one
        with pytest.raises(InputError, match="empty interior"):
            LpvSsa(
                A=worked_example.A,
                B=worked_example.B,
                C=worked_example.C,
                D=worked_example.D,
                region=SchedulingRegion([1.0], [1.0]),
                domain=worked_example.domain,
            )


class TestMinimize:
    def test_worked_example_minimal_flag(self, worked_example):
        res = minimize(worked_example)
        assert res.o == 2
        assert res.minimality == "minimal (behavioral)"
        assert res.rc.dt_invertibility == "certified"

    def test_constant2_flagged_observable_only(self, constant_2state):
        res = minimize(constant_2state)
        assert res.o == 2  # observable, so the dimension cannot drop
        assert res.minimality == "observable reduction only"
        assert res.rc.dt_invertibility == "refuted-with-witness"

    def test_certifies_the_reduction_not_the_input(self, singular_unobservable_block):
        sys = singular_unobservable_block
        assert check_rc(sys).dt_invertibility == "refuted-with-witness"
        res = minimize(sys)
        assert res.o == 1
        assert res.minimality == "minimal (behavioral)"
        assert res.rc.dt_invertibility == "certified"
        assert res.rc.sigma_min_bound == check_rc(res.reduced).sigma_min_bound > 0

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_x=st.integers(1, 5),
        n_p=st.integers(1, 2),
        planted_share=st.floats(0.0, 1.0),
        rc_shift=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_claim_follows_the_reduction_certificate(self, seed, n_x, n_p, planted_share, rc_shift):
        # A_o(p) is the top-left block of the block lower-triangular
        # T A(p) T^-1, so a regular input has a regular reduction
        rng = np.random.default_rng(seed)
        planted = round(planted_share * n_x)
        sys = random_system(
            rng, n_x=n_x, n_p=n_p, unobservable_dim=planted or None, rc_shift=rc_shift
        )
        res = minimize(sys)
        reduced_holds = check_rc(res.reduced).holds
        assert res.rc.holds == reduced_holds
        assert (res.minimality == "minimal (behavioral)") == reduced_holds
        if check_rc(sys).holds:
            assert reduced_holds

    def test_idempotent_dimension(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            planted = int(rng.integers(0, 3))
            n_x = int(rng.integers(max(planted + 1, 1), 6))
            sys = random_system(rng, n_x=n_x, unobservable_dim=planted or None)
            first = minimize(sys)
            second = minimize(first.reduced)
            assert second.o == first.o


class TestReachabilityReduction:
    def test_zero_b_collapses(self, constant_2state):
        res = reachability_reduction(constant_2state)
        assert res.o == 0
        assert res.reduced.n_x == 0

    def test_span_reachable_system_keeps_dimension(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            sys = random_system(rng)
            oracle = word_reach_rank(sys, max(sys.n_x - 1, 0))
            res = reachability_reduction(sys)
            assert res.o == oracle
            if oracle == sys.n_x:
                assert res.reduced.n_x == sys.n_x

    def test_reduced_is_span_reachable(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sys = random_system(rng)
            res = reachability_reduction(sys)
            if res.o:
                assert is_span_reachable_from_zero(res.reduced)[0]

    def test_double_dual_consistency(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            sys = random_system(rng, unobservable_dim=int(rng.integers(0, 2)) or None)
            r1 = reachability_reduction(sys)
            r2 = observability_reduction(transpose_dual(sys))
            assert r1.o == r2.o

    def test_worked_example_fully_reachable(self, worked_example):
        res = reachability_reduction(worked_example)
        assert res.o == 3  # span-reachable, nothing is cut

    def test_dual_block_structure(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            # dual of a planted-unobservable system has an unreachable part
            sys = transpose_dual(
                random_system(rng, n_x=4, n_u=2, n_y=2, unobservable_dim=2)
            )
            res = reachability_reduction(sys)
            assert 0 < res.o < 4
            T = res.transform_T
            Tinv = np.linalg.inv(T)
            for i in range(sys.n_p + 1):
                Ai = sys.A.coeffs[i]
                conj = T @ Ai @ Tinv
                # block upper-triangular: bottom-left block vanishes
                assert np.max(np.abs(conj[res.o:, : res.o])) < 1e-9 * np.linalg.norm(Ai)
                Bi = T @ sys.B.coeffs[i]
                assert np.max(np.abs(Bi[res.o:])) < 1e-9 * max(
                    np.linalg.norm(sys.B.coeffs[i]), 1.0
                )
