import numpy as np
import pytest
import scipy.linalg as sla

from lpvssa import (
    InputError,
    LpvSsa,
    RankDecision,
    Signal,
    TimeDomain,
    check_rc,
    extended_observability_matrix,
    find_revealing_scheduling,
    freeze_scheduling,
    is_observable,
    is_span_reachable_from_zero,
    ltv_window_observability,
    transpose_dual,
    unobservable_subspace,
)
from lpvssa import analysis

from conftest import make_weakly_coupled_ct, random_system
from oracles import (
    dyadic,
    in_box,
    literal_observability_recursion,
    textbook_reachability,
    word_reach_rank,
)


def geometric_rows(n_y, n_p, n):
    return n_y * (n_p + 1) * ((n_p + 1) ** (n + 1) - 1) // n_p


class TestExtendedMatrices:
    def test_worked_example_o0(self, worked_example):
        O0 = extended_observability_matrix(worked_example, 0)
        assert np.array_equal(O0, np.array([[1.0, 0, 0], [0, 1, 1]]))

    def test_zero_output_map_gives_zero_matrix(self):
        rng = np.random.default_rng(0)
        sys = random_system(rng, n_x=3, n_p=1)
        zeroed = LpvSsa.from_matrices(
            list(sys.A.coeffs), list(sys.B.coeffs),
            [np.zeros_like(c) for c in sys.C.coeffs], list(sys.D.coeffs),
            sys.region, sys.domain,
        )
        assert np.all(extended_observability_matrix(zeroed, 2) == 0.0)

    def test_constant2_o1_rank_two(self, constant_2state):
        O1 = extended_observability_matrix(constant_2state, 1)
        assert np.linalg.matrix_rank(O1) == 2

    def test_row_count_matches_geometric_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sys = random_system(rng)
            for n in range(4):
                O = extended_observability_matrix(sys, n)
                assert O.shape == (geometric_rows(sys.n_y, sys.n_p, n), sys.n_x)

    def test_same_row_space_as_literal_recursion(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sys = random_system(rng, unobservable_dim=int(rng.integers(0, 2)) or None)
            for n in range(4):
                O = extended_observability_matrix(sys, n)
                L = literal_observability_recursion(sys, n)
                assert np.linalg.matrix_rank(O) == np.linalg.matrix_rank(L)
                kO = sla.null_space(O)
                kL = sla.null_space(L)
                assert kO.shape == kL.shape
                if kO.shape[1]:
                    angles = sla.subspace_angles(kO, kL)
                    assert np.max(angles) < 1e-10

    def test_rank_monotone_and_stabilizes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sys = random_system(rng, unobservable_dim=int(rng.integers(0, 3)) or None)
            ranks = [
                np.linalg.matrix_rank(extended_observability_matrix(sys, n))
                for n in range(sys.n_x + 1)
            ]
            assert all(r1 <= r2 for r1, r2 in zip(ranks, ranks[1:]))
            assert ranks[-1] == ranks[max(sys.n_x - 1, 0)]

    def test_duality_identity_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sys = dyadic(random_system(rng))
            for n in range(4):
                R = textbook_reachability(sys, n)
                O_dual = extended_observability_matrix(transpose_dual(sys), n)
                assert np.array_equal(R, O_dual.T)

    def test_worked_example_duality_at_depth_two(self, worked_example):
        R2 = textbook_reachability(worked_example, 2)  # integer entries: exact in any order
        O2d = extended_observability_matrix(transpose_dual(worked_example), 2)
        assert np.array_equal(R2, O2d.T)

    def test_zero_b_reachability_matrix_is_zero(self, constant_2state):
        assert np.all(extended_observability_matrix(transpose_dual(constant_2state), 2) == 0.0)

    def test_resource_cap_raises_with_advice(self, worked_example, monkeypatch):
        monkeypatch.setattr(analysis, "DEFAULT_MAX_ENTRIES", 100)
        with pytest.raises(InputError, match="subspace-iteration"):
            extended_observability_matrix(worked_example, 8)

    def test_negative_depth_rejected(self, worked_example):
        with pytest.raises(InputError):
            extended_observability_matrix(worked_example, -1)


class TestUnobservableSubspace:
    def test_worked_example_kernel_is_one_dimensional(self, worked_example):
        K = unobservable_subspace(worked_example)
        assert K.shape == (3, 1)
        O2 = extended_observability_matrix(worked_example, 2)
        assert np.linalg.norm(O2 @ K) < 1e-10
        reference = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(K[:, 0] @ reference) - 1.0) < 1e-12

    def test_observable_system_has_empty_basis(self, constant_2state):
        assert unobservable_subspace(constant_2state).shape == (2, 0)

    def test_identity_output_has_empty_basis(self):
        sys = LpvSsa.from_matrices(
            [np.eye(3), np.zeros((3, 3))],
            [np.zeros((3, 1)), np.zeros((3, 1))],
            [np.eye(3), np.zeros((3, 3))],
            [np.zeros((3, 1)), np.zeros((3, 1))],
            ([0.0], [1.0]),
            "dt",
        )
        assert unobservable_subspace(sys).shape == (3, 0)

    def test_zero_output_full_kernel(self):
        rng = np.random.default_rng(5)
        sys = random_system(rng, n_x=4)
        zeroed = LpvSsa.from_matrices(
            list(sys.A.coeffs), list(sys.B.coeffs),
            [np.zeros_like(c) for c in sys.C.coeffs], list(sys.D.coeffs),
            sys.region, sys.domain,
        )
        assert unobservable_subspace(zeroed).shape == (4, 4)

    def test_agrees_with_direct_kernel_on_random_suite(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            planted = int(rng.integers(0, 3))
            n_x = int(rng.integers(max(planted + 1, 1), 6))
            sys = random_system(
                rng, n_x=n_x, n_p=int(rng.integers(1, 3)),
                unobservable_dim=planted or None,
            )
            V = unobservable_subspace(sys)
            O = extended_observability_matrix(sys, max(sys.n_x - 1, 0))
            K = sla.null_space(O)
            assert V.shape == K.shape
            if V.shape[1]:
                assert np.max(sla.subspace_angles(V, K)) < 1e-8
            assert np.linalg.matrix_rank(O) == sys.n_x - V.shape[1]


class TestRankTests:
    def test_worked_example_unobservable_rank_two(self, worked_example):
        obs, dec = is_observable(worked_example)
        assert obs is False
        assert dec.rank == 2
        assert dec.singular_values.shape == (3,)  # min(rows of O_2, n_x)

    def test_constant_2state_observable(self, constant_2state):
        obs, dec = is_observable(constant_2state)
        assert obs is True and dec.rank == 2

    def test_constant_1state_observable(self, constant_1state):
        obs, dec = is_observable(constant_1state)
        assert obs is True and dec.rank == 1

    def test_rank_decision_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            M = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            dec = RankDecision.from_matrix(M)
            assert dec.rank == int(np.sum(dec.singular_values > dec.tolerance_used))
            assert np.all(np.diff(dec.singular_values) <= 0)

    def test_zero_b_not_span_reachable(self, constant_2state):
        reach, dec = is_span_reachable_from_zero(constant_2state)
        assert reach is False and dec.rank == 0

    def test_worked_example_span_reachable_matches_word_oracle(self, worked_example):
        reach, dec = is_span_reachable_from_zero(worked_example)
        oracle_rank = word_reach_rank(worked_example, 3)
        assert oracle_rank == 3
        assert reach is (oracle_rank == 3)
        assert dec.rank == oracle_rank

    def test_reachability_equals_dual_observability(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            sys = random_system(rng, unobservable_dim=int(rng.integers(0, 2)) or None)
            r1, d1 = is_span_reachable_from_zero(sys)
            r2, d2 = is_observable(transpose_dual(sys))
            assert r1 == r2 and d1.rank == d2.rank

    def test_word_oracle_agrees_on_random_systems(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            sys = random_system(rng, n_x=int(rng.integers(1, 5)))
            _, dec = is_span_reachable_from_zero(sys)
            assert dec.rank == word_reach_rank(sys, sys.n_x - 1)

    def test_decision_rank_matches_explicit_stack(self, worked_example):
        obs, dec = is_observable(worked_example)
        assert obs is False
        assert dec.rank == 2
        assert dec.singular_values.shape == (3,)
        O2 = extended_observability_matrix(worked_example, 2)
        assert dec.rank == np.linalg.matrix_rank(O2)


class TestCheckRc:
    def test_worked_example_determinant_polynomial(self, worked_example):
        cert = check_rc(worked_example)
        assert cert.dt_invertibility == "certified"
        assert cert.det_poly_1d.shape == (3,)
        assert np.allclose(cert.det_poly_1d, [-1.0, -3.0, -2.0], atol=1e-9)
        assert cert.holds

    def test_identity_dynamics_certified(self):
        sys = LpvSsa.from_matrices(
            [np.eye(3), np.zeros((3, 3))],
            [np.ones((3, 1)), np.zeros((3, 1))],
            [np.ones((1, 3)), np.zeros((1, 3))],
            [np.zeros((1, 1)), np.zeros((1, 1))],
            ([0.0], [1.0]),
            "dt",
        )
        cert = check_rc(sys)
        assert cert.dt_invertibility == "certified"
        assert np.allclose(cert.det_poly_1d, [1.0], atol=1e-12)

    def test_constant_2state_refuted_with_witness(self, constant_2state):
        cert = check_rc(constant_2state)
        assert cert.dt_invertibility == "refuted-with-witness"
        assert not cert.holds
        p_star = cert.witness
        assert in_box(constant_2state.region, p_star)
        s = np.linalg.svd(constant_2state.A(p_star), compute_uv=False)
        assert s[-1] <= 1e-10 * max(s[0], 1.0)

    def test_interior_root_refuted(self):
        # det A(p) = p - 0.5 vanishes inside [0, 1]
        sys = LpvSsa.from_matrices(
            [[[-0.5]], [[1.0]]], [[[1.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]], ([0.0], [1.0]), "dt",
        )
        cert = check_rc(sys)
        assert cert.dt_invertibility == "refuted-with-witness"
        assert abs(cert.witness[0] - 0.5) < 1e-6

    def test_root_just_outside_still_certified(self):
        # det A(p) = p + 0.1: root at -0.1, outside [0, 1]
        sys = LpvSsa.from_matrices(
            [[[0.1]], [[1.0]]], [[[1.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]], ([0.0], [1.0]), "dt",
        )
        assert check_rc(sys).dt_invertibility == "certified"

    def test_ct_not_applicable(self):
        rng = np.random.default_rng(10)
        sys = random_system(rng, domain=TimeDomain.CT)
        cert = check_rc(sys)
        assert cert.dt_invertibility == "not-applicable"
        assert cert.holds and cert.det_poly_1d is None

    def test_multivariate_certified(self):
        rng = np.random.default_rng(11)
        sys = random_system(rng, n_x=3, n_p=2, rc_shift=2.0)
        cert = check_rc(sys)
        assert cert.dt_invertibility == "certified"
        assert cert.boxes == 1 and cert.sigma_min_bound > 0
        assert cert.holds

    def test_multivariate_refuted(self):
        # A(p) = diag(p_1, 1): singular along the p_1 = 0 grid line
        A0 = [[0.0, 0.0], [0.0, 1.0]]
        A1 = [[1.0, 0.0], [0.0, 0.0]]
        A2 = [[0.0, 0.0], [0.0, 0.0]]
        Z = [[0.0], [0.0]]
        C = [[1.0, 0.0]]
        sys = LpvSsa.from_matrices(
            [A0, A1, A2], [Z, Z, Z], [C, C, C],
            [[[0.0]], [[0.0]], [[0.0]]], ([-1.0, -1.0], [1.0, 1.0]), "dt",
        )
        cert = check_rc(sys)
        assert cert.dt_invertibility == "refuted-with-witness"
        assert abs(cert.witness[0]) < 1e-9

    def test_deterministic(self, worked_example):
        c1 = check_rc(worked_example)
        c2 = check_rc(worked_example)
        assert c1.dt_invertibility == c2.dt_invertibility
        assert np.array_equal(c1.det_poly_1d, c2.det_poly_1d)


class TestFreezeScheduling:
    def test_constant_scheduling_time_invariant(self, worked_example):
        p = Signal.dt(np.full((5, 1), 0.25))
        frozen = freeze_scheduling(worked_example, p)
        expected = worked_example.A(np.array([0.25]))
        for k in range(5):
            assert np.array_equal(frozen.As[k], expected)

    def test_alternating_scheduling(self, worked_example):
        p = Signal.dt(np.array([[0.0], [1.0], [0.0], [1.0]]))
        frozen = freeze_scheduling(worked_example, p)
        A0 = worked_example.A.coeffs[0]
        A01 = A0 + worked_example.A.coeffs[1]
        assert np.array_equal(frozen.As[0], A0)
        assert np.array_equal(frozen.As[1], A01)
        assert np.array_equal(frozen.As[2], A0)
        assert np.array_equal(frozen.As[3], A01)

    def test_constant2_frozen_at_p_one(self, constant_2state):
        p = Signal.dt(np.array([[1.0]]))
        frozen = freeze_scheduling(constant_2state, p)
        assert np.array_equal(frozen.As[0], np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_ct_freeze_at_mesh_nodes(self):
        rng = np.random.default_rng(16)
        sys = random_system(rng, n_x=2, n_p=1, domain=TimeDomain.CT)
        times = np.array([0.0, 0.3, 1.1])
        values = rng.uniform(-1, 1, (3, 1))
        frozen = freeze_scheduling(sys, Signal.ct(times, values))
        assert np.array_equal(frozen.times, times)
        for k in range(3):
            A, B, C, D = (f(values[k]) for f in (sys.A, sys.B, sys.C, sys.D))
            assert np.array_equal(frozen.As[k], A)
            assert np.array_equal(frozen.Bs[k], B)
            assert np.array_equal(frozen.Cs[k], C)
            assert np.array_equal(frozen.Ds[k], D)

    def test_out_of_region_rejected(self, constant_2state):
        p = Signal.dt(np.array([[2.0]]))
        with pytest.raises(InputError):
            freeze_scheduling(constant_2state, p)


class TestLtvWindow:
    def test_scalar_unit_output_always_observable(self):
        sys = LpvSsa.from_matrices(
            [[[0.5]], [[0.1]]], [[[1.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]], ([-1.0], [1.0]), "dt",
        )
        rng = np.random.default_rng(12)
        for window in (1, 2, 5):
            p = Signal.dt(rng.uniform(-1, 1, (window + 1, 1)))
            ok, dec = ltv_window_observability(sys, p, window)
            assert ok and dec.rank == 1

    def test_unobservable_system_never_passes(self, worked_example):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = Signal.dt(rng.uniform(0, 1, (4, 1)))
            ok, dec = ltv_window_observability(worked_example, p, 3)
            assert not ok
            assert dec.rank <= 2

    def test_minimal_system_passes_with_high_probability(self, worked_minimal):
        rng = np.random.default_rng(14)
        hits = 0
        for _ in range(200):
            p = Signal.dt(rng.uniform(0, 1, (4, 1)))
            ok, _ = ltv_window_observability(worked_minimal, p, 3)
            hits += ok
        assert hits >= 198

    def test_window_pass_implies_lpv_observability(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            sys = random_system(rng, unobservable_dim=int(rng.integers(0, 3)) or None)
            p = Signal.dt(rng.uniform(-1, 1, (sys.n_x + 2, sys.n_p)))
            ok, _ = ltv_window_observability(sys, p, sys.n_x + 1)
            if ok:
                assert is_observable(sys)[0]

    def test_ct_window_pass_implies_lpv_observability(self):
        rng = np.random.default_rng(16)
        passed = 0
        for _ in range(60):
            sys = random_system(
                rng, domain=TimeDomain.CT, unobservable_dim=int(rng.integers(0, 3)) or None
            )
            times = np.linspace(0.0, 1.0, 5)[:-1]
            p = Signal.ct(times, rng.uniform(-1, 1, (times.size, sys.n_p)))
            ok, dec = ltv_window_observability(sys, p, 1.0)
            assert dec.rank <= sys.n_x
            if ok:
                passed += 1
                assert is_observable(sys)[0]
        assert passed > 0

    def test_ct_window_ranks_the_stack_not_its_square(self):
        sys = make_weakly_coupled_ct()
        assert is_observable(sys)[0]
        p = Signal.ct_constant([0.0], 1.0)
        ok, dec = ltv_window_observability(sys, p, 1.0)
        assert ok and dec.rank == 2
        # singular values of C Phi itself, not of the Gramian (C Phi)^T (C Phi)
        assert dec.singular_values[0] == pytest.approx(12.9, rel=0.01)
        assert dec.singular_values[1] == pytest.approx(3.7e-6, rel=0.05)
        found = find_revealing_scheduling(sys, trials=1, window=1.0, seed=0)
        assert found is not None

    def test_ct_gramian_scalar(self):
        sys = LpvSsa.from_matrices(
            [[[-0.3]], [[0.2]]], [[[1.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]], ([-1.0], [1.0]), "ct",
        )
        p = Signal.ct_constant([0.5], 1.0)
        ok, dec = ltv_window_observability(sys, p, 1.0)
        assert ok and dec.rank == 1

    def test_ct_gramian_detects_unobservable_direction(self):
        # second state never reaches the output: window rank 1
        sys = LpvSsa.from_matrices(
            [np.diag([-0.2, -0.4]), np.zeros((2, 2))],
            [np.ones((2, 1)), np.zeros((2, 1))],
            [[[1.0, 0.0]], [[0.0, 0.0]]],
            [[[0.0]], [[0.0]]],
            ([-1.0], [1.0]),
            "ct",
        )
        p = Signal.ct_constant([0.0], 1.0)
        ok, dec = ltv_window_observability(sys, p, 1.0)
        assert not ok and dec.rank == 1

    def test_dt_window_needs_positive_integer(self, worked_minimal):
        p = Signal.dt(np.zeros((1, 1)))
        with pytest.raises(InputError):
            ltv_window_observability(worked_minimal, p, 0)


class TestFindRevealingScheduling:
    def test_minimal_system_found(self, worked_minimal):
        found = find_revealing_scheduling(worked_minimal, trials=50, window=3, seed=0)
        assert found is not None
        p, window = found
        assert window == 3
        ok, _ = ltv_window_observability(worked_minimal, p, window)
        assert ok

    def test_unobservable_system_absent_with_diagnostic(self, worked_example):
        with pytest.warns(UserWarning, match="not observable"):
            found = find_revealing_scheduling(worked_example, trials=5, window=3, seed=0)
        assert found is None

    def test_scalar_system_found_on_first_trial(self):
        sys = LpvSsa.from_matrices(
            [[[0.5]], [[0.0]]], [[[1.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]], ([-1.0], [1.0]), "dt",
        )
        assert find_revealing_scheduling(sys, trials=1, window=2, seed=0) is not None

    def test_rejected_seed_is_input_error(self, worked_minimal):
        with pytest.raises(InputError, match="invalid seed -1"):
            find_revealing_scheduling(worked_minimal, trials=2, window=3, seed=-1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trial_count_must_be_positive(self, worked_minimal, trials):
        with pytest.raises(InputError, match="trials must be positive"):
            find_revealing_scheduling(worked_minimal, trials=trials, window=3, seed=0)

    def test_exhausted_search_returns_none(self, constant_2state):
        # observable (rank 2/2), yet every window row is a multiple of [1, p(0)]
        assert is_observable(constant_2state)[0]
        assert find_revealing_scheduling(constant_2state, 5, 3, 0) is None

    def test_deterministic_given_seed(self, worked_minimal):
        f1 = find_revealing_scheduling(worked_minimal, trials=20, window=3, seed=42)
        f2 = find_revealing_scheduling(worked_minimal, trials=20, window=3, seed=42)
        assert np.array_equal(f1[0].values, f2[0].values)

    def test_ct_search(self):
        sys = LpvSsa.from_matrices(
            [[[-0.3]], [[0.2]]], [[[1.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]], ([-1.0], [1.0]), "ct",
        )
        found = find_revealing_scheduling(sys, trials=3, window=1.0, seed=1)
        assert found is not None
        assert found[0].domain == TimeDomain.CT
