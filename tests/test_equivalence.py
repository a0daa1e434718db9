import warnings

import numpy as np
import pytest

from lpvssa import (
    InputError,
    LpvSsa,
    Signal,
    behavior_equivalence_empirical,
    check_isomorphism,
    find_isomorphism,
    match_initial_state,
    minimize,
    simulate_dt,
)
from lpvssa.signals import random_input, random_scheduling

from conftest import (
    conjugate_system,
    make_near_pair,
    make_worked_minimal,
    random_invertible,
    random_system,
)
from test_batched_regularity import with_state_matrix


def _observable_system(rng, **kw):
    from lpvssa import is_observable

    while True:
        sys = random_system(rng, **kw)
        if is_observable(sys)[0]:
            return sys


class TestCheckIsomorphism:
    def test_identity_on_identical_systems_is_zero(self, worked_minimal):
        assert check_isomorphism(worked_minimal, worked_minimal, np.eye(2)) == 0.0

    def test_conjugation_transform_scores_clean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sys = _observable_system(rng)
            T0 = random_invertible(rng, sys.n_x, log_cond=2.0)
            other = conjugate_system(sys, T0)
            assert check_isomorphism(sys, other, T0) < 1e-10

    def test_identity_between_scaled_copies_fails(self, worked_minimal):
        scaled = conjugate_system(worked_minimal, 2.0 * np.eye(2))
        residual = check_isomorphism(worked_minimal, scaled, np.eye(2))
        assert residual > 0.1  # order of the deliberate mismatch

    def test_shape_mismatch_rejected(self, worked_minimal):
        with pytest.raises(InputError):
            check_isomorphism(worked_minimal, worked_minimal, np.eye(3))


class TestFindIsomorphism:
    def test_system_vs_itself(self, worked_minimal):
        r = find_isomorphism(worked_minimal, worked_minimal)
        assert r.verdict == "isomorphic"
        assert np.allclose(r.T, np.eye(2), atol=1e-12)
        assert r.residual < 1e-12

    def test_conjugation_recovery(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            sys = _observable_system(rng)
            T0 = random_invertible(rng, sys.n_x, log_cond=2.5)
            other = conjugate_system(sys, T0)
            r = find_isomorphism(sys, other)
            assert r.verdict == "isomorphic"
            assert np.linalg.norm(r.T - T0) / np.linalg.norm(T0) < 1e-8

    def test_dimension_mismatch_obstruction(self, worked_example, worked_minimal):
        r = find_isomorphism(worked_example, worked_minimal)
        assert r.verdict == "not-isomorphic"
        assert "dimension" in r.obstruction
        assert r.T is None

    def test_feedthrough_mismatch_obstruction(self, worked_minimal):
        shifted = LpvSsa.from_matrices(
            list(worked_minimal.A.coeffs),
            list(worked_minimal.B.coeffs),
            list(worked_minimal.C.coeffs),
            [d + 1.0 for d in worked_minimal.D.coeffs],
            worked_minimal.region,
            worked_minimal.domain,
        )
        r = find_isomorphism(worked_minimal, shifted)
        assert r.verdict == "not-isomorphic"
        assert "feedthrough" in r.obstruction

    def test_observable_non_isomorphic_pair(self):
        rng = np.random.default_rng(2)
        sys1 = _observable_system(rng, n_x=3, n_p=1, n_u=1, n_y=1)
        draft = _observable_system(rng, n_x=3, n_p=1, n_u=1, n_y=1)
        # share the feedthrough so the residual obstruction is the one cited
        sys2 = LpvSsa.from_matrices(
            list(draft.A.coeffs), list(draft.B.coeffs), list(draft.C.coeffs),
            list(sys1.D.coeffs), sys1.region, sys1.domain,
        )
        r = find_isomorphism(sys1, sys2)
        assert r.verdict == "not-isomorphic"
        assert "observable" in r.obstruction

    def test_unobservable_pair_is_inconclusive(self):
        rng = np.random.default_rng(3)
        sys = random_system(rng, n_x=4, n_p=1, unobservable_dim=2)
        T0 = random_invertible(rng, 4, log_cond=1.0)
        other = conjugate_system(sys, T0)
        r = find_isomorphism(sys, other)
        # a transform exists, but the estimator cannot certify one from
        # rank-deficient observability stacks
        assert r.verdict in ("inconclusive", "isomorphic")
        if r.verdict == "inconclusive":
            assert r.obstruction

    def test_signature_mismatch_rejected(self, worked_minimal):
        widened = LpvSsa.from_matrices(
            list(worked_minimal.A.coeffs),
            [np.hstack([b, b]) for b in worked_minimal.B.coeffs],
            list(worked_minimal.C.coeffs),
            [np.hstack([d, d]) for d in worked_minimal.D.coeffs],
            worked_minimal.region,
            worked_minimal.domain,
        )
        with pytest.raises(InputError):
            find_isomorphism(worked_minimal, widened)

    def test_symmetric_verdicts_and_mutually_inverse_transforms(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            sys = _observable_system(rng)
            T0 = random_invertible(rng, sys.n_x, log_cond=2.0)
            other = conjugate_system(sys, T0)
            fwd = find_isomorphism(sys, other)
            bwd = find_isomorphism(other, sys)
            assert fwd.verdict == bwd.verdict == "isomorphic"
            n = sys.n_x
            assert np.linalg.norm(fwd.T @ bwd.T - np.eye(n)) < 1e-8 * max(
                1.0, np.linalg.norm(fwd.T) * np.linalg.norm(bwd.T)
            )

    def test_transitive_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            sys1 = _observable_system(rng)
            T12 = random_invertible(rng, sys1.n_x, log_cond=1.5)
            T23 = random_invertible(rng, sys1.n_x, log_cond=1.5)
            sys2 = conjugate_system(sys1, T12)
            sys3 = conjugate_system(sys2, T23)
            r12 = find_isomorphism(sys1, sys2)
            r23 = find_isomorphism(sys2, sys3)
            r13 = find_isomorphism(sys1, sys3)
            composed = r23.T @ r12.T
            assert np.linalg.norm(composed - r13.T) / np.linalg.norm(r13.T) < 1e-7
            assert check_isomorphism(sys1, sys3, composed) < 1e-7

    def test_zero_state_systems_isomorphic_on_equal_feedthrough(self):
        mk = lambda d: LpvSsa.from_matrices(
            [np.zeros((0, 0)), np.zeros((0, 0))],
            [np.zeros((0, 1)), np.zeros((0, 1))],
            [np.zeros((1, 0)), np.zeros((1, 0))],
            [[[d]], [[0.0]]],
            ([0.0], [1.0]),
            "dt",
        )
        assert find_isomorphism(mk(1.0), mk(1.0)).verdict == "isomorphic"
        assert find_isomorphism(mk(1.0), mk(2.0)).verdict == "not-isomorphic"

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, worked_minimal, tol):
        # -1 used to report "feedthrough (D) coefficients differ" at residual 0
        with pytest.raises(InputError, match="tolerance must be finite and positive"):
            find_isomorphism(worked_minimal, worked_minimal, tol=tol)


def _with_a0(sys, A0):
    return with_state_matrix(sys, [A0, *sys.A.coeffs[1:]])


class TestNearPairs:
    """Ranks are decided on ``sys2`` alone, so a pair that is isomorphic only to
    within more than the rank floor still gets its best transform."""

    def test_near_pair_gets_its_best_transform_at_every_offset(self):
        # T = 0.5 has residual 0.48 offset; the tolerance 1e-8 lies between
        # the offsets 1e-9 and 1e-6
        for offset in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
            sys1, sys2 = make_near_pair(offset)
            r = find_isomorphism(sys1, sys2)
            assert r.verdict == ("isomorphic" if offset <= 1e-9 else "not-isomorphic"), offset
            assert np.allclose(r.T, 0.5, rtol=0.0, atol=1e-15), offset
            assert r.residual <= check_isomorphism(sys1, sys2, np.array([[0.5]])) + 1e-15

    def test_tolerance_reaches_the_solve(self):
        r = find_isomorphism(*make_near_pair(1e-6), tol=1e-5)
        assert r.verdict == "isomorphic"
        assert np.allclose(r.T, 0.5, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("a00", [1e20, 1e50, 1e150])
    def test_badly_scaled_system_isomorphic_to_itself(self, a00):
        A0 = make_worked_minimal().A.coeffs[0].copy()
        A0[0, 0] = a00
        sys = _with_a0(make_worked_minimal(), A0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = find_isomorphism(sys, sys)
        assert r.verdict == "isomorphic"
        assert np.allclose(r.T, np.eye(2), rtol=0.0, atol=1e-12)
        assert r.residual < 1e-12

    def test_perturbed_conjugate_pairs_meet_the_tolerance(self):
        # sys2 = T sys1 T^-1 with A_0 moved by a random matrix of Frobenius
        # norm 1e-9; among the pairs whose planted T meets the default
        # tolerance, at most 10 % may miss it: the least-squares T fits the
        # kernel's rows, not the residual's four equation families
        meeting = missed = 0
        for seed in range(400):
            rng = np.random.default_rng(seed)
            sys1 = _observable_system(rng)
            T0 = random_invertible(rng, sys1.n_x, log_cond=rng.uniform(0.5, 2.9))
            sys2 = conjugate_system(sys1, T0)
            E = rng.standard_normal((sys1.n_x, sys1.n_x))
            sys2 = _with_a0(sys2, sys2.A.coeffs[0] + 1e-9 * E / np.linalg.norm(E))
            if check_isomorphism(sys1, sys2, T0) < 1e-8:
                meeting += 1
                missed += find_isomorphism(sys1, sys2).verdict != "isomorphic"
        assert meeting >= 350
        assert missed <= 0.1 * meeting, (missed, meeting)


class TestMatchInitialState:
    def test_same_system_recovers_state_dt(self, worked_minimal):
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal(2)
        N = 8
        u = random_input(1, rng, worked_minimal.domain, n_steps=N)
        p = Signal.dt(rng.uniform(0, 1, (N + 1, 1)))
        x0_to, residual = match_initial_state(
            worked_minimal, x0, worked_minimal, u, p, N
        )
        assert np.allclose(x0_to, x0, atol=1e-8)
        assert residual < 1e-9

    def test_same_system_recovers_state_ct(self):
        rng = np.random.default_rng(7)
        from lpvssa import TimeDomain

        sys = random_system(rng, n_x=2, n_p=1, n_u=1, domain=TimeDomain.CT)
        x0 = rng.standard_normal(2)
        t_end = 1.0
        u = random_input(sys.n_u, rng, sys.domain, t_end=t_end, segments=4)
        p = random_scheduling(sys.region, rng, sys.domain, t_end=t_end, segments=4)
        x0_to, residual = match_initial_state(
            sys, x0, sys, u, p, t_end, step=1e-2
        )
        assert np.allclose(x0_to, x0, atol=1e-6)
        assert residual < 1e-9

    def test_constant_pair_match_p_zero(self, constant_2state, constant_1state):
        u = Signal.dt(np.zeros((7, 1)))
        p = Signal.dt(np.zeros((7, 1)))
        x0_to, residual = match_initial_state(
            constant_2state, [1.0, 1.0], constant_1state, u, p, 6
        )
        assert x0_to[0] == pytest.approx(1.0, abs=1e-12)
        assert residual < 1e-12

    def test_constant_pair_match_p_one_then_cross_scheduling_gap(
        self, constant_2state, constant_1state
    ):
        u = Signal.dt(np.zeros((7, 1)))
        p_one = Signal.dt(np.vstack([[1.0], np.zeros((6, 1))]))
        x0_to, residual = match_initial_state(
            constant_2state, [1.0, 1.0], constant_1state, u, p_one, 6
        )
        assert x0_to[0] == pytest.approx(2.0, abs=1e-12)
        assert residual < 1e-12
        # the same matched pair disagrees under a different scheduling
        p_zero = Signal.dt(np.zeros((7, 1)))
        y_two = simulate_dt(constant_2state, [1.0, 1.0], u, p_zero, 6).y.values
        y_prime = simulate_dt(constant_1state, x0_to, u, p_zero, 6).y.values
        assert np.all(y_two == 1.0)
        assert np.allclose(y_prime, 2.0, atol=1e-9)
        assert np.min(np.abs(y_prime - y_two)) > 0.5

    def test_overflowing_window_is_input_error(self, worked_example, worked_minimal):
        # C_0[0, 0] = 1e300: C(p(t)) Phi(t, 0) is not finite within 20 steps
        C = [c.copy() for c in worked_example.C.coeffs]
        C[0][0, 0] = 1e300
        huge = LpvSsa.from_matrices(worked_example.A.coeffs, worked_example.B.coeffs, C,
                                    worked_example.D.coeffs, worked_example.region, "dt")
        rng = np.random.default_rng(8)
        u = random_input(1, rng, huge.domain, n_steps=20)
        p = random_scheduling(huge.region, rng, huge.domain, n_steps=20)
        with pytest.raises(InputError, match="the window overflows: the free response"):
            match_initial_state(huge, [1.0, 0.0, 0.0], worked_minimal, u, p, 20)

    def test_rank_deficient_window_still_matches(
        self, constant_1state, constant_2state
    ):
        # matching into the 2-state system on a 1-dim-reachable window
        u = Signal.dt(np.zeros((4, 1)))
        p = Signal.dt(np.full((4, 1), 0.5))
        x0_to, residual = match_initial_state(
            constant_1state, [3.0], constant_2state, u, p, 3
        )
        assert residual < 1e-12


class TestBehaviorEquivalence:
    @pytest.mark.parametrize("domain", ["dt", "ct"])
    def test_state_free_feedthrough_pair_passes(self, domain):
        def feedthrough():
            return LpvSsa.from_matrices(
                [np.zeros((0, 0))] * 2, [np.zeros((0, 1))] * 2, [np.zeros((1, 0))] * 2,
                [[[2.0]], [[0.5]]], ([-1.0], [1.0]), domain,
            )

        report = behavior_equivalence_empirical(feedthrough(), feedthrough(), trials=5, seed=0)
        assert report.passed
        assert report.max_residual == 0.0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_count_must_be_positive(self, worked_minimal, trials):
        with pytest.raises(InputError, match="trials must be positive"):
            behavior_equivalence_empirical(worked_minimal, worked_minimal, trials=trials)

    def test_system_vs_itself_passes(self, worked_minimal):
        report = behavior_equivalence_empirical(worked_minimal, worked_minimal, trials=10, seed=0)
        assert report.passed
        assert report.max_residual < 1e-10

    def test_worked_example_vs_reduction_passes(self, worked_example):
        reduced = minimize(worked_example).reduced
        report = behavior_equivalence_empirical(worked_example, reduced, trials=20, seed=1)
        assert report.passed

    def test_constant_pair_passes_with_rc_annotation(
        self, constant_2state, constant_1state
    ):
        report = behavior_equivalence_empirical(
            constant_2state, constant_1state, trials=100, seed=2
        )
        assert report.passed
        assert report.max_residual < 1e-6
        assert not report.rc_sys1.holds
        assert report.rc_sys2.holds
        assert "evidence" in report.note

    def test_zero_output_system_fails(self, worked_minimal):
        zeroed = LpvSsa.from_matrices(
            list(worked_minimal.A.coeffs),
            list(worked_minimal.B.coeffs),
            [np.zeros_like(c) for c in worked_minimal.C.coeffs],
            list(worked_minimal.D.coeffs),
            worked_minimal.region,
            worked_minimal.domain,
        )
        report = behavior_equivalence_empirical(worked_minimal, zeroed, trials=10, seed=3)
        assert not report.passed

    def test_random_rc_systems_vs_their_minimization(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            planted = int(rng.integers(0, 3))
            n_x = int(rng.integers(max(planted + 1, 1), 6))
            sys = random_system(
                rng, n_x=n_x, unobservable_dim=planted or None, rc_shift=1.5
            )
            result = minimize(sys)
            assert result.minimality == "minimal (behavioral)"
            report = behavior_equivalence_empirical(
                sys, result.reduced, trials=5, seed=int(rng.integers(0, 2**31))
            )
            assert report.passed

    def test_minimal_conjugated_realizations_isomorphic(self):
        # distinct minimal regular realizations of one behavior
        rng = np.random.default_rng(9)
        for _ in range(10):
            sys = _observable_system(rng, rc_shift=1.5)
            T0 = random_invertible(rng, sys.n_x, log_cond=2.0)
            other = conjugate_system(sys, T0)
            report = behavior_equivalence_empirical(sys, other, trials=5, seed=0)
            assert report.passed
            assert find_isomorphism(sys, other).verdict == "isomorphic"

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, worked_minimal, tol):
        with pytest.raises(InputError, match="tolerance must be finite and positive"):
            behavior_equivalence_empirical(worked_minimal, worked_minimal, trials=2, tol=tol)

    def test_rejected_seed_is_input_error(self, worked_minimal):
        with pytest.raises(InputError, match="invalid seed -1"):
            behavior_equivalence_empirical(worked_minimal, worked_minimal, trials=2, seed=-1)

    def test_residual_table_shape(self, worked_minimal):
        report = behavior_equivalence_empirical(worked_minimal, worked_minimal, trials=7, seed=4)
        assert report.residuals.shape == (7, 2)
        assert report.trials == 7

    def test_ct_defaults(self):
        rng = np.random.default_rng(10)
        from lpvssa import TimeDomain

        sys = random_system(rng, n_x=2, n_p=1, domain=TimeDomain.CT)
        report = behavior_equivalence_empirical(sys, sys, trials=3, seed=5)
        assert report.horizon == 2.0
        assert report.tolerance == 1e-4
        assert report.passed
        assert report.rc_sys1.dt_invertibility == "not-applicable"
