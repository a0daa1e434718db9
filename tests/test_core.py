from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lpvssa
from lpvssa import (
    AffineMatrixFunction,
    InputError,
    LpvSsa,
    SchedulingRegion,
    TimeDomain,
    transpose_dual,
)

from conftest import make_constant_2state, random_system
from oracles import in_box

# the package's public names; a name added or removed changes this set on purpose
PUBLIC_NAMES = {
    "__version__",
    # core
    "AffineMatrixFunction", "SchedulingRegion", "TimeDomain", "LpvSsa", "transpose_dual",
    # signals and simulation
    "Signal", "Trajectory", "random_input", "random_scheduling",
    "simulate_dt", "simulate_ct", "io_response", "error_system",
    # analysis
    "RankDecision", "RcCertificate", "LtvSystem", "extended_observability_matrix",
    "unobservable_subspace", "is_observable", "is_span_reachable_from_zero", "check_rc",
    "freeze_scheduling", "ltv_window_observability", "find_revealing_scheduling",
    # reduction and equivalence
    "ReductionResult", "observability_reduction", "minimize",
    "IsoResult", "EquivalenceReport", "find_isomorphism", "check_isomorphism",
    "match_initial_state", "behavior_equivalence_empirical",
    # errors
    "InputError",
}


def test_public_surface_is_pinned():
    assert set(lpvssa.__all__) == PUBLIC_NAMES
    assert len(lpvssa.__all__) == len(PUBLIC_NAMES)  # no name listed twice
    for name in PUBLIC_NAMES:
        assert getattr(lpvssa, name) is not None


class TestAffineMatrixFunction:
    def test_eval_at_zero_returns_constant_term(self, worked_example):
        A0 = np.array([[1, -2, -2], [0, 2, 1], [-2, 1, 2]], dtype=float)
        assert np.array_equal(worked_example.A(np.array([0.0])), A0)

    def test_eval_worked_example_b_at_one(self, worked_example):
        expected = np.array([[3.0], [-3.0], [-3.0]])
        assert np.array_equal(worked_example.B(np.array([1.0])), expected)

    def test_eval_any_function_at_zero(self):
        rng = np.random.default_rng(0)
        f = AffineMatrixFunction([rng.standard_normal((2, 3)) for _ in range(4)])
        assert np.array_equal(f(np.zeros(3)), f.coeffs[0])

    def test_eval_is_affine(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_p = int(rng.integers(1, 4))
            f = AffineMatrixFunction(
                [rng.standard_normal((3, 2)) for _ in range(n_p + 1)]
            )
            p = rng.uniform(-1, 1, n_p)
            q = rng.uniform(-1, 1, n_p)
            a = rng.uniform()
            lhs = f(a * p + (1 - a) * q)
            rhs = a * f(p) + (1 - a) * f(q)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_eval_rejects_wrong_length(self, worked_example):
        with pytest.raises(InputError):
            worked_example.A(np.array([0.0, 1.0]))

    def test_mismatched_coefficient_shapes_rejected(self):
        with pytest.raises(InputError):
            AffineMatrixFunction([np.eye(2), np.eye(3)])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            AffineMatrixFunction([np.array([[np.nan]])])

    def test_empty_coefficient_list_rejected(self):
        with pytest.raises(InputError):
            AffineMatrixFunction([])

    def test_coefficients_are_one_read_only_stack(self, worked_example):
        coeffs = worked_example.A.coeffs
        assert coeffs.shape == (2, 3, 3)
        assert len(coeffs) == 2 and [m.shape for m in coeffs] == [(3, 3), (3, 3)]
        assert np.array_equal(coeffs[1], [[1, -1, -1], [-1, 2, 0], [-1, 0, 2]])
        with pytest.raises(ValueError):
            coeffs[0, 0, 0] = 5.0
        with pytest.raises(ValueError):
            coeffs[1][:] = 0.0
        assert worked_example.A(np.zeros(1))[0, 0] == 1.0


class TestSchedulingRegion:
    def test_mismatched_bounds_rejected(self):
        with pytest.raises(InputError):
            SchedulingRegion([0.0], [1.0, 2.0])

    def test_sample_stays_inside(self):
        region = SchedulingRegion([-1.0, 0.0], [1.0, 2.0])
        rng = np.random.default_rng(2)
        assert all(in_box(region, p) for p in region.sample(rng, 20))

    def test_degenerate_region_constructible(self):
        with pytest.raises(InputError, match="empty interior in coordinate 0: lower=0.0 >= upper=0.0"):
            SchedulingRegion([0.0], [0.0])
        with pytest.raises(InputError) as exc:
            SchedulingRegion([0.0, -1.0, 2.0], [0.0, 1.0, 1.0])
        assert "coordinate 0" in str(exc.value) and "coordinate 2" in str(exc.value)
        assert "coordinate 1" not in str(exc.value)


class TestValidate:
    def test_worked_example_is_clean(self, worked_example):
        assert replace(worked_example).n_x == 3  # construction runs every check

    def test_shape_mismatch_reported_once(self, worked_example):
        with pytest.raises(InputError) as exc:
            LpvSsa(
                A=worked_example.A,
                B=AffineMatrixFunction([np.zeros((2, 1)), np.zeros((2, 1))]),
                C=worked_example.C,
                D=worked_example.D,
                region=worked_example.region,
                domain=worked_example.domain,
            )
        message = str(exc.value)
        assert message.startswith("invalid system: ")
        violations = message.removeprefix("invalid system: ").split("; ")
        assert len(violations) == 1
        assert "rows" in violations[0]

    def test_empty_interior_reported_once(self, worked_example):
        with pytest.raises(InputError) as exc:
            SchedulingRegion([0.5], [0.5])
        violations = str(exc.value).split("; ")
        assert len(violations) == 1
        assert "interior" in violations[0]

    def test_constructor_path_always_validates_clean(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            sys = random_system(rng)
            assert replace(sys).signature() == sys.signature()

    def test_from_matrices_rejects_bad_systems(self):
        with pytest.raises(InputError, match="rows"):
            LpvSsa.from_matrices(
                [np.eye(3), np.eye(3)],
                [np.zeros((2, 1)), np.zeros((2, 1))],
                [np.zeros((1, 3)), np.zeros((1, 3))],
                [np.zeros((1, 1)), np.zeros((1, 1))],
                ([0.0], [1.0]),
                "dt",
            )


def _system_with(**blocks):
    """A 2-state, 1-input, 1-output DT system on ``[0, 1]``, with ``blocks`` replaced."""
    coeffs = dict(
        A=[np.eye(2)] * 2, B=[np.ones((2, 1))] * 2,
        C=[np.ones((1, 2))] * 2, D=[np.zeros((1, 1))] * 2,
    )
    coeffs.update(blocks)
    return LpvSsa.from_matrices(**coeffs, region=([0.0], [1.0]), domain="dt")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SchedulingRegion([], []), "needs at least one coordinate"),
        (lambda: SchedulingRegion([0.0, -np.inf], [1.0, 1.0]), "region bounds must be finite"),
        (lambda: SchedulingRegion([0.0], [np.nan]), "region bounds must be finite"),
        (lambda: _system_with(A=[np.ones((2, 3))] * 2), "A must be square, got (2, 3)"),
        (lambda: _system_with(C=[np.ones((1, 3))] * 2), "C has 3 columns but A is 2x2"),
        (lambda: _system_with(D=[np.zeros((2, 1))] * 2), "D has shape (2, 1), expected (1, 1)"),
        (
            lambda: _system_with(B=[np.zeros((2, 0))] * 2, D=[np.zeros((1, 0))] * 2),
            "system needs at least one input (n_u >= 1)",
        ),
        (
            lambda: _system_with(C=[np.zeros((0, 2))] * 2, D=[np.zeros((0, 1))] * 2),
            "system needs at least one output (n_y >= 1)",
        ),
        (
            lambda: _system_with(A=[np.eye(2)] * 3),
            "A has 2 scheduling coefficients but the region has n_p = 1",
        ),
    ],
    ids=[
        "region-no-coordinate", "region-infinite", "region-nan", "A-not-square", "C-width",
        "D-shape", "no-input", "no-output", "n_p-mismatch",
    ],
)
def test_construction_input_errors(build, message):
    with pytest.raises(InputError) as exc:
        build()
    assert message in str(exc.value)


class TestTransposeDual:
    def test_involution_exact(self, worked_example):
        twice = transpose_dual(transpose_dual(worked_example))
        for name in ("A", "B", "C", "D"):
            orig = getattr(worked_example, name)
            back = getattr(twice, name)
            assert all(
                np.array_equal(a, b) for a, b in zip(orig.coeffs, back.coeffs)
            )

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_x=st.integers(0, 5),
        n_u=st.integers(1, 3),
        n_y=st.integers(1, 3),
        n_p=st.integers(1, 3),
        domain=st.sampled_from(TimeDomain),
    )
    def test_involution_on_random_systems(self, seed, n_x, n_u, n_y, n_p, domain):
        sys = random_system(
            np.random.default_rng(seed), n_x=n_x, n_u=n_u, n_y=n_y, n_p=n_p, domain=domain
        )
        dual = transpose_dual(sys)
        twice = transpose_dual(dual)
        for name in ("A", "B", "C", "D"):
            assert np.array_equal(getattr(sys, name).coeffs, getattr(twice, name).coeffs)
            assert not getattr(dual, name).coeffs.flags.writeable
        assert dual.signature() == (n_y, n_u, n_p, domain)

    def test_dual_swaps_b_and_c(self, worked_example):
        dual = transpose_dual(worked_example)
        assert np.array_equal(dual.B.coeffs[0], np.array([[1.0], [0.0], [0.0]]))
        assert np.array_equal(dual.C.coeffs[0], np.array([[1.0, -1.0, -1.0]]))

    def test_dual_of_scalar_system(self):
        sys = LpvSsa.from_matrices(
            [[[2]], [[0]]], [[[1]], [[0]]], [[[3]], [[0]]], [[[0]], [[0]]],
            ([0.0], [1.0]), "dt",
        )
        dual = transpose_dual(sys)
        assert dual.A.coeffs[0][0, 0] == 2.0
        assert dual.B.coeffs[0][0, 0] == 3.0
        assert dual.C.coeffs[0][0, 0] == 1.0

    def test_dual_preserves_validity(self):
        dual = transpose_dual(make_constant_2state())  # construction runs every check
        assert (dual.n_x, dual.n_u, dual.n_y, dual.n_p) == (2, 1, 1, 1)
