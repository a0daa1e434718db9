"""Batched evaluation and the deterministic regularity decision.

``check_rc`` decides DT invertibility of ``A(p)`` on the box with Weyl's
bound on boxes, the eigenvalues of the matrix pencil along a line, and
one Newton step from them.  Every
verdict is checked against a per-point reference: a witness must fail
the scaled SVD test evaluated point by point, and a certified system
must pass it on a grid plus random draws, with a ``sigma_min`` bound no
larger than at any of those points.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lpvssa import InputError, LpvSsa, check_rc
from lpvssa import analysis
from lpvssa.analysis import SINGULARITY_RTOL, _singular_mask
from lpvssa.cli import _rc_payload, _rc_text, main
from lpvssa.io import serialize_system

from conftest import CliRunner, random_system
from oracles import in_box, region_grid
from test_polynomial_regularity import shifted_plant


def pointwise_singular(sys, p):
    """The scaled test at one point, with ``__call__`` and a single SVD."""
    s = np.linalg.svd(sys.A(p), compute_uv=False)
    return s[0] == 0.0 or s[-1] <= SINGULARITY_RTOL * s[0]


def reference_points(sys, points_per_axis, seed=12345):
    """Tensor grid plus ``10 * points_per_axis**n_p`` uniform draws."""
    rng = np.random.default_rng(seed)
    return np.vstack(
        [
            region_grid(sys.region, points_per_axis),
            sys.region.sample(rng, 10 * points_per_axis**sys.n_p),
        ]
    )


def assert_consistent(sys, points_per_axis):
    """The verdict never contradicts the per-point reference on ``points_per_axis``."""
    cert = check_rc(sys)
    if cert.dt_invertibility == "refuted-with-witness":
        assert in_box(sys.region, cert.witness)
        assert pointwise_singular(sys, cert.witness)
        assert _singular_mask(sys.A.at_points(cert.witness[None]))[0]
        assert not cert.holds
    elif cert.dt_invertibility == "certified":
        pts = reference_points(sys, points_per_axis)
        assert not any(pointwise_singular(sys, p) for p in pts)
        s_min = np.linalg.svd(sys.A.at_points(pts), compute_uv=False)[:, -1]
        assert 0.0 < cert.sigma_min_bound <= s_min.min()
        assert cert.boxes >= 1 and cert.holds
    else:
        assert cert.dt_invertibility == "undecided" and not cert.holds
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


DOUBLE_ROOT_P1 = 0.123456789


def double_root():
    """``A(p) = diag(p_1 - c, p_1 - c)`` on ``[0, 1]^2``: singular, ``det >= 0``."""
    c = DOUBLE_ROOT_P1
    Z = np.zeros((2, 1))
    return LpvSsa.from_matrices(
        [-c * np.eye(2), np.eye(2), np.zeros((2, 2))],
        [np.ones((2, 1)), Z, Z], [np.ones((1, 2))] * 3, [np.zeros((1, 1))] * 3,
        ([0.0, 0.0], [1.0, 1.0]), "dt",
    )


def near_double_root():
    """``A(p) = [[p - 0.3, 1e-7, 0], [-1e-7, p - 0.3, 0], [0, 0, 1e4]]`` on ``[0, 1]``.

    ``det A = 1e4 ((p - 0.3)^2 + 1e-14)`` has no real root, yet at ``p = 0.3``
    the singular values are ``(1e4, 1e-7, 1e-7)``: ``A`` fails the scaled test.
    """
    A0 = np.array([[-0.3, 1e-7, 0.0], [-1e-7, -0.3, 0.0], [0.0, 0.0, 1e4]])
    Z, C = np.zeros((3, 1)), np.ones((1, 3))
    return LpvSsa.from_matrices(
        [A0, np.diag([1.0, 1.0, 0.0])], [Z, Z], [C, C], [np.zeros((1, 1))] * 2,
        ([0.0], [1.0]), "dt",
    )


def with_inert_coordinate(sys):
    """``sys`` with one more scheduling coordinate, on ``[-1, 1]``, that enters nowhere."""

    def pad(f):
        return list(f.coeffs) + [np.zeros_like(f.coeffs[0])]

    region = (np.append(sys.region.lower, -1.0), np.append(sys.region.upper, 1.0))
    return LpvSsa.from_matrices(pad(sys.A), pad(sys.B), pad(sys.C), pad(sys.D), region, sys.domain)


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


class TestBoxDecision:
    def test_regular_systems_certified(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sys = random_system(rng, n_p=int(rng.integers(2, 4)), rc_shift=2.0)
            cert = assert_consistent(sys, int(rng.integers(2, 6)))
            assert cert.dt_invertibility == "certified"
            assert cert.boxes == 1 and cert.witness is None

    def test_common_kernel_refuted_at_first_point(self):
        # det A vanishes everywhere, so the first point evaluated, the
        # centre of the whole box, is the witness
        rng = np.random.default_rng(2)
        for n_p in (2, 3):
            sys = random_system(rng, n_x=4, n_p=n_p)
            v = rng.standard_normal((4, 1))
            proj = np.eye(4) - v @ v.T / np.sum(v * v)
            singular = with_state_matrix(sys, [Ai @ proj for Ai in sys.A.coeffs])
            cert = assert_consistent(singular, 4)
            assert cert.dt_invertibility == "refuted-with-witness"
            assert np.array_equal(cert.witness, np.zeros(n_p))
            assert cert.boxes == 1

    def test_singular_hyperplane_on_grid(self):
        # the 5-point reference grid on [-1, 1] has p_1 = 0.5 as a node; the
        # search finds it where the region's main diagonal crosses it
        for n_p in (2, 3):
            cert = assert_consistent(diagonal_line(n_p, 0.5), 5)
            assert cert.dt_invertibility == "refuted-with-witness"
            assert abs(cert.witness[0] - 0.5) <= 1e-12

    def test_singular_hyperplane_off_grid(self):
        # no reference grid point or box centre lies on p_1 = 0.123456789;
        # the sign change of det across it is resolved on a segment
        for n_p in (2, 3):
            for points_per_axis in (2, 5, 10):
                cert = assert_consistent(diagonal_line(n_p, 0.123456789), points_per_axis)
                assert cert.dt_invertibility == "refuted-with-witness"
                assert abs(cert.witness[0] - 0.123456789) <= 1e-12

    def test_diagonal_sign_change_refutes_within_one_box(self, monkeypatch):
        # no budget beyond the root box: only the pencil along the region's
        # main diagonal can find the line p_1 = 0.123456789
        monkeypatch.setattr(analysis, "RC_MAX_BOXES", 1)
        for n_p in (2, 3):
            cert = assert_consistent(diagonal_line(n_p, 0.123456789), 5)
            assert cert.dt_invertibility == "refuted-with-witness"
            assert cert.boxes == 1

    def test_tiny_eigenvalue_refuted_without_overflow(self):
        # along the main diagonal A_base^-1 E has the eigenvalue 2e-310, whose
        # -1 / lambda overflows; the other one gives the witness
        Z = np.zeros((2, 1))
        sys = LpvSsa.from_matrices(
            [np.diag([-0.3, 1.0]), np.diag([1.0, 0.0]), np.diag([0.0, 1e-310])],
            [Z] * 3, [np.ones((1, 2))] * 3, [np.zeros((1, 1))] * 3,
            (-np.ones(2), np.ones(2)), "dt",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cert = assert_consistent(sys, 5)
        assert cert.dt_invertibility == "refuted-with-witness"
        assert cert.boxes == 1
        assert np.allclose(cert.witness, [0.3, 0.3], rtol=0.0, atol=1e-12)

    def test_badly_scaled_band_refuted(self):
        # sigma_min / sigma_max <= 1e-10 wherever |p_1 - 0.3| >= ~0.1, so
        # the centre of the whole box already refutes
        cert = assert_consistent(diagonal_line(2, 0.3, scale=1e11), 3)
        assert cert.dt_invertibility == "refuted-with-witness"
        assert np.array_equal(cert.witness, [0.0, 0.0])

    def test_random_slab_sweep_refuted(self):
        # A(p) = Q diag(a(p), 1e11, .., 1e11) Q^T with a(p) = 500 (w.p - c)
        # fails the scaled test on the slab |w.p - c| <= 0.02, and the
        # hyperplane w.p = c always crosses the box
        rng = np.random.default_rng(3)
        for _ in range(60):
            n_p, n_x = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            sys = random_system(rng, n_x=n_x, n_p=n_p)
            w = rng.standard_normal(n_p)
            c = rng.uniform(-1.0, 1.0) * np.sum(np.abs(w))
            Q = np.linalg.qr(rng.standard_normal((n_x, n_x)))[0]
            D0, E = 1e11 * np.eye(n_x), np.zeros((n_x, n_x))
            D0[0, 0], E[0, 0] = -500.0 * c, 500.0
            A = [Q @ D0 @ Q.T] + [Q @ (w[i] * E) @ Q.T for i in range(n_p)]
            cert = assert_consistent(with_state_matrix(sys, A), 3)
            assert cert.dt_invertibility == "refuted-with-witness"
            assert abs(w @ cert.witness - c) <= 0.02 * (1 + 1e-9)


class TestSweeps:
    def test_sign_change_sweep_refuted(self):
        # every system whose determinant changes sign on a 15-point grid is
        # singular somewhere in the box and must be refuted with a witness
        rng = np.random.default_rng(0)
        changed = 0
        for _ in range(200):
            n_p, n_x = int(rng.integers(2, 4)), int(rng.integers(2, 9))
            sys = random_system(rng, n_p=n_p, n_x=n_x, rc_shift=0)
            dets = np.linalg.det(sys.A.at_points(region_grid(sys.region, 15)))
            if not dets.max() > 0 > dets.min():
                continue
            changed += 1
            cert = check_rc(sys)
            assert cert.dt_invertibility == "refuted-with-witness"
            assert in_box(sys.region, cert.witness)
            assert pointwise_singular(sys, cert.witness)
        assert changed >= 190

    @pytest.mark.parametrize("n_p", [1, 2, 3])
    @pytest.mark.parametrize("shift", [0.6, 0.8, 1.0])
    def test_shifted_systems_certified(self, n_p, shift):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sys = random_system(rng, n_p=n_p, n_x=int(rng.integers(4, 9)), rc_shift=shift)
            cert = assert_consistent(sys, 4)
            assert cert.dt_invertibility == "certified"

    def test_no_random_draw(self, monkeypatch):
        rng = np.random.default_rng(5)
        systems = [
            random_system(rng, n_p=2, n_x=4, rc_shift=2.0),
            random_system(rng, n_p=3, n_x=5, rc_shift=0.6),
            random_system(rng, n_p=1, n_x=4),
            diagonal_line(2, 0.123456789),
            double_root(),
        ]

        def no_draw(*args, **kwargs):
            raise AssertionError("check_rc drew a random number")

        monkeypatch.setattr(analysis.np.random, "default_rng", no_draw)
        for sys in systems:
            check_rc(sys)
        with pytest.raises(TypeError):
            check_rc(systems[0], seed=1)


class TestNewton:
    def test_steps_onto_singular_line(self):
        sys = diagonal_line(2, 0.123456789)
        for start in ([0.6, 0.3], [-0.3, 0.5]):
            w = analysis._newton_witness(sys, np.array([start]))
            assert w is not None and pointwise_singular(sys, w)
            assert w[1] == start[1]

    def test_regular_system_gives_none(self):
        sys = random_system(np.random.default_rng(7), n_p=2, n_x=3, rc_shift=2.0)
        assert analysis._newton_witness(sys, region_grid(sys.region, 3)) is None


seeds = st.integers(min_value=0, max_value=2**32 - 1)
unit = st.floats(-1.0, 1.0, allow_subnormal=False)


class TestProperties:
    @settings(max_examples=30, deadline=None, database=None)
    @given(seed=seeds, n_p=st.integers(1, 3), shift=st.sampled_from([0.0, 0.7, 2.0]))
    def test_orthogonal_conjugation_keeps_verdict(self, seed, n_p, shift):
        rng = np.random.default_rng(seed)
        n_x = int(rng.integers(2, 7))
        sys = random_system(rng, n_p=n_p, n_x=n_x, rc_shift=shift)
        Q = np.linalg.qr(rng.standard_normal((n_x, n_x)))[0]
        rotated = with_state_matrix(sys, [Q @ Ai @ Q.T for Ai in sys.A.coeffs])
        first, second = check_rc(sys), check_rc(rotated)
        assert first.dt_invertibility == second.dt_invertibility
        for s, cert in ((sys, first), (rotated, second)):
            if cert.witness is not None:
                assert pointwise_singular(s, cert.witness)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        n_p=st.integers(1, 3),
        c=st.floats(-0.99, 0.99),
        base=st.lists(unit, min_size=3, max_size=3),
        d=st.lists(unit, min_size=3, max_size=3),
    )
    def test_segment_witness_finds_the_crossing_of_the_line(self, n_p, c, base, d):
        # on the line base + s d the only singular points are where it
        # crosses p_1 = c; crossings within 1e-9 of the boundary are left
        # out, where rounding decides whether the crossing is in the region
        sys = diagonal_line(n_p, c)
        base, d = np.array(base[:n_p]), np.array(d[:n_p])
        assume(abs(d[0]) >= 1e-6)
        A_base = sys.A.at_points(base[None])
        assume(not _singular_mask(A_base)[0])
        crossing = base + (c - base[0]) / d[0] * d
        gap = np.min(np.minimum(crossing - sys.region.lower, sys.region.upper - crossing))
        assume(abs(gap) > 1e-9)
        witness = analysis._segment_witness(sys, base, A_base[0], d)
        if gap > 0:
            assert witness is not None and in_box(sys.region, witness)
            assert abs(witness[0] - c) <= 1e-12
            assert pointwise_singular(sys, witness)
        else:
            assert witness is None


class TestDoubleRoot:
    def test_refuted_or_undecided(self):
        sys = double_root()
        cert = check_rc(sys)
        assert cert.dt_invertibility in ("refuted-with-witness", "undecided")
        assert not cert.holds
        if cert.witness is not None:
            assert pointwise_singular(sys, cert.witness)

    def test_minimize_never_claims_minimal(self, tmp_path):
        path = tmp_path / "double_root.json"
        path.write_text(serialize_system(double_root()))
        out = tmp_path / "min.json"
        result = CliRunner().invoke(main, ["minimize", str(path), "--out", str(out), "--json"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["minimality"] == "observable reduction only"
        assert doc["rc"]["holds"] is False

    @pytest.mark.parametrize("system", [double_root, near_double_root])
    def test_refuted_within_one_box(self, system, monkeypatch):
        # det has no sign change; along the main diagonal the pencil has a
        # double eigenvalue (double_root, where one Newton step lands on
        # p_1 = c) or a nearly real pair whose real part is p = 0.3
        monkeypatch.setattr(analysis, "RC_MAX_BOXES", 1)
        cert = assert_consistent(system(), 5)
        assert cert.dt_invertibility == "refuted-with-witness"
        assert cert.boxes == 1

    def test_exhausted_budget_is_undecided(self, monkeypatch, tmp_path):
        # one box: the root box of a regular plant that Weyl's bound cannot
        # certify stays open, its main diagonal holds no singular point, so
        # nothing decides
        monkeypatch.setattr(analysis, "RC_MAX_BOXES", 1)
        sys = shifted_plant(np.random.default_rng(0), n_p=2)
        cert = check_rc(sys)
        assert cert.dt_invertibility == "undecided" and not cert.holds
        assert cert.boxes == 1 and cert.witness is None
        assert np.array_equal(cert.box, [[-1.0, -1.0], [1.0, 1.0]])
        assert cert.sigma_min_bound <= 0.0
        text = _rc_text(_rc_payload(cert))
        assert text.startswith("regularity: undecided")
        assert "[-1.0, -1.0] .. [1.0, 1.0]" in text and "boxes visited: 1" in text
        path = tmp_path / "shifted_plant.json"
        path.write_text(serialize_system(sys))
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 0, result.output
        assert "regularity: undecided" in result.output


class TestCliText:
    def test_certified_multivariate_prints_boxes_and_bound(self, tmp_path):
        sys = random_system(np.random.default_rng(6), n_p=2, n_x=4, rc_shift=2.0)
        cert = check_rc(sys)
        path = tmp_path / "regular.json"
        path.write_text(serialize_system(sys))
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 0, result.output
        assert f"sigma_min(A(p)) >= {cert.sigma_min_bound:.6g}" in result.output
        assert "boxes visited: 1" in result.output

    def test_witness_printed_with_every_digit(self, tmp_path):
        sys = diagonal_line(2, 0.123456789)
        path = tmp_path / "line.json"
        path.write_text(serialize_system(sys))
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 0, result.output
        line = next(l for l in result.output.splitlines() if l.startswith("regularity"))
        witness = np.array(json.loads(line.split("p* = ")[1]))
        assert np.array_equal(witness, check_rc(sys).witness)
        assert pointwise_singular(sys, witness)


class TestUnivariate:
    def test_badly_scaled_constant_refuted_at_an_end(self):
        # det A = 1e11 has no root, but sigma_min / sigma_max = 1e-11, so
        # the first point evaluated, the centre of the interval, refutes
        sys = LpvSsa.from_matrices(
            [np.diag([1e11, 1.0]), np.zeros((2, 2))], [np.zeros((2, 1))] * 2,
            [np.ones((1, 2))] * 2, [np.zeros((1, 1))] * 2, ([0.0], [1.0]), "dt",
        )
        cert = assert_consistent(sys, 10)
        assert cert.dt_invertibility == "refuted-with-witness"
        assert cert.witness[0] == 0.5

    def test_double_root_refuted(self):
        # det A = (p - c)^2 touches zero without a sign change
        c = DOUBLE_ROOT_P1
        sys = LpvSsa.from_matrices(
            [np.array([[-c, 1.0], [0.0, -c]]), np.eye(2)], [np.zeros((2, 1))] * 2,
            [np.ones((1, 2))] * 2, [np.zeros((1, 1))] * 2, ([0.0], [1.0]), "dt",
        )
        cert = assert_consistent(sys, 10)
        assert cert.dt_invertibility == "refuted-with-witness"
        assert abs(cert.witness[0] - c) < 1e-6


class TestOnePath:
    """One box search decides every ``n_p``; ``n_p = 1`` is not special."""

    def test_near_double_root_refuted(self, tmp_path):
        sys = near_double_root()
        cert = assert_consistent(sys, 10)
        assert cert.dt_invertibility == "refuted-with-witness"
        assert abs(cert.witness[0] - 0.3) < 1e-5
        inert = assert_consistent(with_inert_coordinate(sys), 10)
        assert inert.dt_invertibility == "refuted-with-witness"
        assert inert.witness[0] == cert.witness[0]
        path = tmp_path / "near_double_root.json"
        path.write_text(serialize_system(sys))
        result = CliRunner().invoke(main, ["check", str(path)])
        assert result.exit_code == 0, result.output
        assert "regularity: refuted, witness p* = " in result.output
        out = tmp_path / "min.json"
        result = CliRunner().invoke(main, ["minimize", str(path), "--out", str(out), "--json"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["minimality"] == "observable reduction only"
        assert doc["rc"]["holds"] is False

    def test_inert_coordinate_keeps_verdict_and_witness(self):
        rng = np.random.default_rng(8)
        for k in range(300):
            n_x = int(rng.integers(1, 9))
            sys = random_system(rng, n_p=1, n_x=n_x, rc_shift=(0.0, 0.5, 1.0)[k % 3])
            one, two = check_rc(sys), check_rc(with_inert_coordinate(sys))
            assert one.dt_invertibility == two.dt_invertibility
            assert (one.witness is None) == (two.witness is None)
            if one.witness is not None:
                assert one.witness[0] == two.witness[0]
            for cert in (one, two):
                assert cert.boxes >= 1
                if cert.dt_invertibility != "refuted-with-witness":
                    assert cert.sigma_min_bound is not None

    def test_worked_example_carries_box_evidence(self, worked_example):
        cert = check_rc(worked_example)
        assert cert.dt_invertibility == "certified"
        assert cert.boxes >= 1
        assert 0.0 < cert.sigma_min_bound
        assert _rc_text(_rc_payload(cert)).startswith("regularity: certified (sigma_min(A(p)) >= ")

