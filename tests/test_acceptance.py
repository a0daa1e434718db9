"""Acceptance criteria, one test per criterion, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import json
import time

import numpy as np
import scipy.linalg as sla

from lpvssa import (
    Signal,
    check_isomorphism,
    check_rc,
    extended_observability_matrix,
    find_isomorphism,
    io_response,
    ltv_window_observability,
    observability_reduction,
    simulate_ct,
    simulate_dt,
    transpose_dual,
    unobservable_subspace,
)
from lpvssa.cli import main
from lpvssa.io import parse_system
from lpvssa.signals import PIECEWISE_LINEAR, random_input, random_scheduling

from conftest import (
    CliRunner,
    conjugate_system,
    make_constant_2state,
    make_constant_1state,
    make_worked_example,
    random_invertible,
    random_orthogonal,
    random_system,
)
from oracles import dyadic, textbook_reachability


def _report(criterion, detail):
    print(f"criterion {criterion}: PASS — {detail}")


def test_criterion_1_worked_example_minimization_and_isomorphism(data_dir, tmp_path):
    runner = CliRunner()
    out = tmp_path / "minimized.json"
    start = time.perf_counter()
    res_min = runner.invoke(
        main, ["minimize", str(data_dir / "worked_example.json"), "--out", str(out)]
    )
    res_iso = runner.invoke(
        main, ["iso", str(out), str(data_dir / "worked_minimal.json"), "--json"]
    )
    elapsed = time.perf_counter() - start
    assert res_min.exit_code == 0, res_min.output
    assert res_iso.exit_code == 0, res_iso.output
    reduced = parse_system(out.read_text())
    assert reduced.n_x == 2
    verdict = json.loads(res_iso.output)
    assert verdict["verdict"] == "isomorphic"
    assert verdict["residual"] < 1e-8
    assert elapsed < 1.0
    _report(
        1,
        f"2-state minimization, isomorphic to the bundled minimal system "
        f"(residual {verdict['residual']:.2e}), {elapsed:.3f} s",
    )


def test_criterion_2_rc_certificate_determinant_polynomial():
    sys = make_worked_example()
    start = time.perf_counter()
    cert = check_rc(sys)
    elapsed = time.perf_counter() - start
    assert cert.dt_invertibility == "certified"
    assert cert.det_poly_1d.shape == (3,)
    assert np.allclose(cert.det_poly_1d, [-1.0, -3.0, -2.0], atol=1e-9)
    assert cert.holds
    assert elapsed < 1.0
    _report(
        2,
        f"det A(p) coefficients {np.round(cert.det_poly_1d, 12).tolist()}; "
        f"sigma_min(A(p)) >= {cert.sigma_min_bound:.3g} on [0, 1] by Weyl's bound "
        f"({cert.boxes} boxes), {elapsed:.3f} s",
    )


def test_criterion_3_constant_pair_behavior_vs_io_gap(data_dir):
    two_state = make_constant_2state()
    # exact simulated outputs from x0 = [1, 1], u = 0
    u = Signal.dt(np.zeros((11, 1)))
    p_one = Signal.dt(np.vstack([[1.0], np.zeros((10, 1))]))
    p_zero = Signal.dt(np.zeros((11, 1)))
    y_one = simulate_dt(two_state, [1.0, 1.0], u, p_one, 10).y.values
    y_zero = simulate_dt(two_state, [1.0, 1.0], u, p_zero, 10).y.values
    assert np.all(y_one == 2.0) and np.all(y_zero == 1.0)

    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "equiv",
            str(data_dir / "constant_2state.json"),
            str(data_dir / "constant_1state.json"),
            "--trials", "100", "--tol", "1e-6",
        ],
    )
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output

    # the matched pair (x0 = [1,1] under p(0) = 1 maps to x0' = 2) fails
    # on the other scheduling: i/o families differ although behaviors agree
    from lpvssa import match_initial_state

    one_state = make_constant_1state()
    u7 = Signal.dt(np.zeros((7, 1)))
    p1 = Signal.dt(np.vstack([[1.0], np.zeros((6, 1))]))
    p0 = Signal.dt(np.zeros((7, 1)))
    x0_to, r_match = match_initial_state(two_state, [1, 1], one_state, u7, p1, 6)
    assert r_match < 1e-12
    y_s = simulate_dt(two_state, [1, 1], u7, p0, 6).y.values
    y_p = simulate_dt(one_state, x0_to, u7, p0, 6).y.values
    cross_gap = float(np.min(np.abs(y_s - y_p)))
    assert cross_gap > 0.5
    _report(
        3,
        "outputs exactly 2 (p0=1) and 1 (p0=0); behavior equivalence PASS over "
        f"100 trials; matched pair disagrees cross-scheduling by {cross_gap:.2f}",
    )


def test_criterion_4_property_suite_200_random_systems():
    rng = np.random.default_rng(20250810)
    start = time.perf_counter()
    max_angle = 0.0
    max_io_err = 0.0
    for _ in range(200):
        planted = int(rng.integers(0, 3))
        n_x = int(rng.integers(max(planted + 1, 1), 6))
        sys = random_system(
            rng,
            n_x=n_x,
            n_p=int(rng.integers(1, 3)),
            unobservable_dim=planted or None,
        )
        # subspace iteration vs direct kernel
        V = unobservable_subspace(sys)
        O = extended_observability_matrix(sys, max(n_x - 1, 0))
        K = sla.null_space(O)
        assert V.shape == K.shape
        if V.shape[1]:
            max_angle = max(max_angle, float(np.max(sla.subspace_angles(V, K))))
            assert max_angle < 1e-8
        # reduction dimension equals the rank
        red = observability_reduction(sys)
        assert red.o == np.linalg.matrix_rank(O)
        # i/o preservation under reduction
        N = 20
        u = random_input(sys.n_u, rng, sys.domain, n_steps=N)
        p = random_scheduling(sys.region, rng, sys.domain, n_steps=N)
        x0 = rng.standard_normal(n_x)
        y_full = io_response(sys, x0, u, p, N).values
        y_red = io_response(red.reduced, red.projection_Pi @ x0, u, p, N).values
        max_io_err = max(max_io_err, float(np.max(np.abs(y_full - y_red))))
        assert max_io_err < 1e-9
        # duality identity, entry-wise exact
        exact = dyadic(sys)
        for depth in range(min(n_x, 3)):
            R = textbook_reachability(exact, depth)
            assert np.array_equal(
                R, extended_observability_matrix(transpose_dual(exact), depth).T
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        4,
        f"200 systems: kernel angle <= {max_angle:.1e}, dimension = rank, "
        f"i/o error <= {max_io_err:.1e}, duality exact, {elapsed:.1f} s",
    )


def test_criterion_5_isomorphism_recovery_suite():
    rng = np.random.default_rng(20250811)
    start = time.perf_counter()
    worst_recovery = 0.0
    for k in range(100):
        sys = random_system(rng)
        from lpvssa import is_observable

        while not is_observable(sys)[0]:
            sys = random_system(rng)
        T0 = random_invertible(rng, sys.n_x, log_cond=rng.uniform(0.5, 2.9))
        other = conjugate_system(sys, T0)
        fwd = find_isomorphism(sys, other)
        assert fwd.verdict == "isomorphic"
        rec = float(np.linalg.norm(fwd.T - T0) / np.linalg.norm(T0))
        worst_recovery = max(worst_recovery, rec)
        assert rec < 1e-8
        # symmetry: reverse verdict matches, transforms mutually inverse
        bwd = find_isomorphism(other, sys)
        assert bwd.verdict == "isomorphic"
        n = sys.n_x
        assert np.linalg.norm(fwd.T @ bwd.T - np.eye(n)) < 1e-7
        # transitivity every tenth draw
        if k % 10 == 0:
            T1 = random_invertible(rng, n, log_cond=1.5)
            third = conjugate_system(other, T1)
            r23 = find_isomorphism(other, third)
            r13 = find_isomorphism(sys, third)
            composed = r23.T @ fwd.T
            assert np.linalg.norm(composed - r13.T) / np.linalg.norm(r13.T) < 1e-7
            assert check_isomorphism(sys, third, composed) < 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        5,
        f"100 conjugations recovered (worst {worst_recovery:.1e}), symmetric "
        f"and transitive, {elapsed:.1f} s",
    )


def test_criterion_6_uniqueness_of_minimal_realizations():
    sys = make_worked_example()
    # a second completion: the reduction of the same system in rotated coordinates
    Q = random_orthogonal(np.random.default_rng(1001), sys.n_x)
    r1 = observability_reduction(sys)
    r2 = observability_reduction(conjugate_system(sys, Q))
    assert not np.allclose(r1.transform_T, r2.transform_T)  # genuinely different bases
    iso = find_isomorphism(r1.reduced, r2.reduced)
    assert iso.verdict == "isomorphic"
    assert iso.residual < 1e-8
    _report(
        6,
        f"two independent reductions isomorphic (residual {iso.residual:.2e})",
    )


def test_criterion_7_ct_integrator():
    from lpvssa import LpvSsa, TimeDomain

    # scalar exponential
    sys = LpvSsa.from_matrices(
        [[[0.0]], [[1.0]]], [[[0.0]], [[0.0]]], [[[1.0]], [[0.0]]],
        [[[0.0]], [[0.0]]], ([0.0], [2.0]), "ct",
    )
    p = Signal.ct_constant([1.0], 1.0)
    u = Signal.ct_constant([0.0], 1.0)
    exp_err = abs(
        simulate_ct(sys, [1.0], u, p, 1.0, 1e-3).x.values[-1, 0] - np.e
    )
    assert exp_err < 1e-8

    # order-4 self-convergence on a random 3-state system
    rng = np.random.default_rng(20250812)
    rnd = random_system(rng, n_x=3, n_p=1, n_u=1, n_y=1, domain=TimeDomain.CT)
    nodes = np.linspace(0.0, 1.0, 5)
    p3 = Signal.ct(nodes, rng.uniform(-1, 1, (5, 1)), PIECEWISE_LINEAR)
    u3 = Signal.ct(nodes, rng.standard_normal((5, 1)), PIECEWISE_LINEAR)
    x0 = rng.standard_normal(3)

    def final(step):
        return simulate_ct(rnd, x0, u3, p3, 1.0, step).x.values[-1]

    ref = final(1e-5)
    ratio = float(
        np.linalg.norm(final(1 / 40) - ref) / np.linalg.norm(final(1 / 80) - ref)
    )
    assert 12.0 <= ratio <= 20.0
    _report(
        7,
        f"exp error {exp_err:.1e} at step 1e-3; halving ratio {ratio:.1f}",
    )


def test_criterion_8_ltv_window_checks():
    rng = np.random.default_rng(20250813)
    minimal = observability_reduction(make_worked_example()).reduced
    hits = 0
    for _ in range(200):
        p = Signal.dt(rng.uniform(0, 1, (4, 1)))
        ok, _ = ltv_window_observability(minimal, p, 3)
        hits += ok
    assert hits >= 198

    unreduced = make_worked_example()
    misses = 0
    for _ in range(200):
        p = Signal.dt(rng.uniform(0, 1, (4, 1)))
        ok, _ = ltv_window_observability(unreduced, p, 3)
        misses += not ok
    assert misses == 200
    _report(
        8,
        f"minimal system: {hits}/200 revealing windows; unreduced: 0/200",
    )
