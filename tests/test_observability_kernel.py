"""The single observability kernel behind check, minimize and iso.

Verdict and rank come from one thresholded matrix, no decision forms the
``(n_p+1)^n_x``-row extended stack, and the decisions scale to sizes the
explicit stack cannot reach.
"""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpvssa import (
    LpvSsa,
    find_isomorphism,
    is_observable,
    is_span_reachable_from_zero,
    transpose_dual,
    unobservable_subspace,
)
from lpvssa import analysis, equivalence
from lpvssa.analysis import ITERATION_RTOL, SINGULARITY_RTOL
from lpvssa.cli import main
from lpvssa.io import serialize_system

from conftest import CliRunner, conjugate_system, random_invertible, random_system

SYSTEM_FILES = (
    "worked_example.json",
    "worked_minimal.json",
    "constant_1state.json",
    "constant_2state.json",
)


def near_unobservable() -> LpvSsa:
    """``C = [1 0]``, ``A_0 = [[1, 1e-12], [0, 1]]``, ``B_0 = [1; 1]``."""
    Z2, Z1 = np.zeros((2, 2)), np.zeros((1, 1))
    return LpvSsa.from_matrices(
        [[[1.0, 1e-12], [0.0, 1.0]], Z2],
        [[[1.0], [1.0]], np.zeros((2, 1))],
        [[[1.0, 0.0]], np.zeros((1, 2))],
        [Z1, Z1],
        ([0.0], [1.0]),
        "dt",
    )


def _observable_system(rng, **kw):
    while True:
        sys = random_system(rng, **kw)
        if is_observable(sys)[0]:
            return sys


def _write(tmp_path, sys, name):
    path = tmp_path / name
    path.write_text(serialize_system(sys))
    return str(path)


class TestNearUnobservable:
    def test_verdict_and_rank_agree(self):
        sys = near_unobservable()
        for decide in (is_observable, is_span_reachable_from_zero):
            ok, dec = decide(sys)
            assert ok is False
            assert dec.rank == 1
            assert ok == (dec.rank == sys.n_x)
            assert dec.rank == int(np.sum(dec.singular_values > dec.tolerance_used))
            assert dec.tolerance_used == dec.singular_values[0] * ITERATION_RTOL
        assert unobservable_subspace(sys).shape == (2, 1)
        assert unobservable_subspace(transpose_dual(sys)).shape == (2, 1)

    def test_cli_text_reports_consistent_ranks(self, tmp_path):
        path = _write(tmp_path, near_unobservable(), "near.json")
        result = CliRunner().invoke(main, ["check", path])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[0] == "observable: no (rank 1/2)"
        assert lines[1] == "span-reachable from zero: no (rank 1/2)"

    def test_cli_json_reports_tolerances_that_ran(self, tmp_path):
        path = _write(tmp_path, near_unobservable(), "near.json")
        doc = json.loads(CliRunner().invoke(main, ["check", path, "--json"]).output)
        assert doc["observable"] == (doc["observability_rank"] == doc["n_x"])
        assert doc["span_reachable_from_zero"] == (
            doc["reachability_rank"] == doc["n_x"]
        )
        tol = doc["tolerances"]
        assert set(tol) == {
            "rank_rtol_used", "singularity_rtol",
            "observability_tolerance_used", "reachability_tolerance_used",
        }
        assert tol["rank_rtol_used"] == ITERATION_RTOL
        assert tol["singularity_rtol"] == SINGULARITY_RTOL
        for kind in ("observability", "reachability"):
            sv = np.array(doc[f"{kind}_singular_values"])
            used = tol[f"{kind}_tolerance_used"]
            assert used == sv[0] * ITERATION_RTOL
            assert int(np.sum(sv > used)) == doc[f"{kind}_rank"]


class TestLargeState:
    def test_cli_check_minimize_iso_at_nx_30(self, tmp_path):
        rng = np.random.default_rng(30)
        sys = random_system(rng, n_x=30, n_p=2, n_u=1, n_y=1, rc_shift=2.0)
        T0 = random_invertible(rng, 30, log_cond=1.0)
        path = _write(tmp_path, sys, "big.json")
        conj = _write(tmp_path, conjugate_system(sys, T0), "big_conj.json")
        runner = CliRunner()

        check = runner.invoke(main, ["check", path, "--json"])
        assert check.exit_code == 0, check.output
        doc = json.loads(check.output)
        assert doc["observable"] is True and doc["observability_rank"] == 30

        out = tmp_path / "big_min.json"
        minimize = runner.invoke(main, ["minimize", path, "--out", str(out), "--json"])
        assert minimize.exit_code == 0, minimize.output
        assert json.loads(minimize.output)["reduced_dimension"] == 30

        iso = runner.invoke(main, ["iso", path, conj, "--json"])
        assert iso.exit_code == 0, iso.output
        doc = json.loads(iso.output)
        assert doc["verdict"] == "isomorphic"
        T = np.array(doc["T"])
        assert np.linalg.norm(T - T0) / np.linalg.norm(T0) < 1e-8

    def test_decisions_stay_fast(self):
        # loose bounds against a return of the exponential stack, which took
        # about 0.6 s (is_observable) and 0.8 s (find_isomorphism) here
        rng = np.random.default_rng(12)
        sys = _observable_system(rng, n_x=12, n_p=2, n_u=1, n_y=1)
        other = conjugate_system(sys, random_invertible(rng, 12, log_cond=1.0))

        def best_of(fn, repeats=5):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_of(lambda: is_observable(sys)) < 0.01
        assert best_of(lambda: find_isomorphism(sys, other)) < 0.1


class TestNoSecondPath:
    def test_cli_never_builds_the_explicit_stack(self, monkeypatch, data_dir, tmp_path):
        def forbidden(*args, **kwargs):
            raise AssertionError("explicit observability stack was built")

        monkeypatch.setattr(analysis, "_obs_levels", forbidden)
        runner = CliRunner()
        for name in SYSTEM_FILES:
            result = runner.invoke(main, ["check", str(data_dir / name), "--json"])
            assert result.exit_code == 0, result.output
            out = tmp_path / f"min_{name}"
            result = runner.invoke(
                main, ["minimize", str(data_dir / name), "--out", str(out)]
            )
            assert result.exit_code == 0, result.output
        minimized = str(tmp_path / "min_worked_example.json")
        result = runner.invoke(
            main, ["iso", minimized, str(data_dir / "worked_minimal.json"), "--json"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["verdict"] == "isomorphic"


class TestCarriedBlock:
    """A second system rides through the kernel's row operations, deciding nothing."""

    @pytest.mark.parametrize("unobservable_dim", [None, 1, 2])
    def test_carrying_the_systems_own_coefficients_gives_its_rows(self, unobservable_dim):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sys = random_system(rng, n_x=5, n_p=2, unobservable_dim=unobservable_dim)
            C, A = sys.C.coeffs, sys.A.coeffs
            Q, dec = analysis._observability_iteration(C, A)
            J, carried_dec = analysis._observability_iteration(C, A, (C, A))
            assert J.shape == (Q.shape[0], 2 * sys.n_x)
            assert np.array_equal(J[:, : sys.n_x], Q)  # ranks decided on sys alone
            assert carried_dec.rank == dec.rank
            assert np.array_equal(carried_dec.singular_values, dec.singular_values)
            assert np.allclose(J[:, sys.n_x :], Q, rtol=0.0, atol=1e-12)

    def test_conjugate_pair_rows_satisfy_the_transform(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            sys1 = random_system(rng, n_x=int(rng.integers(1, 7)))
            T0 = random_invertible(rng, sys1.n_x)
            sys2 = conjugate_system(sys1, T0)
            J, _ = analysis._observability_iteration(
                sys2.C.coeffs, sys2.A.coeffs, (sys1.C.coeffs, sys1.A.coeffs)
            )
            Q2, Q1 = J[:, : sys1.n_x], J[:, sys1.n_x :]
            assert np.linalg.norm(Q2 @ T0 - Q1) <= 1e-10 * np.linalg.norm(T0)

    def test_isomorphism_runs_the_kernel_once(self, monkeypatch):
        calls = []
        kernel = analysis._observability_iteration

        def counted(C, A, carried=None):
            calls.append(carried is not None)
            return kernel(C, A, carried)

        monkeypatch.setattr(analysis, "_observability_iteration", counted)
        monkeypatch.setattr(equivalence, "_observability_iteration", counted)
        rng = np.random.default_rng(13)
        sys1 = random_system(rng, n_x=4)
        sys2 = conjugate_system(sys1, random_invertible(rng, 4))
        assert find_isomorphism(sys1, sys2).verdict == "isomorphic"
        assert calls == [True]  # no second run for sys2, no joint error system


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestProperties:
    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=seeds, planted=st.integers(0, 3), n_p=st.integers(1, 3))
    def test_rank_is_state_dimension_minus_kernel(self, seed, planted, n_p):
        rng = np.random.default_rng(seed)
        n_x = int(rng.integers(planted + 1, 8))
        sys = random_system(rng, n_x=n_x, n_p=n_p, unobservable_dim=planted or None)
        for s in (sys, transpose_dual(sys)):
            ok, dec = is_observable(s)
            assert dec.rank == s.n_x - unobservable_subspace(s).shape[1]
            assert ok == (dec.rank == s.n_x)

    @settings(max_examples=25, deadline=None, database=None)
    @given(seed=seeds, log_cond=st.floats(0.0, 2.5))
    def test_isomorphism_survives_conjugation(self, seed, log_cond):
        rng = np.random.default_rng(seed)
        sys = _observable_system(rng, n_x=int(rng.integers(1, 9)))
        T0 = random_invertible(rng, sys.n_x, log_cond=log_cond)
        r = find_isomorphism(sys, conjugate_system(sys, T0))
        assert r.verdict == "isomorphic"
        assert np.linalg.norm(r.T - T0) / np.linalg.norm(T0) < 1e-8
