"""One rank floor: a rank counts the singular values above ``sigma_max * ITERATION_RTOL``.

The floor is a constant of the numerics (see the :mod:`lpvssa.analysis`
docstring), not a setting.  These tests pin it wherever a rank is
decided: the decision itself, which is relative and so free of the
matrix's scale; the signatures that once took an ``rtol`` override; the
gap between rounding debris and rank that the floor sits in; the
observability reduction, whose kept dimension is the rank at the floor;
the windowed stacks and the least-squares solves of
:mod:`lpvssa.equivalence`; and ``minimize`` against ``check`` on the
command line.
"""

import inspect
import json

import numpy as np
import pytest
from click.testing import CliRunner

from lpvssa import (
    RankDecision,
    Signal,
    TimeDomain,
    find_isomorphism,
    find_revealing_scheduling,
    is_observable,
    is_span_reachable_from_zero,
    ltv_window_observability,
    match_initial_state,
    minimize,
    observability_reduction,
    reachability_reduction,
    unobservable_subspace,
)
from lpvssa import analysis, equivalence
from lpvssa.analysis import ITERATION_RTOL
from lpvssa.cli import main
from lpvssa.signals import random_scheduling

from conftest import (
    conjugate_system,
    make_constant_2state,
    make_singular_unobservable_block,
    make_worked_example,
    make_worked_minimal,
    random_orthogonal,
    random_system,
)


def _planted(seed, n_x, u):
    return random_system(np.random.default_rng(seed), n_x=n_x, unobservable_dim=u)


@pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
def test_decision_counts_above_the_floor_at_any_scale(scale):
    # 2e-10 and 5e-11 straddle the relative floor 1e-10 at every scale
    rng = np.random.default_rng(3)
    s = np.array([1.0, 1e-3, 1e-8, 2e-10, 5e-11, 1e-14]) * scale
    M = random_orthogonal(rng, 6) @ np.diag(s) @ random_orthogonal(rng, 6)
    dec = RankDecision.from_matrix(M)
    assert dec.rank == 4
    assert dec.tolerance_used == dec.singular_values[0] * ITERATION_RTOL
    assert np.allclose(dec.singular_values, s, rtol=0, atol=1e-15 * scale)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (3, 3)])
def test_decision_without_rank(shape):
    dec = RankDecision.from_matrix(np.zeros(shape))
    assert dec.rank == 0
    assert dec.tolerance_used == 0.0


FORMER_OVERRIDES = {
    "RankDecision.from_matrix": RankDecision.from_matrix,
    "_observability_iteration": analysis._observability_iteration,
    "unobservable_subspace": unobservable_subspace,
    "is_observable": is_observable,
    "is_span_reachable_from_zero": is_span_reachable_from_zero,
    "ltv_window_observability": ltv_window_observability,
    "find_revealing_scheduling": find_revealing_scheduling,
    "_paired_obs_stacks": equivalence._paired_obs_stacks,
    "find_isomorphism": find_isomorphism,
    "_match": equivalence._match,
    "match_initial_state": match_initial_state,
    "observability_reduction": observability_reduction,
    "minimize": minimize,
    "reachability_reduction": reachability_reduction,
}


@pytest.mark.parametrize("name", list(FORMER_OVERRIDES))
def test_no_rank_override_in_signature(name):
    params = inspect.signature(FORMER_OVERRIDES[name]).parameters
    assert "rtol" not in params
    assert all(p.kind is not p.VAR_KEYWORD for p in params.values())


@pytest.mark.parametrize("unobservable_dim", [0, 1, 2, 3])
def test_floor_sits_in_the_gap_between_debris_and_rank(unobservable_dim):
    # behind a random orthogonal basis, the planted kernel leaves singular
    # values at the rounding level, three decades and more under the floor,
    # and the observable rank stays three decades and more above it
    for seed in range(25):
        sys = _planted(seed, 6, unobservable_dim or None)
        ok, dec = is_observable(sys)
        assert dec.rank == 6 - unobservable_dim and ok == (unobservable_dim == 0)
        s, tol = dec.singular_values, dec.tolerance_used
        assert s[dec.rank - 1] > 1e3 * tol
        assert np.all(s[dec.rank :] < 1e-3 * tol)


REDUCTION_SYSTEMS = {
    "worked_example": make_worked_example,
    "worked_minimal": make_worked_minimal,
    "constant_2state": make_constant_2state,
    "singular_unobservable_block": make_singular_unobservable_block,
    "planted_1": lambda: _planted(41, 5, 1),
    "planted_2": lambda: _planted(42, 6, 2),
}


@pytest.mark.parametrize("name", list(REDUCTION_SYSTEMS))
def test_reduction_keeps_the_rank_at_the_floor(name):
    sys = REDUCTION_SYSTEMS[name]()
    n = sys.n_x
    red = observability_reduction(sys)
    assert red.transform_T.shape == (n, n)
    assert np.allclose(red.transform_T @ red.transform_T.T, np.eye(n), atol=1e-12)
    assert red.o == n - unobservable_subspace(sys).shape[1] == is_observable(sys)[1].rank
    assert red.reduced.n_x == red.o == minimize(sys).o
    ok, dec = is_observable(red.reduced)
    assert ok and dec.rank == red.o
    assert reachability_reduction(sys).o == is_span_reachable_from_zero(sys)[1].rank


@pytest.mark.parametrize("domain", [TimeDomain.DT, TimeDomain.CT])
def test_window_stack_decided_at_the_floor(domain):
    rng = np.random.default_rng(5)
    for u in (None, 1):
        sys = random_system(rng, n_x=4, domain=domain, unobservable_dim=u)
        if domain == TimeDomain.DT:
            p, t_end = random_scheduling(sys.region, rng, domain, n_steps=6), 6
        else:
            p, t_end = random_scheduling(sys.region, rng, domain, t_end=2.0), 2.0
        ok, dec = ltv_window_observability(sys, p, t_end)
        assert dec.tolerance_used == dec.singular_values[0] * ITERATION_RTOL
        assert dec.rank == int(np.sum(dec.singular_values > dec.tolerance_used))
        assert ok == (dec.rank == sys.n_x)
        if u:
            assert not ok and dec.rank <= sys.n_x - u


LEAST_SQUARES_CALLS = {
    "find_isomorphism": lambda s: find_isomorphism(
        s, conjugate_system(s, random_orthogonal(np.random.default_rng(8), s.n_x))
    ),
    "match_initial_state": lambda s: match_initial_state(
        s, [1.0, -1.0, 0.5], s, Signal.dt(np.ones((5, 1))), Signal.dt(np.full((5, 1), 0.5)), 4
    ),
}


@pytest.mark.parametrize("call", list(LEAST_SQUARES_CALLS))
def test_least_squares_solves_at_the_floor(monkeypatch, call):
    seen = []
    original = np.linalg.lstsq

    def spy(a, b, rcond=None):
        seen.append(rcond)
        return original(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    LEAST_SQUARES_CALLS[call](make_worked_example())
    assert seen and all(rcond == ITERATION_RTOL for rcond in seen)


@pytest.mark.parametrize(
    "name",
    ["worked_example.json", "worked_minimal.json", "constant_1state.json", "constant_2state.json"],
)
def test_cli_minimize_agrees_with_check(data_dir, tmp_path, name):
    runner = CliRunner()
    path = str(data_dir / name)
    out = str(tmp_path / "min.json")
    mini = runner.invoke(main, ["minimize", path, "--out", out, "--json"])
    check = runner.invoke(main, ["check", path, "--json"])
    assert mini.exit_code == 0 and check.exit_code == 0, mini.output + check.output
    mini_doc, check_doc = json.loads(mini.output), json.loads(check.output)
    assert mini_doc["reduced_dimension"] == check_doc["observability_rank"]
    for doc in (mini_doc, check_doc):
        assert doc["tolerances"]["rank_rtol_used"] == ITERATION_RTOL
    sidecar = json.loads((tmp_path / "min.transform.json").read_text())
    n = check_doc["n_x"]
    assert sidecar["T"]["shape"] == [n, n]
