"""One rank threshold: the floor helper, its rejections, and large floors.

``analysis._rank_floor`` resolves the relative rank floor for every SVD
threshold, least-squares solve and ``--json`` payload: ``1e-10`` by
default, any finite nonnegative override otherwise.  The reduction splits
its orthonormal kernel basis off at the fixed floor, so a floor that wipes
out every rank reduces to ``o = 0`` with a square transform, as ``check``
reports at the same floor.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from lpvssa import (
    InputError,
    RankDecision,
    Signal,
    find_isomorphism,
    is_observable,
    is_span_reachable_from_zero,
    match_initial_state,
    minimize,
    observability_reduction,
    reachability_reduction,
    unobservable_subspace,
)
from lpvssa.analysis import ITERATION_RTOL, _rank_floor
from lpvssa.cli import main

from conftest import make_worked_example, random_system

BAD_FLOORS = [-1.0, -1e-300, np.nan, np.inf, -np.inf]


def test_floor_helper_resolves_default_and_overrides():
    assert _rank_floor(None) == ITERATION_RTOL
    for rtol in (0.0, 1e-12, 1.0, 10.0):
        assert _rank_floor(rtol) == rtol


@pytest.mark.parametrize("rtol", BAD_FLOORS)
def test_floor_helper_rejects(rtol):
    with pytest.raises(InputError):
        _rank_floor(rtol)


LIBRARY_CALLS = {
    "from_matrix": lambda s, r: RankDecision.from_matrix(np.eye(2), r),
    "is_observable": lambda s, r: is_observable(s, r),
    "is_span_reachable_from_zero": lambda s, r: is_span_reachable_from_zero(s, r),
    "unobservable_subspace": lambda s, r: unobservable_subspace(s, r),
    "observability_reduction": lambda s, r: observability_reduction(s, rtol=r),
    "reachability_reduction": lambda s, r: reachability_reduction(s, rtol=r),
    "minimize": lambda s, r: minimize(s, rtol=r),
    "find_isomorphism": lambda s, r: find_isomorphism(s, s, rtol=r),
    "match_initial_state": lambda s, r: match_initial_state(
        s, np.zeros(3), s, Signal.dt(np.zeros((4, 1))), Signal.dt(np.zeros((4, 1))), 3, rtol=r
    ),
}


@pytest.mark.parametrize("rtol", [-1.0, np.nan])
@pytest.mark.parametrize("call", list(LIBRARY_CALLS))
def test_library_rejects_bad_floor(call, rtol):
    with pytest.raises(InputError):
        LIBRARY_CALLS[call](make_worked_example(), rtol)


def test_isomorphism_rejects_bad_floor_before_early_verdicts():
    # a state-free pair never reaches a solve, but the floor is still checked
    s = make_worked_example()
    with pytest.raises(InputError):
        find_isomorphism(observability_reduction(s, rtol=10.0).reduced, s, rtol=-1.0)


@pytest.mark.parametrize("rtol", [None, 1e-6, 0.5, 1.0, 2.0, 10.0])
def test_reduction_transform_square_at_any_floor(rtol):
    rng = np.random.default_rng(41)
    systems = [make_worked_example()] + [
        random_system(rng, n_x=int(rng.integers(2, 7)), unobservable_dim=u)
        for u in (None, 1, 2)
    ]
    for sys in systems:
        red = observability_reduction(sys, rtol=rtol)
        n = sys.n_x
        assert red.transform_T.shape == (n, n)
        assert np.allclose(red.transform_T @ red.transform_T.T, np.eye(n), atol=1e-12)
        assert red.o == n - unobservable_subspace(sys, rtol).shape[1]
        assert red.o == is_observable(sys, rtol)[1].rank
        assert red.reduced.n_x == red.o


@pytest.fixture
def runner():
    return CliRunner()


@pytest.mark.parametrize("name", ["worked_example.json", "worked_minimal.json"])
def test_cli_minimize_agrees_with_check_at_large_floor(runner, data_dir, tmp_path, name):
    path = str(data_dir / name)
    out = str(tmp_path / "min.json")
    mini = runner.invoke(main, ["minimize", path, "--out", out, "--rank-rtol", "10", "--json"])
    check = runner.invoke(main, ["check", path, "--rank-rtol", "10", "--json"])
    assert mini.exit_code == 0 and check.exit_code == 0, mini.output + check.output
    reduced = json.loads(mini.output)["reduced_dimension"]
    assert reduced == json.loads(check.output)["observability_rank"] == 0
    sidecar = json.loads((tmp_path / "min.transform.json").read_text())
    n = json.loads(check.output)["n_x"]
    assert sidecar["T"]["shape"] == [n, n]


CLI_COMMANDS = {
    "check": lambda d, t: ["check", str(d / "worked_example.json")],
    "minimize": lambda d, t: ["minimize", str(d / "worked_example.json"), "--out", str(t / "m.json")],
    "iso": lambda d, t: ["iso", str(d / "worked_example.json"), str(d / "worked_minimal.json")],
    "reveal": lambda d, t: ["reveal", str(d / "worked_minimal.json"), "--window", "3"],
}


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", list(CLI_COMMANDS))
def test_cli_rejects_bad_floor(runner, data_dir, tmp_path, command, value):
    args = CLI_COMMANDS[command](data_dir, tmp_path)
    result = runner.invoke(main, args + [f"--rank-rtol={value}"])
    assert result.exit_code == 2, result.output
    assert "finite and nonnegative" in result.output
    assert "observable:" not in result.output
    assert not (tmp_path / "m.json").exists()
