import json
import os
import re
import subprocess
import sys as _sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import lpvssa
from lpvssa.analysis import ITERATION_RTOL, SINGULARITY_RTOL
from lpvssa.cli import main
from lpvssa.io import parse_signal, parse_system, serialize_system

from conftest import make_weakly_coupled_ct



@pytest.fixture
def runner():
    return CliRunner()


def _write_system(tmp_path, sys, name):
    path = tmp_path / name
    path.write_text(serialize_system(sys))
    return str(path)


def _worked_file(data_dir):
    return str(data_dir / "worked_example.json")


def _minimal_file(data_dir):
    return str(data_dir / "worked_minimal.json")


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _strict_json(text):
    """Parse ``text`` as strict JSON: ``NaN``, ``Infinity`` and ``-Infinity`` are errors."""
    return json.loads(text, parse_constant=_reject_constant)


class TestCheck:
    def test_worked_example_report(self, runner, data_dir):
        result = runner.invoke(main, ["check", _worked_file(data_dir)])
        assert result.exit_code == 0, result.output
        assert "observable: no (rank 2/3)" in result.output
        assert "span-reachable from zero: yes (rank 3/3)" in result.output
        assert "certified" in result.output

    def test_json_payload_schema(self, runner, data_dir):
        result = runner.invoke(main, ["check", _worked_file(data_dir), "--json"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["version"] == lpvssa.__version__
        assert doc["command"] == "check"
        assert "tolerances" in doc and "singularity_rtol" in doc["tolerances"]
        assert doc["observable"] is False
        assert doc["observability_rank"] == 2
        assert doc["span_reachable_from_zero"] is True
        assert doc["rc"]["dt_invertibility"] == "certified"
        assert np.allclose(doc["rc"]["det_poly_1d"], [-1, -3, -2], atol=1e-9)

    def test_identity_output_observable(self, runner, tmp_path):
        from lpvssa import LpvSsa

        sys = LpvSsa.from_matrices(
            [np.eye(2) * 0.5, np.zeros((2, 2))],
            [np.ones((2, 1)), np.zeros((2, 1))],
            [np.eye(2), np.zeros((2, 2))],
            [np.zeros((2, 1)), np.zeros((2, 1))],
            ([0.0], [1.0]),
            "dt",
        )
        result = runner.invoke(main, ["check", _write_system(tmp_path, sys, "s.json")])
        assert result.exit_code == 0
        assert "observable: yes" in result.output

    def test_zero_b_not_reachable(self, runner, tmp_path, constant_2state):
        result = runner.invoke(
            main, ["check", _write_system(tmp_path, constant_2state, "s.json")]
        )
        assert result.exit_code == 0
        assert "span-reachable from zero: no" in result.output
        assert "refuted" in result.output

    def test_deterministic_output(self, runner, data_dir):
        args = ["check", _worked_file(data_dir), "--json"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_text_reads_as_bench_workloads_reads_it(self, runner, data_dir):
        # bench/workloads.py parses check's text: lines 1-2 by this pattern,
        # line 3 as the regularity line, and a witness after "p* = "
        line_pattern = re.compile(
            r"^(observable|span-reachable from zero): (yes|no) \(rank (\d+)/(\d+)\)$"
        )
        systems = [p for p in sorted(data_dir.glob("*.json")) if "A" in json.loads(p.read_text())]
        assert len(systems) == 4
        for path in systems:
            sys_ = parse_system(path.read_text())
            lines = runner.invoke(main, ["check", str(path)]).output.splitlines()
            assert len(lines) == 3, lines
            for line, name in zip(lines[:2], ("observable", "span-reachable from zero")):
                m = line_pattern.match(line)
                assert m is not None and m.group(1) == name, line
                rank, total = int(m.group(3)), int(m.group(4))
                assert total == sys_.n_x and (m.group(2) == "yes") == (rank == total)
            assert lines[2].startswith("regularity: ")
            if "refuted" in lines[2]:
                witness = [float(v) for v in re.findall(r"[-+.\deE]+", lines[2].split("p* = ")[1])]
                s = np.linalg.svd(sys_.A(np.array(witness)), compute_uv=False)
                assert s[-1] <= 1e-10 * s[0]

    def test_json_schema_is_stable(self, runner, data_dir):
        doc = json.loads(
            runner.invoke(main, ["check", _worked_file(data_dir), "--json"]).output
        )
        assert set(doc) == {
            "schema_version", "version", "command", "tolerances", "n_x",
            "observable", "observability_rank", "observability_singular_values",
            "span_reachable_from_zero", "reachability_rank",
            "reachability_singular_values", "rc",
        }
        assert set(doc["rc"]) == {
            "dt_invertibility", "holds", "witness", "det_poly_1d",
            "boxes", "sigma_min_bound", "box",
        }

    def test_every_payload_carries_the_schema_version(self, runner, data_dir, tmp_path):
        from lpvssa.cli import PAYLOAD_SCHEMA_VERSION

        W, M = _worked_file(data_dir), _minimal_file(data_dir)
        P = str(data_dir / "scheduling_zero.json")
        # each payload's tolerances beyond the two floors every one carries
        commands = [
            (["check", W], {"observability_tolerance_used", "reachability_tolerance_used"}),
            (["minimize", W, "--out", str(tmp_path / "m.json")], set()),
            (["iso", M, M], {"iso_tol"}),
            (["iso", W, M], {"iso_tol"}),  # dimension mismatch: the residual is infinite
            (["simulate", W, "--p", P, "--horizon", "3"], set()),
            (["equiv", W, M, "--trials", "2"], {"equiv_tol"}),
            (["reveal", M, "--window", "3"], set()),
        ]
        for args, extra in commands:
            result = runner.invoke(main, [*args, "--json"])
            assert result.exit_code == 0, result.output
            doc = _strict_json(result.output)
            assert doc["schema_version"] == PAYLOAD_SCHEMA_VERSION
            tolerances = doc["tolerances"]
            assert set(tolerances) == {"rank_rtol_used", "singularity_rtol"} | extra
            assert tolerances["rank_rtol_used"] == ITERATION_RTOL
            assert tolerances["singularity_rtol"] == SINGULARITY_RTOL

    def test_json_carries_the_regularity_evidence(self, runner, data_dir):
        doc = _strict_json(runner.invoke(main, ["check", _worked_file(data_dir), "--json"]).output)
        text = runner.invoke(main, ["check", _worked_file(data_dir)]).output.splitlines()[2]
        rc = doc["rc"]
        assert rc["box"] is None and rc["boxes"] >= 1 and rc["sigma_min_bound"] > 0
        assert text == (
            f"regularity: certified (sigma_min(A(p)) >= {rc['sigma_min_bound']:.6g} "
            f"on the region by Weyl's bound; boxes visited: {rc['boxes']})"
        )

    def test_json_without_state_reports_null_for_infinities(
        self, runner, tmp_path, worked_example
    ):
        from lpvssa import LpvSsa

        # n_x = 0: the smallest singular value over no value is +inf; two
        # zero-output systems: the estimated transform is zero, so cond is +inf
        empty = LpvSsa.from_matrices(
            [np.zeros((0, 0))] * 2, [np.zeros((0, 1))] * 2, [np.zeros((1, 0))] * 2,
            list(worked_example.D.coeffs), worked_example.region, worked_example.domain,
        )
        zero = LpvSsa.from_matrices(
            list(worked_example.A.coeffs), list(worked_example.B.coeffs),
            [np.zeros_like(c) for c in worked_example.C.coeffs],
            list(worked_example.D.coeffs), worked_example.region, worked_example.domain,
        )
        E = _write_system(tmp_path, empty, "e.json")
        doc = _strict_json(runner.invoke(main, ["check", E, "--json"]).output)
        assert doc["rc"]["dt_invertibility"] == "certified"
        assert doc["rc"]["boxes"] == 0 and doc["rc"]["sigma_min_bound"] is None
        Z = _write_system(tmp_path, zero, "z.json")
        result = runner.invoke(main, ["iso", Z, Z, "--json"])
        assert result.exit_code == 0, result.output
        assert _strict_json(result.output)["condition_number"] is None
        assert "Infinity" not in result.output


class TestRankTolOverrides:
    def test_env_var_no_longer_overrides_the_floor(self, runner, data_dir):
        # the flag is the one setting of the rank floor: an absurdly large
        # floor in the environment, which once wiped out every rank, is ignored
        result = runner.invoke(
            main,
            ["check", _worked_file(data_dir), "--json"],
            env={"LPVSSA_RANK_RTOL": "10.0"},
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["observability_rank"] == 2

    @pytest.mark.parametrize("command", ["check", "minimize", "iso", "reveal"])
    def test_rank_rtol_option_is_gone(self, runner, data_dir, tmp_path, command):
        W, M = _worked_file(data_dir), _minimal_file(data_dir)
        args = {
            "check": ["check", W],
            "minimize": ["minimize", W, "--out", str(tmp_path / "m.json")],
            "iso": ["iso", M, M],
            "reveal": ["reveal", M, "--window", "3"],
        }[command]
        result = runner.invoke(main, [*args, "--rank-rtol", "1e-3"])
        assert result.exit_code == 2
        assert "No such option '--rank-rtol'" in result.output
        assert not (tmp_path / "m.json").exists()


class TestMinimize:
    def test_worked_example_two_state_output(self, runner, data_dir, tmp_path):
        out = tmp_path / "min.json"
        result = runner.invoke(
            main, ["minimize", _worked_file(data_dir), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "reduced dimension: 2 (from 3)" in result.output
        assert "minimal (behavioral)" in result.output
        reduced = parse_system(out.read_text())
        assert reduced.n_x == 2
        sidecar = json.loads((tmp_path / "min.transform.json").read_text())
        assert sidecar["o"] == 2
        assert sidecar["T"]["shape"] == [3, 3]
        assert sidecar["Pi"]["shape"] == [2, 3]

    def test_observable_input_keeps_dimension(self, runner, data_dir, tmp_path):
        out = tmp_path / "m.json"
        result = runner.invoke(
            main, ["minimize", _minimal_file(data_dir), "--out", str(out)]
        )
        assert result.exit_code == 0
        assert parse_system(out.read_text()).n_x == 2

    def test_zero_output_map_collapses(self, runner, tmp_path, worked_example):
        from lpvssa import LpvSsa

        zeroed = LpvSsa.from_matrices(
            list(worked_example.A.coeffs),
            list(worked_example.B.coeffs),
            [np.zeros_like(c) for c in worked_example.C.coeffs],
            list(worked_example.D.coeffs),
            worked_example.region,
            worked_example.domain,
        )
        out = tmp_path / "z.json"
        result = runner.invoke(
            main,
            ["minimize", _write_system(tmp_path, zeroed, "zero.json"), "--out", str(out)],
        )
        assert result.exit_code == 0
        assert parse_system(out.read_text()).n_x == 0

    def test_json_payload(self, runner, data_dir, tmp_path):
        out = tmp_path / "min.json"
        result = runner.invoke(
            main, ["minimize", _worked_file(data_dir), "--out", str(out), "--json"]
        )
        doc = json.loads(result.output)
        assert doc["reduced_dimension"] == 2
        assert doc["minimality"] == "minimal (behavioral)"
        assert doc["rc"]["holds"] is True

    def test_certifies_the_reduction_not_the_input(
        self, runner, tmp_path, singular_unobservable_block
    ):
        path = _write_system(tmp_path, singular_unobservable_block, "s.json")
        check = runner.invoke(main, ["check", path])
        assert "regularity: refuted" in check.output.splitlines()[2]
        out = str(tmp_path / "m.json")
        result = runner.invoke(main, ["minimize", path, "--out", out, "--json"])
        assert result.exit_code == 0, result.output
        doc = _strict_json(result.output)
        assert doc["reduced_dimension"] == 1
        assert doc["minimality"] == "minimal (behavioral)"
        assert doc["rc"]["dt_invertibility"] == "certified" and doc["rc"]["holds"] is True
        assert doc["rc"]["witness"] is None


class TestIso:
    def test_minimized_output_vs_bundled_minimal(self, runner, data_dir, tmp_path):
        out = tmp_path / "min.json"
        runner.invoke(main, ["minimize", _worked_file(data_dir), "--out", str(out)])
        result = runner.invoke(main, ["iso", str(out), _minimal_file(data_dir), "--json"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["verdict"] == "isomorphic"
        assert doc["residual"] < 1e-8
        assert np.array(doc["T"]).shape == (2, 2)

    def test_file_vs_itself_identity(self, runner, data_dir):
        f = _minimal_file(data_dir)
        result = runner.invoke(main, ["iso", f, f, "--json"])
        doc = json.loads(result.output)
        assert doc["verdict"] == "isomorphic"
        assert doc["residual"] < 1e-12
        assert np.allclose(np.array(doc["T"]), np.eye(2), atol=1e-12)

    def test_dimension_mismatch_reported(self, runner, data_dir):
        result = runner.invoke(
            main, ["iso", _worked_file(data_dir), _minimal_file(data_dir)]
        )
        assert result.exit_code == 0
        assert "not-isomorphic" in result.output
        assert "dimension mismatch" in result.output


class TestSimulate:
    def test_constant2_cli_output_two(self, runner, data_dir):
        result = runner.invoke(
            main,
            [
                "simulate",
                str(data_dir / "constant_2state.json"),
                "--x0", "1,1",
                "--p", str(data_dir / "scheduling_first_one.json"),
                "--horizon", "10",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.strip().split("\n")
        assert lines[0] == "t,x0,x1,y0"
        for line in lines[1:]:
            assert line.split(",")[-1] == "2"

    def test_zero_state_zero_input(self, runner, data_dir):
        result = runner.invoke(
            main,
            [
                "simulate",
                str(data_dir / "constant_2state.json"),
                "--p", str(data_dir / "scheduling_zero.json"),
                "--horizon", "5",
            ],
        )
        assert result.exit_code == 0
        for line in result.output.strip().split("\n")[1:]:
            assert [float(v) for v in line.split(",")[1:]] == [0.0, 0.0, 0.0]

    def test_ct_exponential_json(self, runner, tmp_path):
        from lpvssa import LpvSsa, Signal
        from lpvssa.io import serialize_signal

        sys = LpvSsa.from_matrices(
            [[[0.0]], [[1.0]]], [[[0.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]], ([0.0], [2.0]), "ct",
        )
        p_path = tmp_path / "p.json"
        p_path.write_text(serialize_signal(Signal.ct_constant([1.0], 1.0)))
        result = runner.invoke(
            main,
            [
                "simulate", _write_system(tmp_path, sys, "exp.json"),
                "--x0", "1",
                "--p", str(p_path),
                "--horizon", "1.0",
                "--step", "1e-3",
                "--json",
            ],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert abs(doc["trajectory"]["x"][-1][0] - np.e) < 1e-8

    def test_out_file_csv_and_json(self, runner, data_dir, tmp_path):
        base = [
            "simulate",
            str(data_dir / "constant_2state.json"),
            "--x0", "1,1",
            "--p", str(data_dir / "scheduling_zero.json"),
            "--horizon", "4",
        ]
        csv_path = tmp_path / "traj.csv"
        json_path = tmp_path / "traj.json"
        assert runner.invoke(main, base + ["--out", str(csv_path)]).exit_code == 0
        assert runner.invoke(main, base + ["--out", str(json_path)]).exit_code == 0
        assert csv_path.read_text().startswith("t,x0,x1,y0")
        doc = json.loads(json_path.read_text())
        assert doc["y"][0] == [1.0]

    def test_ct_with_input_file(self, runner, tmp_path):
        from lpvssa import LpvSsa, Signal
        from lpvssa.io import serialize_signal

        # x' = u with x(0) = 0 and u = 1: x(t) = t
        sys = LpvSsa.from_matrices(
            [[[0.0]], [[0.0]]], [[[1.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]], ([0.0], [1.0]), "ct",
        )
        p_path = tmp_path / "p.json"
        u_path = tmp_path / "u.json"
        p_path.write_text(serialize_signal(Signal.ct_constant([0.5], 1.0)))
        u_path.write_text(serialize_signal(Signal.ct_constant([1.0], 1.0)))
        result = runner.invoke(
            main,
            [
                "simulate", _write_system(tmp_path, sys, "int.json"),
                "--p", str(p_path), "--u", str(u_path),
                "--horizon", "1.0", "--step", "0.01", "--json",
            ],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert abs(doc["trajectory"]["x"][-1][0] - 1.0) < 1e-12

    def test_fractional_dt_horizon_rejected(self, runner, data_dir):
        result = runner.invoke(
            main,
            [
                "simulate", str(data_dir / "constant_2state.json"),
                "--p", str(data_dir / "scheduling_zero.json"),
                "--horizon", "2.5",
            ],
        )
        assert result.exit_code == 2


class TestEquiv:
    def test_worked_example_vs_minimization_passes(self, runner, data_dir, tmp_path):
        out = tmp_path / "min.json"
        runner.invoke(main, ["minimize", _worked_file(data_dir), "--out", str(out)])
        result = runner.invoke(
            main, ["equiv", _worked_file(data_dir), str(out), "--trials", "20"]
        )
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output

    def test_constant_pair_passes_with_rc_annotation(self, runner, data_dir):
        result = runner.invoke(
            main,
            [
                "equiv",
                str(data_dir / "constant_2state.json"),
                str(data_dir / "constant_1state.json"),
                "--trials", "100",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output
        assert "refuted" in result.output  # RC fails for the 2-state system
        assert "evidence" in result.output

    def test_zero_system_fails(self, runner, data_dir, tmp_path, worked_minimal):
        from lpvssa import LpvSsa

        zeroed = LpvSsa.from_matrices(
            list(worked_minimal.A.coeffs), list(worked_minimal.B.coeffs),
            [np.zeros_like(c) for c in worked_minimal.C.coeffs],
            list(worked_minimal.D.coeffs), worked_minimal.region, worked_minimal.domain,
        )
        result = runner.invoke(
            main,
            [
                "equiv", _minimal_file(data_dir),
                _write_system(tmp_path, zeroed, "z.json"),
                "--trials", "5",
            ],
        )
        assert result.exit_code == 0
        assert "FAIL" in result.output

    def test_ct_pair_uses_ct_defaults(self, runner, tmp_path):
        from lpvssa import LpvSsa

        sys = LpvSsa.from_matrices(
            [[[-0.4]], [[0.2]]], [[[1.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]], ([-1.0], [1.0]), "ct",
        )
        f = _write_system(tmp_path, sys, "ct.json")
        result = runner.invoke(
            main, ["equiv", f, f, "--trials", "3", "--json"]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["passed"] is True
        assert doc["horizon"] == 2.0
        assert doc["tolerances"]["equiv_tol"] == 1e-4

    def test_json_deterministic_given_seed(self, runner, data_dir):
        args = [
            "equiv", str(data_dir / "constant_2state.json"),
            str(data_dir / "constant_1state.json"),
            "--trials", "10", "--seed", "7", "--json",
        ]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["passed"] is True
        assert doc["tolerances"]["equiv_tol"] == 1e-6

    def test_fractional_dt_horizon_rejected(self, runner, data_dir):
        files = [_worked_file(data_dir), _minimal_file(data_dir)]
        result = runner.invoke(main, ["equiv", *files, "--horizon", "2.5", "--trials", "3"])
        assert result.exit_code == 2
        assert "integer" in result.output
        result = runner.invoke(main, ["equiv", *files, "--horizon", "4.0", "--trials", "3"])
        assert result.exit_code == 0, result.output
        assert "horizon 4.0" in result.output


class TestReveal:
    def test_minimal_system_found_and_written(self, runner, data_dir, tmp_path):
        out = tmp_path / "p.json"
        result = runner.invoke(
            main,
            [
                "reveal", _minimal_file(data_dir),
                "--window", "3", "--trials", "50", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "found a revealing scheduling" in result.output
        sig = parse_signal(out.read_text())
        assert sig.n_samples == 4

    def test_unobservable_system_diagnostic(self, runner, data_dir):
        result = runner.invoke(
            main, ["reveal", _worked_file(data_dir), "--window", "3"]
        )
        assert result.exit_code == 0
        assert "no revealing scheduling found" in result.output
        assert "not observable" in result.output

    def test_json_fields(self, runner, data_dir):
        result = runner.invoke(
            main, ["reveal", _minimal_file(data_dir), "--window", "3", "--json"]
        )
        doc = json.loads(result.output)
        assert doc["found"] is True
        assert doc["scheduling"]["kind"] == "dt"

    def test_ct_weak_coupling_found(self, runner, tmp_path):
        # observable through a 1e-6 coupling that only the stacked window
        # matrix resolves at the 1e-10 floor (a Gramian would square it away)
        path = _write_system(tmp_path, make_weakly_coupled_ct(), "weak.json")
        check = runner.invoke(main, ["check", path])
        assert "observable: yes (rank 2/2)" in check.output
        result = runner.invoke(main, ["reveal", path, "--window", "1"])
        assert result.exit_code == 0, result.output
        assert "found a revealing scheduling on window 1.0" in result.output

    def test_fractional_dt_window_rejected(self, runner, data_dir):
        result = runner.invoke(main, ["reveal", _minimal_file(data_dir), "--window", "2.7"])
        assert result.exit_code == 2
        assert "integer" in result.output


# commands with a bad window, initial state, tolerance or seed, and a fragment of their message
BAD_WINDOW_COMMANDS = [
    ("iso {M} {M} --tol -1", "tolerance must be finite and positive"),
    ("iso {M} {M} --tol nan", "tolerance must be finite and positive"),
    ("iso {M} {M} --tol 0", "tolerance must be finite and positive"),
    ("equiv {W} {M} --tol nan", "tolerance must be finite and positive"),
    ("equiv {W} {M} --tol -1", "tolerance must be finite and positive"),
    ("equiv {W} {M} --seed -1", "invalid seed -1"),
    ("reveal {M} --window 3 --seed -1", "invalid seed -1"),
    ("equiv {W} {M} --horizon nan", "DT horizon"),
    ("equiv {W} {M} --horizon inf", "DT horizon"),
    ("reveal {M} --window nan", "DT horizon"),
    ("reveal {M} --window inf", "DT horizon"),
    ("reveal {W} --window 2.7", "DT horizon"),
    ("reveal {W} --window 0", "DT window"),
    ("simulate {W} --p {P} --horizon nan", "DT horizon"),
    ("simulate {CT} --p {PCT} --horizon nan", "CT end time"),
    ("simulate {CT} --p {PCT} --horizon inf", "CT end time"),
    ("simulate {CT} --p {PCT} --horizon 1 --step nan", "CT step"),
    ("simulate {CT} --p {PCT} --horizon 1 --step inf", "CT step"),
    ("equiv {CT} {CT} --horizon nan", "CT end time"),
    ("simulate {W} --p {P} --horizon 2 --x0 nan,0,0", "initial state must be finite"),
]


class TestExitCodes:
    @pytest.mark.parametrize(
        "command,message",
        BAD_WINDOW_COMMANDS,
        ids=[c.replace("{", "").replace("}", "").replace(" ", "_") for c, _ in BAD_WINDOW_COMMANDS],
    )
    def test_bad_window_or_state_exits_2(self, runner, data_dir, tmp_path, command, message):
        from lpvssa import LpvSsa, Signal
        from lpvssa.io import serialize_signal

        ct = LpvSsa.from_matrices(
            [[[-0.4]], [[0.2]]], [[[1.0]], [[0.0]]], [[[1.0]], [[0.0]]],
            [[[0.0]], [[0.0]]], ([-1.0], [1.0]), "ct",
        )
        p_ct = tmp_path / "p_ct.json"
        p_ct.write_text(serialize_signal(Signal.ct_constant([0.5], 1.0)))
        files = dict(
            W=_worked_file(data_dir), M=_minimal_file(data_dir),
            P=str(data_dir / "scheduling_zero.json"),
            CT=_write_system(tmp_path, ct, "ct.json"), PCT=str(p_ct),
        )
        result = runner.invoke(main, command.format(**files).split())
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "command",
        [
            "minimize {W} --out {missing}/m.json",
            "minimize {W} --out {tmp}/m.json --transform-out {missing}/t.json",
            "simulate {W} --p {P} --horizon 3 --out {missing}/traj.csv",
            "reveal {M} --window 3 --out {missing}/p.json",
        ],
        ids=["minimize-out", "minimize-transform-out", "simulate-out", "reveal-out"],
    )
    def test_unwritable_output_exits_2(self, runner, data_dir, tmp_path, command):
        files = dict(
            W=_worked_file(data_dir), M=_minimal_file(data_dir),
            P=str(data_dir / "scheduling_zero.json"),
            tmp=str(tmp_path), missing=str(tmp_path / "missing"),
        )
        result = runner.invoke(main, command.format(**files).split())
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"cannot write {tmp_path / 'missing'}" in result.output
        assert "Traceback" not in result.output

    def test_minimize_leaves_no_document_when_the_sidecar_cannot_be_written(
        self, runner, data_dir, tmp_path
    ):
        out = tmp_path / "ok.json"
        result = runner.invoke(main, [
            "minimize", _worked_file(data_dir), "--out", str(out),
            "--transform-out", str(tmp_path / "missing" / "t.json"),
        ])
        assert result.exit_code == 2, result.output
        assert "cannot write" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_reveal_prints_no_result_when_its_output_cannot_be_written(
        self, runner, data_dir, tmp_path
    ):
        for extra in ([], ["--json"]):
            result = runner.invoke(main, [
                "reveal", _minimal_file(data_dir), "--window", "3",
                "--out", str(tmp_path / "missing" / "p.json"), *extra,
            ])
            assert result.exit_code == 2, result.output
            assert result.output.startswith("error: cannot write"), result.output
            assert "found" not in result.output

    def test_outputs_replace_existing_files_whole(self, runner, data_dir, tmp_path):
        out, sidecar, traj = (tmp_path / name for name in ("m.json", "t.json", "x.csv"))
        for path in (out, sidecar, traj):
            path.write_text("stale")
        result = runner.invoke(main, [
            "minimize", _worked_file(data_dir), "--out", str(out), "--transform-out", str(sidecar),
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "simulate", _worked_file(data_dir), "--p", str(data_dir / "scheduling_zero.json"),
            "--horizon", "3", "--out", str(traj),
        ])
        assert result.exit_code == 0, result.output
        assert parse_system(out.read_text()).n_x == 2
        assert json.loads(sidecar.read_text())["o"] == 2
        assert traj.read_text().startswith("t,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "t.json", "x.csv"]

    def test_overflowing_simulation_names_the_first_non_finite_step(
        self, runner, data_dir, tmp_path
    ):
        # every A(p) of worked_minimal on [0, 1] has an eigenvalue of at least
        # 2 + sqrt(5), so 2000 steps from (1, 0) overflow
        from lpvssa import Signal
        from lpvssa.io import serialize_signal

        values = np.random.default_rng(0).uniform(0.0, 1.0, (2001, 1))
        p = tmp_path / "p.json"
        p.write_text(serialize_signal(Signal.dt(values)))
        sys_ = parse_system((data_dir / "worked_minimal.json").read_text())
        x, first = np.array([1.0, 0.0]), None
        with np.errstate(over="ignore", invalid="ignore"):
            for k, q in enumerate(values[:-1], start=1):
                x = sys_.A(q) @ x
                if not np.all(np.isfinite(x)):
                    first = k
                    break
        assert first is not None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [
                "simulate", _minimal_file(data_dir), "--p", str(p),
                "--horizon", "2000", "--x0", "1,0",
            ])
        assert [str(w.message) for w in caught] == []
        assert result.exit_code == 2, result.output
        assert result.output == (
            f"error: the trajectory overflows: the state at step {first} "
            f"(t = {float(first)!r}) is not finite\n"
        )

    def test_grid_option_is_gone(self, runner, data_dir, tmp_path):
        for args in (["check", _worked_file(data_dir)],
                     ["minimize", _worked_file(data_dir), "--out", str(tmp_path / "m.json")]):
            result = runner.invoke(main, [*args, "--grid", "5"])
            assert result.exit_code == 2
            assert "No such option '--grid'" in result.output

    def test_missing_file_is_input_error(self, runner):
        result = runner.invoke(main, ["check", "/nonexistent/sys.json"])
        assert result.exit_code == 2

    def test_malformed_document_is_input_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not json")
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_shape_violation_is_input_error(self, runner, tmp_path, worked_example):
        doc = json.loads(serialize_system(worked_example))
        doc["B"] = [
            {"shape": [2, 1], "data": [1.0, 2.0]},
            {"shape": [2, 1], "data": [0.0, 0.0]},
        ]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 2


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert lpvssa.__version__ in result.output


class TestInProcess:
    def test_output_buffer_is_released(self, data_dir, tmp_path):
        # a caller that runs commands in one process with a fresh stdout
        # per call must not have every output buffer kept alive
        import contextlib
        import gc
        import io
        import weakref

        refs = []
        for args in (
            ["check", _worked_file(data_dir)],
            ["minimize", _worked_file(data_dir), "--out", str(tmp_path / "m.json"), "--json"],
        ):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(args, standalone_mode=False, prog_name="lpvssa")
            assert "regularity" in buf.getvalue() or "rc" in json.loads(buf.getvalue())
            refs.append(weakref.ref(buf))
            del buf
        gc.collect()
        assert all(r() is None for r in refs)


class TestHugeCoefficientEquiv:
    @pytest.mark.parametrize("block, value", [("C", 1e300), ("A", 1e308)])
    def test_equiv_exits_2_without_lapack_output(self, data_dir, tmp_path, worked_example,
                                                 block, value):
        # the window's free response overflows; LAPACK prints its complaints
        # on the process's own stdout, so the command runs in a child interpreter
        doc = json.loads(serialize_system(worked_example))
        doc[block][0]["data"][0] = value
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=str(data_dir.parent.parent / "src"))
        result = subprocess.run(
            [_sys.executable, "-m", "lpvssa.cli", "equiv", str(bad), _minimal_file(data_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2, result.stdout + result.stderr
        assert "Traceback" not in result.stdout + result.stderr
        assert "DLASCL" not in result.stdout
        assert result.stderr.startswith(
            "error: the window overflows: the free response at sample "
        ), result.stderr


class TestHugeIntegerExitCode:
    def test_check_exits_2_naming_the_entry(self, runner, tmp_path, worked_example):
        doc = json.loads(serialize_system(worked_example))
        doc["A"][0]["data"][0] = 10**400
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 2, result.output
        assert "/A/0/data/0: number must be finite" in result.output

    def test_simulate_exits_2_on_a_huge_signal_entry(self, runner, data_dir, tmp_path):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"kind": "dt", "values": [[0.5], [10**400]]}))
        result = runner.invoke(
            main, ["simulate", _worked_file(data_dir), "--p", str(p), "--horizon", "1"]
        )
        assert result.exit_code == 2, result.output
        assert "/values/1/0: number must be finite" in result.output
