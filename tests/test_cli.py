import json

import numpy as np
import pytest
from click.testing import CliRunner

import lpvssa
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

    def test_json_schema_is_stable(self, runner, data_dir):
        doc = json.loads(
            runner.invoke(main, ["check", _worked_file(data_dir), "--json"]).output
        )
        assert set(doc) == {
            "version", "command", "tolerances", "n_x",
            "observable", "observability_rank", "observability_singular_values",
            "span_reachable_from_zero", "reachability_rank",
            "reachability_singular_values", "rc",
        }
        assert set(doc["rc"]) == {
            "convex_ok", "dt_invertibility", "holds", "witness",
            "det_poly_1d", "grid_per_axis",
        }


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


# commands with a bad window or initial state, and a fragment of their message
BAD_WINDOW_COMMANDS = [
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
