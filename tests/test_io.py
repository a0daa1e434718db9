import json

import numpy as np
import pytest

from lpvssa import InputError, Signal, TimeDomain, simulate_dt
from lpvssa.io import (
    parse_signal,
    parse_system,
    serialize_signal,
    serialize_system,
    serialize_transform,
    trajectory_to_csv,
    trajectory_to_json,
)

from conftest import make_worked_example


class TestSystemDocuments:
    def test_round_trip_is_identity_on_canonical_form(self, worked_example):
        text = serialize_system(worked_example)
        assert serialize_system(parse_system(text)) == text

    def test_bundled_worked_file_parses_to_exact_matrices(self, data_dir):
        sys = parse_system((data_dir / "worked_example.json").read_text())
        ref = make_worked_example()
        for name in ("A", "B", "C", "D"):
            got = getattr(sys, name).coeffs
            want = getattr(ref, name).coeffs
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert sys.domain == TimeDomain.DT
        assert np.array_equal(sys.region.lower, [0.0])
        assert np.array_equal(sys.region.upper, [1.0])

    def test_bundled_file_round_trips(self, data_dir):
        text = (data_dir / "worked_example.json").read_text()
        assert serialize_system(parse_system(text)) == text

    def test_wrong_coefficient_count_names_path(self, worked_example):
        doc = json.loads(serialize_system(worked_example))
        doc["A"] = doc["A"] + [doc["A"][0]]
        with pytest.raises(InputError, match="/A"):
            parse_system(json.dumps(doc))

    def test_unknown_field_rejected_with_path(self, worked_example):
        doc = json.loads(serialize_system(worked_example))
        doc["extra"] = 1
        with pytest.raises(InputError, match="extra"):
            parse_system(json.dumps(doc))
        doc = json.loads(serialize_system(worked_example))
        doc["A"][0]["comment"] = "hello"
        with pytest.raises(InputError, match="/A/0"):
            parse_system(json.dumps(doc))

    def test_shape_data_mismatch_names_path(self, worked_example):
        doc = json.loads(serialize_system(worked_example))
        doc["B"][1]["data"] = doc["B"][1]["data"][:-1]
        with pytest.raises(InputError, match="/B/1/data"):
            parse_system(json.dumps(doc))

    def test_non_finite_number_rejected(self, worked_example):
        text = serialize_system(worked_example).replace("-2.0", "NaN", 1)
        with pytest.raises(InputError, match="finite|NaN"):
            parse_system(text)

    def test_string_entry_rejected(self, worked_example):
        doc = json.loads(serialize_system(worked_example))
        doc["A"][0]["data"][0] = "1.0"
        with pytest.raises(InputError, match="/A/0/data/0"):
            parse_system(json.dumps(doc))

    def test_bad_domain_rejected(self, worked_example):
        doc = json.loads(serialize_system(worked_example))
        doc["domain"] = "sometimes"
        with pytest.raises(InputError, match="/domain"):
            parse_system(json.dumps(doc))

    def test_invariant_violation_reported(self, worked_example):
        doc = json.loads(serialize_system(worked_example))
        doc["B"] = [
            {"shape": [2, 1], "data": [1.0, 2.0]},
            {"shape": [2, 1], "data": [0.0, 0.0]},
        ]
        with pytest.raises(InputError, match="rows"):
            parse_system(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(InputError, match="malformed"):
            parse_system("{not json")

    def test_unsupported_schema_version(self, worked_example):
        doc = json.loads(serialize_system(worked_example))
        doc["schema_version"] = "99"
        with pytest.raises(InputError, match="schema_version"):
            parse_system(json.dumps(doc))

    def test_zero_state_system_round_trips(self):
        from lpvssa import LpvSsa

        sys = LpvSsa.from_matrices(
            [np.zeros((0, 0)), np.zeros((0, 0))],
            [np.zeros((0, 1)), np.zeros((0, 1))],
            [np.zeros((1, 0)), np.zeros((1, 0))],
            [[[3.0]], [[1.0]]],
            ([0.0], [1.0]),
            "dt",
        )
        text = serialize_system(sys)
        back = parse_system(text)
        assert back.n_x == 0 and back.D.coeffs[0][0, 0] == 3.0


class TestSignalDocuments:
    def test_dt_round_trip(self):
        sig = Signal.dt([[1.0, 2.0], [3.0, 4.0]])
        text = serialize_signal(sig)
        back = parse_signal(text)
        assert back.domain == TimeDomain.DT
        assert np.array_equal(back.values, sig.values)
        assert serialize_signal(back) == text

    def test_ct_round_trip(self):
        sig = Signal.ct([0.0, 0.5, 1.0], [[1.0], [2.0], [3.0]], "piecewise-linear")
        back = parse_signal(serialize_signal(sig))
        assert back.interpolation == "piecewise-linear"
        assert np.array_equal(back.times, sig.times)

    def test_bad_interpolation_rejected(self):
        with pytest.raises(InputError, match="interpolation"):
            parse_signal(
                json.dumps(
                    {"kind": "ct", "times": [0.0], "values": [[1.0]],
                     "interpolation": "spline"}
                )
            )

    def test_bad_mesh_rejected(self):
        with pytest.raises(InputError, match="signal document invalid"):
            parse_signal(
                json.dumps(
                    {"kind": "ct", "times": [1.0], "values": [[1.0]],
                     "interpolation": "piecewise-constant"}
                )
            )

    def test_ragged_values_rejected(self):
        with pytest.raises(InputError, match="/values/1"):
            parse_signal(json.dumps({"kind": "dt", "values": [[1.0], [1.0, 2.0]]}))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError, match="kind"):
            parse_signal(json.dumps({"kind": "hybrid"}))


def _system_doc(edit):
    """The worked example's document after ``edit(doc)``, as text."""
    doc = json.loads(serialize_system(make_worked_example()))
    edit(doc)
    return json.dumps(doc)


def _set(path, value):
    """An edit that sets ``doc[path[0]]...[path[-1]]`` to ``value``."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_system, "[]", "/: expected an object"),
        (parse_system, _system_doc(_set(["region"], [0.0, 1.0])), "/region: expected an object"),
        (parse_system, _system_doc(lambda d: d.pop("D")), "/: missing field 'D'"),
        (parse_system, _system_doc(_set(["A", 0, "data"], 1.0)), "/A/0/data: expected a list"),
        (parse_system, _system_doc(_set(["A", 0, "shape"], [9])), "/A/0/shape: expected [rows"),
        (parse_system, _system_doc(_set(["A", 0, "shape"], [-1, 3])), "/A/0/shape: expected [rows"),
        (parse_system, _system_doc(_set(["A"], [])), "/A: expected a nonempty list of matrices"),
        (
            parse_system, _system_doc(_set(["region", "lower"], [0.0, 0.0])),
            "/region: lower and upper must be nonempty and equally long",
        ),
        (parse_signal, json.dumps({"kind": "dt", "values": []}), "/values: expected a nonempty"),
        (parse_signal, json.dumps({"kind": "dt", "values": [[], []]}), "/values: sample rows must"),
        (parse_signal, json.dumps({"values": [[1.0]]}), '/: expected an object with a "kind"'),
    ],
    ids=[
        "not-an-object", "region-not-an-object", "missing-field", "data-not-a-list", "shape-length",
        "shape-negative", "empty-matrix-list", "region-unequal-bounds", "no-sample-rows",
        "empty-sample-rows", "signal-without-kind",
    ],
)
def test_document_input_errors(parse, text, message):
    with pytest.raises(InputError) as exc:
        parse(text)
    assert message in str(exc.value)


class TestTrajectoryExport:
    def _trajectory(self):
        sys = make_worked_example()
        rng = np.random.default_rng(0)
        u = Signal.dt(rng.standard_normal((6, 1)))
        p = Signal.dt(rng.uniform(0, 1, (6, 1)))
        return simulate_dt(sys, rng.standard_normal(3), u, p, 5)

    def test_csv_round_trips_doubles_exactly(self):
        traj = self._trajectory()
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x0,x1,x2,y0"
        assert len(lines) == 7
        for k, line in enumerate(lines[1:]):
            vals = [float(v) for v in line.split(",")]
            assert vals[0] == float(k)
            assert vals[1:4] == list(traj.x.values[k])
            assert vals[4] == traj.y.values[k, 0]

    def test_json_export_fields(self):
        traj = self._trajectory()
        doc = trajectory_to_json(traj)
        assert doc["domain"] == "dt"
        assert len(doc["times"]) == 6
        assert np.array_equal(np.array(doc["y"]), traj.y.values)

    def test_transform_sidecar_fields(self):
        text = serialize_transform(np.eye(3), np.eye(3)[:2], 2, "minimal (behavioral)")
        doc = json.loads(text)
        assert doc["o"] == 2
        assert doc["T"]["shape"] == [3, 3]
        assert doc["Pi"]["shape"] == [2, 3]
        assert doc["minimality"] == "minimal (behavioral)"


class TestHugeIntegers:
    """An integer literal beyond the float range is a non-finite number."""

    HUGE = 10**400

    def test_system_entry_names_path(self, worked_example):
        doc = json.loads(serialize_system(worked_example))
        doc["A"][0]["data"][0] = self.HUGE
        with pytest.raises(InputError, match="/A/0/data/0: number must be finite"):
            parse_system(json.dumps(doc))
        doc = json.loads(serialize_system(worked_example))
        doc["region"]["upper"] = [-self.HUGE]
        with pytest.raises(InputError, match="/region/upper/0: number must be finite"):
            parse_system(json.dumps(doc))

    def test_signal_entries_name_paths(self):
        with pytest.raises(InputError, match="/values/1/0: number must be finite"):
            parse_signal(json.dumps({"kind": "dt", "values": [[1.0], [self.HUGE]]}))
        doc = {"kind": "ct", "times": [0, self.HUGE], "values": [[1.0], [2.0]],
               "interpolation": "piecewise-constant"}
        with pytest.raises(InputError, match="/times/1: number must be finite"):
            parse_signal(json.dumps(doc))

    def test_first_bad_entry_is_named(self):
        with pytest.raises(InputError, match="/values/0/1: expected a number"):
            parse_signal(json.dumps({"kind": "dt", "values": [[1.0, True, self.HUGE]]}))
        with pytest.raises(InputError, match="/values/0/1: number must be finite"):
            parse_signal(json.dumps({"kind": "dt", "values": [[1.0, self.HUGE, "x"]]}))

    def test_large_finite_integers_convert_like_float(self):
        big = [2**53 + 1, 2**63 + 12345, -(2**64) - 1, 10**300, 0]
        sig = parse_signal(json.dumps({"kind": "dt", "values": [big]}))
        assert sig.values[0].tolist() == [float(v) for v in big]
