import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpvssa import InputError, LpvSsa, Signal, TimeDomain, cli, simulate_dt
from lpvssa.io import (
    json_text,
    parse_signal,
    parse_system,
    serialize_signal,
    serialize_system,
    serialize_transform,
    trajectory_to_csv,
    trajectory_to_json,
)

from conftest import CliRunner, make_worked_example, random_system
from oracles import reference_parse_system, reference_payload_text


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

    @pytest.mark.parametrize("name", [
        "worked_example.json", "worked_minimal.json", "constant_1state.json",
        "constant_2state.json", "scheduling_zero.json", "scheduling_first_one.json",
    ])
    def test_bundled_file_round_trips(self, data_dir, name):
        text = (data_dir / name).read_text()
        if name.startswith("scheduling"):
            assert serialize_signal(parse_signal(text)) == text
        else:
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


# ---------------------------------------------------------------------------
# The one writer: byte for byte ``json.dumps(obj, indent=2)``.

# finite floats that stress the shortest round-trip repr
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
    1.7976931348623157e308, 3.0, -17.0, 1e16, 1e22, 2.0**53, 0.1, 1e-5, 123456789.125,
]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]

finite_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
any_floats = st.one_of(finite_floats, st.sampled_from(NON_FINITE))


def _json_trees(leaf_numbers):
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(min_value=-(10**30), max_value=10**30),
        leaf_numbers, st.text(max_size=8),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(leaf_numbers, max_size=6),
            st.dictionaries(st.text(max_size=6), children, max_size=4),
        ),
        max_leaves=25,
    )


def _numpy_leaves(floats):
    """numpy arrays and scalars, as payloads carry them."""
    return st.one_of(
        st.lists(floats, max_size=6).map(lambda v: np.array(v, dtype=float)),
        st.lists(st.lists(floats, min_size=2, max_size=2), min_size=1, max_size=3).map(np.array),
        floats.map(np.float64),
        st.integers(-5, 5).map(np.int64),
        st.booleans().map(np.bool_),
    )


@st.composite
def systems(draw):
    """Systems with ``n_x`` 0-6, ``n_u`` and ``n_y`` 1-3, ``n_p`` 1-3, either domain."""
    n_x, n_u, n_y, n_p = (draw(st.integers(lo, hi)) for lo, hi in ((0, 6), (1, 3), (1, 3), (1, 3)))

    def coeffs(rows, cols):
        return [
            np.array(draw(st.lists(finite_floats, min_size=rows * cols, max_size=rows * cols)))
            .reshape(rows, cols)
            for _ in range(n_p + 1)
        ]

    bounds = st.lists(finite_floats, min_size=2, max_size=2, unique=True).map(sorted)
    region = np.array([draw(bounds) for _ in range(n_p)]).T
    return LpvSsa.from_matrices(
        coeffs(n_x, n_x), coeffs(n_x, n_u), coeffs(n_y, n_x), coeffs(n_y, n_u), region,
        draw(st.sampled_from(["dt", "ct"])),
    )


def _matrix_doc(M):
    return {"shape": list(M.shape), "data": [float(v) for v in M.ravel()]}


def _replace_floats(obj, values):
    """``obj`` with its float leaves (arrays included) taken from ``values`` while it lasts."""
    if isinstance(obj, dict):
        return {k: _replace_floats(v, values) for k, v in obj.items()}
    if isinstance(obj, np.ndarray) and obj.dtype == float:
        return np.array(_replace_floats(obj.tolist(), values))
    if isinstance(obj, list):
        return [_replace_floats(v, values) for v in obj]
    if isinstance(obj, float):
        return next(values, obj)
    return obj


class TestWriterParity:
    @settings(max_examples=300, deadline=None)
    @given(_json_trees(finite_floats))
    def test_finite_trees_match_json_dumps(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(_json_trees(st.one_of(any_floats, _numpy_leaves(any_floats))))
    def test_payload_trees_match_the_finite_mapping(self, obj):
        assert json_text(obj) == reference_payload_text(obj)

    @settings(max_examples=60, deadline=None)
    @given(systems())
    def test_system_documents(self, sys):
        doc = {
            "schema_version": "1",
            "domain": sys.domain.value,
            "region": {
                "lower": [float(v) for v in sys.region.lower],
                "upper": [float(v) for v in sys.region.upper],
            },
            **{name: [_matrix_doc(m) for m in getattr(sys, name).coeffs] for name in "ABCD"},
        }
        text = serialize_system(sys)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert serialize_system(parse_system(text)) == text

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.lists(finite_floats, min_size=36, max_size=36),
           st.sampled_from([None, "minimal (behavioral)", "observable reduction only"]))
    def test_transform_sidecars_with_nothing_kept(self, n, values, minimality):
        T = np.array(values[: n * n]).reshape(n, n)
        Pi = np.zeros((0, n))
        doc = {"schema_version": "1", "o": 0, "T": _matrix_doc(T), "Pi": _matrix_doc(Pi),
               "minimality": minimality}
        assert serialize_transform(T, Pi, 0, minimality) == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.sampled_from([TimeDomain.DT, TimeDomain.CT]),
           st.lists(st.sampled_from(NON_FINITE), min_size=1, max_size=4))
    def test_command_payloads(self, tmp_path_factory, seed, n_x, n_u, n_y, n_p, domain, bad):
        """``check``, ``minimize``, ``iso`` and ``equiv`` payloads, then with non-finite numbers."""
        rng = np.random.default_rng(seed)
        sys = random_system(rng, n_x=n_x, n_u=n_u, n_y=n_y, n_p=n_p, domain=domain, rc_shift=1.5)
        tmp = tmp_path_factory.mktemp("payloads")
        path = tmp / "sys.json"
        path.write_text(serialize_system(sys))
        payloads = []
        runner = CliRunner()
        original = cli._emit_json
        cli._emit_json = payloads.append
        try:
            for args in (
                ["check", str(path)],
                ["minimize", str(path), "--out", str(tmp / "min.json")],
                ["iso", str(path), str(path)],
                ["equiv", str(path), str(path), "--trials", "2"],
            ):
                result = runner.invoke(cli.main, [*args, "--json"])
                assert result.exit_code == 0, result.output
        finally:
            cli._emit_json = original
        assert [p["command"] for p in payloads] == ["check", "minimize", "iso", "equiv"]
        for payload in payloads:
            assert json_text(payload) == reference_payload_text(payload)
            # the same payload with its float leaves replaced by NaN and infinities
            spoilt = _replace_floats(payload, iter(bad * 100))
            text = json_text(spoilt)
            assert text == reference_payload_text(spoilt)
            assert "NaN" not in text and "Infinity" not in text


# ---------------------------------------------------------------------------
# The one-pass reader against the entry-by-entry reader of tests/oracles.py.

HUGE_LITERAL = "__huge_literal__"  # written as 1e400, which json.loads reads as inf


def _mutate(doc, rng):
    """``doc`` with one random node deleted, replaced, reshaped or made ragged."""
    nodes = []

    def walk(node, parent, key):
        nodes.append((node, parent, key))
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, node, k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, node, i)

    walk(doc, None, None)
    matrices = [n for n, _, _ in nodes if isinstance(n, dict) and "shape" in n]
    if matrices and rng.random() < 0.2:  # well-formed matrices of another shape
        r, c = rng.choice([(0, 3), (1, 1), (1, 3), (3, 1), (3, 3), (2, 2), (3, 0)])
        name = rng.choice("ABCD")
        group = doc[name] if rng.random() < 0.5 and isinstance(doc.get(name), list) else []
        for m in [n for n in group if n in matrices] or [rng.choice(matrices)]:
            m.update(shape=[r, c], data=[rng.uniform(-2, 2) for _ in range(r * c)])
        return doc
    node, parent, key = rng.choice(nodes[1:])
    kind = rng.choice([
        "delete", "null", "string", "true", "big", "-big", "int400", "-int400", "nan", "inf",
        "subnormal", "huge_literal", "shape", "ragged", "nest", "unknown", "duplicate", "empty",
        "int", "list",
    ])
    if kind == "shape" and matrices:
        node = rng.choice(matrices)
    replace = {
        "null": None, "string": "1.0", "true": True, "big": 1e308, "-big": -1e308,
        "int400": 10**400, "-int400": -(10**400), "nan": float("nan"), "inf": float("-inf"),
        "subnormal": 5e-324, "huge_literal": HUGE_LITERAL, "int": rng.choice([0, 3, -1, 2**70]),
        "list": [1.0, 2.0],
    }
    if kind in replace:
        parent[key] = replace[kind]
    elif kind == "delete":
        del parent[key]
    elif kind == "shape" and isinstance(node, dict) and "shape" in node:
        r, c = node["shape"]
        node["shape"] = rng.choice([[r + 1, c], [c, r], [r, c, 1], [-1, c], [-r, -c], [r, 0], [r * c, 1]])
    elif kind == "ragged" and isinstance(node, list) and node:
        node.pop(rng.randrange(len(node)))
    elif kind == "nest" and isinstance(node, list) and node:
        i = rng.randrange(len(node))
        node[i] = [node[i]]
    elif kind == "unknown" and isinstance(node, dict):
        node["extra"] = 1
    elif kind == "duplicate" and isinstance(node, list) and node:
        node.append(json.loads(json.dumps(node[0])))
    elif kind == "empty":
        parent[key] = [] if isinstance(node, list) else {}
    return doc


def _outcome(parse, text):
    try:
        result = parse(text)
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)
    if isinstance(result, LpvSsa):
        stacks = {name: getattr(result, name).coeffs for name in "ABCD"}
        result = stacks, result.region.lower, result.region.upper, result.domain.value
    stacks, lower, upper, domain = result
    arrays = [stacks[name] for name in "ABCD"] + [lower, upper]
    return "ok", domain, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def test_parse_matches_the_entry_by_entry_reader(data_dir):
    """Seeded mutations of the worked example: one message, or bit-identical stacks."""
    base = json.loads((data_dir / "worked_example.json").read_text())
    rng = random.Random(20241020)
    seen = set()
    for _ in range(1500):
        doc = json.loads(json.dumps(base))
        for _ in range(rng.choice([1, 1, 2, 3])):
            doc = _mutate(doc, rng)
        text = json.dumps(doc).replace(f'"{HUGE_LITERAL}"', "1e400")
        want = _outcome(reference_parse_system, text)
        assert _outcome(parse_system, text) == want, text
        seen.add(want[0] if want[0] == "ok" else want[1].split(":")[0])
    assert "ok" in seen and len(seen) > 20  # the mutations reach many checks
