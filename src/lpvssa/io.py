"""JSON system/signal documents and trajectory export.

The system document stores each coefficient matrix as an explicit shape
plus row-major data so golden files diff cleanly; parsing is strict
(unknown fields rejected, non-finite numbers rejected) and error messages
carry JSON-pointer-style paths.  ``parse . serialize`` is the identity on
canonical documents.

Reading and writing cost what the data costs, on one path for valid
input.  A JSON number list is checked with one pass over its entries'
types and converted with one ``np.array`` call; the entry-by-entry scan
that names the first bad entry, and the JSON-pointer path it names, are
built only once that has failed.  :func:`json_text` is the one writer of
documents, sidecars and ``--json`` payloads: its text is byte for byte
``json.dumps(obj, indent=2)``, with a number that is not finite written
as ``null`` (documents hold only finite numbers), and it writes a list of
floats as one join of their ``repr``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import LpvSsa, SchedulingRegion, TimeDomain
from .errors import InputError
from .signals import Signal, Trajectory

__all__ = [
    "SCHEMA_VERSION",
    "parse_system",
    "serialize_system",
    "parse_signal",
    "serialize_signal",
    "signal_document",
    "serialize_transform",
    "json_text",
    "trajectory_to_csv",
    "trajectory_to_json",
]

SCHEMA_VERSION = "1"
_NUMBER_TYPES = {int, float}  # the types json.loads gives numbers; bool is its own type
_MATRIX_FIELDS = {"shape", "data"}
_quote = json.encoder.encode_basestring_ascii  # json.dumps's string writer (ensure_ascii)


def _reject_constant(name):
    raise InputError(f"non-finite number {name!r} is not allowed")


def _load_json(text: str) -> object:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc


def _expect_object(node, path: str, required, optional=()) -> dict:
    if not isinstance(node, dict):
        raise InputError(f"{path or '/'}: expected an object")
    unknown = set(node) - set(required) - set(optional)
    if unknown:
        raise InputError(f"{path or '/'}: unknown field(s) {sorted(unknown)}")
    for key in required:
        if key not in node:
            raise InputError(f"{path or '/'}: missing field {key!r}")
    return node


def _numbers(node):
    """A JSON list of finite numbers as one float array, or None if it is not one.

    One pass over the entries' types and one conversion; an integer
    beyond the float range fails the conversion.
    """
    if type(node) is list and set(map(type, node)) <= _NUMBER_TYPES:
        try:
            out = np.array(node, dtype=float)
        except OverflowError:
            return None
        # a sum of finite numbers is finite unless it overflows, and only
        # then is every entry tested
        if math.isfinite(sum(node, 0.0)) or np.isfinite(out).all():
            return out
    return None


def _number_error(node, path: str) -> InputError:
    """The error for a ``node`` that :func:`_numbers` refused: the first bad entry."""
    if not isinstance(node, list):
        return InputError(f"{path}: expected a list of numbers")
    for i, v in enumerate(node):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return InputError(f"{path}/{i}: expected a number")
        try:
            finite = math.isfinite(v)
        except OverflowError:
            finite = False
        if not finite:
            return InputError(f"{path}/{i}: number must be finite")
    # unreachable from json.loads, which gives exact types: every refusal has a bad entry
    raise AssertionError(f"{path}: no bad entry in a refused number list")


def _number_list(node, path: str) -> np.ndarray:
    """The entries of a JSON list of finite numbers, as a float array.

    An error names the first bad entry; an integer beyond the float range
    is not finite.
    """
    out = _numbers(node)
    if out is None:
        raise _number_error(node, path)
    return out


def _shape_ok(shape) -> bool:
    """Whether a matrix's ``shape`` field is ``[rows, cols]``, two nonnegative integers."""
    return (
        type(shape) is list and len(shape) == 2
        and set(map(type, shape)) == {int} and min(shape) >= 0
    )


def _parse_matrix(node, where: str, i: int) -> np.ndarray:
    """Matrix ``i`` of the list at ``where``, a ``{"shape", "data"}`` object.

    The JSON-pointer path ``where/i`` is built only for the error.
    """
    if type(node) is dict and node.keys() == _MATRIX_FIELDS:
        shape = node["shape"]
        if _shape_ok(shape):
            data = _numbers(node["data"])
            if data is not None and data.size == shape[0] * shape[1]:
                return data.reshape(shape)
    raise _matrix_error(node, f"{where}/{i}")


def _matrix_error(node, path: str) -> InputError:
    """The error for a matrix object that :func:`_parse_matrix` refused.

    A bad object or data list raises its own error on the way.
    """
    _expect_object(node, path, ("shape", "data"))
    shape = node["shape"]
    if not _shape_ok(shape):
        return InputError(f"{path}/shape: expected [rows, cols] nonnegative integers")
    rows, cols = shape
    data = _number_list(node["data"], f"{path}/data")
    return InputError(
        f"{path}/data: expected {rows * cols} entries for shape {rows}x{cols}, "
        f"got {len(data)}"
    )


def _parse_matrix_list(node, path: str) -> list:
    if not isinstance(node, list) or not node:
        raise InputError(f"{path}: expected a nonempty list of matrices")
    return [_parse_matrix(m, path, i) for i, m in enumerate(node)]


def parse_system(text: str) -> LpvSsa:
    """Parse a system document, validating schema and system invariants.

    Raises
    ------
    InputError
        With a JSON-pointer-style path for schema problems, or the list
        of violated system invariants.
    """
    doc = _load_json(text)
    _expect_object(
        doc, "", ("schema_version", "domain", "region", "A", "B", "C", "D")
    )
    if doc["schema_version"] != SCHEMA_VERSION:
        raise InputError(
            f"/schema_version: unsupported version {doc['schema_version']!r} "
            f"(expected {SCHEMA_VERSION!r})"
        )
    if doc["domain"] not in ("dt", "ct"):
        raise InputError("/domain: expected \"dt\" or \"ct\"")
    region_node = _expect_object(doc["region"], "/region", ("lower", "upper"))
    lower = _number_list(region_node["lower"], "/region/lower")
    upper = _number_list(region_node["upper"], "/region/upper")
    if len(lower) != len(upper) or not len(lower):
        raise InputError("/region: lower and upper must be nonempty and equally long")
    n_p = len(lower)
    mats = {}
    for name in ("A", "B", "C", "D"):
        mats[name] = _parse_matrix_list(doc[name], f"/{name}")
        if len(mats[name]) != n_p + 1:
            raise InputError(
                f"/{name}: expected {n_p + 1} coefficient matrices for "
                f"n_p = {n_p}, got {len(mats[name])}"
            )
    try:
        return LpvSsa.from_matrices(
            mats["A"],
            mats["B"],
            mats["C"],
            mats["D"],
            SchedulingRegion(lower, upper),
            TimeDomain(doc["domain"]),
        )
    except InputError as exc:
        raise InputError(f"system document invalid: {exc}") from exc


def _matrix_doc(M: np.ndarray) -> dict:
    return {"shape": [int(M.shape[0]), int(M.shape[1])], "data": M.ravel().tolist()}


def serialize_system(sys: LpvSsa) -> str:
    """Canonical JSON text of a system document (parse . serialize = id)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "domain": sys.domain.value,
        "region": {
            "lower": sys.region.lower.tolist(),
            "upper": sys.region.upper.tolist(),
        },
        "A": [_matrix_doc(m) for m in sys.A.coeffs],
        "B": [_matrix_doc(m) for m in sys.B.coeffs],
        "C": [_matrix_doc(m) for m in sys.C.coeffs],
        "D": [_matrix_doc(m) for m in sys.D.coeffs],
    }
    return json_text(doc) + "\n"


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, with non-finite numbers as ``null``.

    ``obj`` is built from dicts with string keys, lists, tuples, strings,
    numbers, None and numpy arrays or scalars (written as their
    ``tolist()``, as ``json.dumps(..., default=lambda o: o.tolist())``
    writes them).  A float that is not finite is ``null``, so the text
    is strict JSON.
    """
    return _json_text(obj, "")


def _json_text(obj, indent: str) -> str:
    """:func:`json_text` of ``obj`` written on a line indented by ``indent``."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, (list, tuple, dict)):
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(obj, dict):
            body = sep.join(_quote(k) + ": " + _json_text(v, inner) for k, v in obj.items())
            return "{\n" + inner + body + "\n" + indent + "}"
        # a list of ints, or of floats with a finite sum (so every entry is
        # finite), is one join; a sum that overflows only sends a list of
        # finite floats down the entry-by-entry path
        kinds = set(map(type, obj))
        if kinds == {int} or kinds == {float} and math.isfinite(sum(obj)):
            body = sep.join(map(repr, obj))
        else:
            body = sep.join([_json_text(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    return _json_text(obj.tolist(), indent)


def _values_matrix(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise InputError(f"{path}: expected a nonempty list of sample rows")
    rows = []
    width = None
    for i, row in enumerate(node):
        vals = _number_list(row, f"{path}/{i}")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise InputError(f"{path}/{i}: expected {width} entries, got {len(vals)}")
        rows.append(vals)
    if width == 0:
        raise InputError(f"{path}: sample rows must be nonempty")
    return np.array(rows, dtype=float)


def parse_signal(text: str) -> Signal:
    """Parse a signal document (DT value list or CT mesh with interpolation)."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("/: expected an object with a \"kind\" field")
    if doc["kind"] == "dt":
        _expect_object(doc, "", ("kind", "values"))
        return Signal.dt(_values_matrix(doc["values"], "/values"))
    if doc["kind"] == "ct":
        _expect_object(doc, "", ("kind", "times", "values", "interpolation"))
        times = _number_list(doc["times"], "/times")
        values = _values_matrix(doc["values"], "/values")
        try:
            return Signal.ct(times, values, doc["interpolation"])
        except InputError as exc:
            raise InputError(f"signal document invalid: {exc}") from exc
    raise InputError("/kind: expected \"dt\" or \"ct\"")


def signal_document(sig: Signal) -> dict:
    """The signal document of ``sig`` as a dict (the object :func:`serialize_signal` writes)."""
    if sig.domain == TimeDomain.DT:
        return {"kind": "dt", "values": sig.values.tolist()}
    return {
        "kind": "ct",
        "times": sig.times.tolist(),
        "values": sig.values.tolist(),
        "interpolation": sig.interpolation,
    }


def serialize_signal(sig: Signal) -> str:
    return json_text(signal_document(sig)) + "\n"


def serialize_transform(T: np.ndarray, Pi: np.ndarray, o: int, minimality=None) -> str:
    """Sidecar document for a reduction: full transform, projection, dimension."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "o": int(o),
        "T": _matrix_doc(np.asarray(T, dtype=float)),
        "Pi": _matrix_doc(np.asarray(Pi, dtype=float)),
        "minimality": minimality,
    }
    return json_text(doc) + "\n"


def _time_column(traj: Trajectory) -> np.ndarray:
    if traj.x.domain == TimeDomain.DT:
        return np.arange(traj.x.n_samples, dtype=float)
    return traj.times


def trajectory_to_csv(traj) -> str:
    """CSV export with 17 significant digits (lossless double round-trip).

    ``traj`` is a :class:`Trajectory` or its :func:`trajectory_to_json`
    document; the CSV is written from the document.
    """
    doc = traj if isinstance(traj, dict) else trajectory_to_json(traj)
    x, y = doc["x"], doc["y"]
    header = ["t", *(f"x{i}" for i in range(len(x[0]))), *(f"y{i}" for i in range(len(y[0])))]
    lines = [",".join(header)]
    for row in zip(doc["times"], x, y):
        lines.append(",".join(f"{v:.17g}" for v in (row[0], *row[1], *row[2])))
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj: Trajectory) -> dict:
    return {
        "domain": traj.x.domain.value,
        "times": _time_column(traj).tolist(),
        "x": traj.x.values.tolist(),
        "y": traj.y.values.tolist(),
    }
