"""JSON system/signal documents and trajectory export.

The system document stores each coefficient matrix as an explicit shape
plus row-major data so golden files diff cleanly; parsing is strict
(unknown fields rejected, non-finite numbers rejected) and error messages
carry JSON-pointer-style paths.  ``parse . serialize`` is the identity on
canonical documents.
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
    "serialize_transform",
    "trajectory_to_csv",
    "trajectory_to_json",
]

SCHEMA_VERSION = "1"


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


def _number_list(node, path: str) -> list:
    """The entries of a JSON list of finite numbers, as a list of floats.

    An error names the first bad entry; an integer beyond the float range
    is not finite.
    """
    if not isinstance(node, list):
        raise InputError(f"{path}: expected a list of numbers")
    out = []
    for i, v in enumerate(node):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InputError(f"{path}/{i}: expected a number")
        try:
            v = float(v)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise InputError(f"{path}/{i}: number must be finite")
        out.append(v)
    return out


def _parse_matrix(node, path: str) -> np.ndarray:
    _expect_object(node, path, ("shape", "data"))
    shape = node["shape"]
    if (
        not isinstance(shape, list)
        or len(shape) != 2
        or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape)
    ):
        raise InputError(f"{path}/shape: expected [rows, cols] nonnegative integers")
    rows, cols = shape
    data = _number_list(node["data"], f"{path}/data")
    if len(data) != rows * cols:
        raise InputError(
            f"{path}/data: expected {rows * cols} entries for shape {rows}x{cols}, "
            f"got {len(data)}"
        )
    return np.array(data, dtype=float).reshape(rows, cols)


def _parse_matrix_list(node, path: str) -> list:
    if not isinstance(node, list) or not node:
        raise InputError(f"{path}: expected a nonempty list of matrices")
    return [_parse_matrix(m, f"{path}/{i}") for i, m in enumerate(node)]


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
    if len(lower) != len(upper) or not lower:
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
    return json.dumps(doc, indent=2) + "\n"


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


def serialize_signal(sig: Signal) -> str:
    if sig.domain == TimeDomain.DT:
        doc = {"kind": "dt", "values": sig.values.tolist()}
    else:
        doc = {
            "kind": "ct",
            "times": sig.times.tolist(),
            "values": sig.values.tolist(),
            "interpolation": sig.interpolation,
        }
    return json.dumps(doc, indent=2) + "\n"


def serialize_transform(T: np.ndarray, Pi: np.ndarray, o: int, minimality=None) -> str:
    """Sidecar document for a reduction: full transform, projection, dimension."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "o": int(o),
        "T": _matrix_doc(np.asarray(T, dtype=float)),
        "Pi": _matrix_doc(np.asarray(Pi, dtype=float)),
        "minimality": minimality,
    }
    return json.dumps(doc, indent=2) + "\n"


def _time_column(traj: Trajectory) -> np.ndarray:
    if traj.x.domain == TimeDomain.DT:
        return np.arange(traj.x.n_samples, dtype=float)
    return traj.times


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV export with 17 significant digits (lossless double round-trip)."""
    header = (
        ["t"]
        + [f"x{i}" for i in range(traj.x.dim)]
        + [f"y{i}" for i in range((traj.y.dim))]
    )
    lines = [",".join(header)]
    times = _time_column(traj)
    for k in range(traj.x.n_samples):
        row = [times[k], *traj.x.values[k], *traj.y.values[k]]
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj: Trajectory) -> dict:
    return {
        "domain": traj.x.domain.value,
        "times": _time_column(traj).tolist(),
        "x": traj.x.values.tolist(),
        "y": traj.y.values.tolist(),
    }
