"""Command-line interface exposing the library over JSON documents.

Exit codes: 0 when the command ran to completion (verdicts do not change
the exit code), 2 on input errors.  Output paths are checked before any
work, and output files appear only whole, once every one is written; a
command that fails prints no result and leaves no file.  Every rank
decision runs through the polynomial-time observability kernel, so no
command builds a capped matrix.  Every command is deterministic given its files and flags.
Machine-readable output (``--json``) is strict JSON (a number that is not
finite is ``null``) and carries the payload's ``schema_version``, the tool
version and the tolerances that ran: the rank floor and the singularity
floor, both constants (``1e-10`` relative, see :mod:`~lpvssa.analysis`).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys as _sys
import warnings
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    ITERATION_RTOL,
    SINGULARITY_RTOL,
    check_rc,
    find_revealing_scheduling,
    is_observable,
    is_span_reachable_from_zero,
)
from .core import LpvSsa, TimeDomain
from .equivalence import behavior_equivalence_empirical, find_isomorphism
from .errors import InputError
from .io import (
    parse_signal,
    parse_system,
    serialize_signal,
    serialize_system,
    serialize_transform,
    trajectory_to_csv,
    trajectory_to_json,
)
from .reduction import minimize as _minimize_op
from .signals import Signal
from .simulation import _check_window, simulate_ct, simulate_dt

# version of the --json payload layout (not of the documents, io.SCHEMA_VERSION);
# it changes whenever a payload key is added, removed or renamed
PAYLOAD_SCHEMA_VERSION = "3"


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            _echo(f"error: {exc}", err=True)
            _sys.exit(2)

    return wrapper


def _read_text(path) -> str:
    """A document's text; JSON text is UTF-8 (RFC 8259), whatever the locale."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})")


@contextlib.contextmanager
def _output_files(*paths):
    """Write the output ``paths`` whole, and only after every one is written.

    A temporary file is created beside each path on entry, before the
    command computes or prints anything, so an unwritable path is an
    InputError up front.  The body calls the yielded ``write(*texts)``
    (one text per path) once its results are ready: every text goes to
    its temporary file first, then each file is moved onto its path with
    ``os.replace``.  Temporary files left over (an error, or no call) are
    removed on exit.
    """
    paths = [Path(path) for path in paths]
    temps = []

    def attempt(path, action, *args):
        try:
            return action(*args)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror or exc}")

    def write(*texts):
        for tmp, text, path in zip(temps, texts, paths):
            attempt(path, tmp.write_text, text)
        for tmp, path in zip(temps, paths):
            attempt(path, os.replace, tmp, path)

    try:
        for path in paths:
            tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
            attempt(path, tmp.open, "x").close()  # a new file's default mode, unlike mkstemp
            temps.append(tmp)
        yield write
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def _read_system(path) -> LpvSsa:
    return parse_system(_read_text(path))


def _finite(obj):
    """``obj`` with numpy arrays as lists and every number that is not finite as None."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, np.ndarray)):
        return [_finite(value) for value in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _dumps(payload) -> str:
    """Strict JSON text of a payload (numpy scalars become numbers)."""
    return json.dumps(
        _finite(payload), indent=2, allow_nan=False, default=lambda obj: obj.tolist()
    )


def _echo(message: str, *, nl: bool = True, err: bool = False) -> None:
    """``click.echo`` to the current ``sys.stdout`` (``sys.stderr`` with ``err``).

    Without ``file``, click caches a text wrapper per stream object, and
    the cache entry keeps that stream alive: a caller that runs commands
    in one process with a fresh ``sys.stdout`` each time would keep every
    output buffer.
    """
    click.echo(message, file=_sys.stderr if err else _sys.stdout, nl=nl)


def _emit_json(payload: dict) -> None:
    _echo(_dumps(payload))


def _base_payload(command: str) -> dict:
    """Schema version, tool version, command and the two relative floors."""
    return {
        "schema_version": PAYLOAD_SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "tolerances": {"rank_rtol_used": ITERATION_RTOL, "singularity_rtol": SINGULARITY_RTOL},
    }


def _rc_payload(rc) -> dict:
    return {
        "dt_invertibility": rc.dt_invertibility,
        "holds": rc.holds,
        "witness": rc.witness,
        "det_poly_1d": rc.det_poly_1d,
        "boxes": rc.boxes,
        "sigma_min_bound": rc.sigma_min_bound,
        "box": rc.box,
    }


def _rc_text(rc) -> str:
    if rc.dt_invertibility == "not-applicable":
        return "regularity: satisfied (CT; box region is convex with interior)"
    if rc.dt_invertibility == "certified":
        return (
            f"regularity: certified (sigma_min(A(p)) >= {rc.sigma_min_bound:.6g} "
            f"on the region by Weyl's bound; boxes visited: {rc.boxes})"
        )
    if rc.dt_invertibility == "undecided":
        return (
            f"regularity: undecided (sigma_min lower bound {rc.sigma_min_bound:.6g} on "
            f"the box {_point(rc.box[0])} .. {_point(rc.box[1])}; boxes visited: "
            f"{rc.boxes}; not a certificate)"
        )
    return f"regularity: refuted, witness p* = {_point(rc.witness)}"


def _point(p) -> str:
    """A scheduling point with every digit, so it can be checked again."""
    return "[" + ", ".join(repr(float(v)) for v in p) + "]"


_json_option = click.option(
    "--json", "as_json", is_flag=True, help="Machine-readable output."
)


@click.group()
@click.version_option(__version__, prog_name="lpvssa")
def main():
    """Analysis, minimization, and simulation of affine LPV state-space systems."""


@main.command()
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@_json_option
@_guard
def check(system_file, as_json):
    """Observability, span-reachability, and regularity report."""
    sys_ = _read_system(system_file)
    obs, obs_dec = is_observable(sys_)
    reach, reach_dec = is_span_reachable_from_zero(sys_)
    rc = check_rc(sys_)
    if as_json:
        payload = _base_payload("check")
        payload["tolerances"]["observability_tolerance_used"] = obs_dec.tolerance_used
        payload["tolerances"]["reachability_tolerance_used"] = reach_dec.tolerance_used
        payload.update(
            {
                "n_x": sys_.n_x,
                "observable": obs,
                "observability_rank": obs_dec.rank,
                "observability_singular_values": obs_dec.singular_values,
                "span_reachable_from_zero": reach,
                "reachability_rank": reach_dec.rank,
                "reachability_singular_values": reach_dec.singular_values,
                "rc": _rc_payload(rc),
            }
        )
        _emit_json(payload)
        return
    _echo(f"observable: {'yes' if obs else 'no'} (rank {obs_dec.rank}/{sys_.n_x})")
    _echo(
        f"span-reachable from zero: {'yes' if reach else 'no'} "
        f"(rank {reach_dec.rank}/{sys_.n_x})"
    )
    _echo(_rc_text(rc))


@main.command()
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Reduced system document.")
@click.option(
    "--transform-out",
    type=click.Path(dir_okay=False),
    default=None,
    help="Transform sidecar path [default: OUT with a .transform.json suffix].",
)
@_json_option
@_guard
def minimize(system_file, out, transform_out, as_json):
    """Observability reduction; minimal realization under regularity."""
    sys_ = _read_system(system_file)
    out_path = Path(out)
    sidecar = (
        Path(transform_out)
        if transform_out
        else out_path.with_name(out_path.stem + ".transform.json")
    )
    with _output_files(out_path, sidecar) as write:
        result = _minimize_op(sys_)
        write(
            serialize_system(result.reduced),
            serialize_transform(
                result.transform_T, result.projection_Pi, result.o, result.minimality
            ),
        )
    if as_json:
        payload = _base_payload("minimize")
        payload.update(
            {
                "input_dimension": sys_.n_x,
                "reduced_dimension": result.o,
                "minimality": result.minimality,
                "rc": _rc_payload(result.rc),
                "out": str(out_path),
                "transform_out": str(sidecar),
            }
        )
        _emit_json(payload)
        return
    _echo(f"reduced dimension: {result.o} (from {sys_.n_x})")
    _echo(f"status: {result.minimality}")
    _echo(_rc_text(result.rc))
    _echo(f"wrote {out_path} and {sidecar}")


@main.command()
@click.argument("file1", type=click.Path(exists=True, dir_okay=False))
@click.argument("file2", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", default=1e-8, show_default=True, help="Residual tolerance.")
@_json_option
@_guard
def iso(file1, file2, tol, as_json):
    """Isomorphism between two systems of equal dimension."""
    r = find_isomorphism(_read_system(file1), _read_system(file2), tol=tol)
    if as_json:
        payload = _base_payload("iso")
        payload["tolerances"]["iso_tol"] = tol
        payload.update(
            {
                "verdict": r.verdict,
                "residual": r.residual,
                "obstruction": r.obstruction,
                "condition_number": r.condition_number,
                "T": r.T,
            }
        )
        _emit_json(payload)
        return
    _echo(f"verdict: {r.verdict}")
    _echo(f"residual: {r.residual:.3e}")
    if r.obstruction:
        _echo(f"obstruction: {r.obstruction}")
    if r.T is not None:
        _echo("T =")
        _echo(np.array2string(r.T, precision=12, suppress_small=True))


@main.command()
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--x0", default=None, help="Comma-separated initial state [default: origin].")
@click.option("--u", "u_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Input signal document [default: zero input].")
@click.option("--p", "p_file", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Scheduling signal document.")
@click.option("--horizon", required=True, type=float, help="Steps (DT) or end time (CT).")
@click.option("--step", default=1e-3, show_default=True, help="CT integrator step.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Trajectory file (.csv or .json by extension) [default: CSV to stdout].")
@_json_option
@_guard
def simulate(system_file, x0, u_file, p_file, horizon, step, out, as_json):
    """Simulate a trajectory under given input and scheduling signals."""
    sys_ = _read_system(system_file)
    p = parse_signal(_read_text(p_file))
    if x0 is None:
        x0_vec = np.zeros(sys_.n_x)
    else:
        try:
            x0_vec = np.array([float(s) for s in x0.split(",")], dtype=float)
        except ValueError:
            raise InputError(f"cannot parse --x0 {x0!r} as comma-separated floats")
    _check_window(sys_.domain, horizon, step)  # the default input needs a valid horizon
    with _output_files(*[out] if out else []) as write:
        if sys_.domain == TimeDomain.DT:
            n_steps = int(horizon)
            u = (
                parse_signal(_read_text(u_file))
                if u_file
                else Signal.dt(np.zeros((n_steps + 1, sys_.n_u)))
            )
            traj = simulate_dt(sys_, x0_vec, u, p, n_steps)
        else:
            u = (
                parse_signal(_read_text(u_file))
                if u_file
                else Signal.ct_constant(np.zeros(sys_.n_u), horizon)
            )
            traj = simulate_ct(sys_, x0_vec, u, p, horizon, step)
        if out:
            if Path(out).suffix.lower() == ".json":
                write(_dumps(trajectory_to_json(traj)) + "\n")
            else:
                write(trajectory_to_csv(traj))
    if out:
        _echo(f"wrote {out}")
        return
    if as_json:
        payload = _base_payload("simulate")
        payload["trajectory"] = trajectory_to_json(traj)
        _emit_json(payload)
        return
    _echo(trajectory_to_csv(traj), nl=False)


@main.command()
@click.argument("file1", type=click.Path(exists=True, dir_okay=False))
@click.argument("file2", type=click.Path(exists=True, dir_okay=False))
@click.option("--trials", default=20, show_default=True)
@click.option("--horizon", default=None, type=float, help="[default: 20 steps DT / 2.0 CT]")
@click.option("--seed", default=0, show_default=True)
@click.option("--tol", default=None, type=float, help="[default: 1e-6 DT / 1e-4 CT]")
@click.option("--step", default=1e-2, show_default=True, help="CT integrator step.")
@_json_option
@_guard
def equiv(file1, file2, trials, horizon, seed, tol, step, as_json):
    """Empirical behavior-equivalence test between two systems."""
    report = behavior_equivalence_empirical(
        _read_system(file1),
        _read_system(file2),
        trials=trials,
        horizon=horizon,
        seed=seed,
        tol=tol,
        step=step,
    )
    if as_json:
        payload = _base_payload("equiv")
        payload["tolerances"]["equiv_tol"] = report.tolerance
        payload.update(
            {
                "passed": report.passed,
                "max_residual": report.max_residual,
                "trials": report.trials,
                "horizon": report.horizon,
                "seed": report.seed,
                "residuals": report.residuals,
                "rc_sys1": _rc_payload(report.rc_sys1),
                "rc_sys2": _rc_payload(report.rc_sys2),
                "note": report.note,
            }
        )
        _emit_json(payload)
        return
    _echo(
        f"behavior equivalence: {'PASS' if report.passed else 'FAIL'} "
        f"(max residual {report.max_residual:.3e} vs tolerance {report.tolerance:.1e}, "
        f"{report.trials} trials, horizon {report.horizon})"
    )
    for name, rc in (("system 1", report.rc_sys1), ("system 2", report.rc_sys2)):
        _echo(f"{name} {_rc_text(rc)}")
    _echo(f"note: {report.note}")


@main.command()
@click.argument("system_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--trials", default=50, show_default=True)
@click.option("--window", required=True, type=float, help="Steps (DT) or end time (CT).")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the found scheduling signal document here.")
@_json_option
@_guard
def reveal(system_file, trials, window, seed, out, as_json):
    """Search for a scheduling signal revealing the state on a window."""
    sys_ = _read_system(system_file)
    with _output_files(*[out] if out else []) as write:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            found = find_revealing_scheduling(sys_, trials, window, seed)
        if found and out:
            write(serialize_signal(found[0]))
    diagnostics = [str(w.message) for w in caught]
    if as_json:
        payload = _base_payload("reveal")
        payload.update(
            {
                "found": found is not None,
                "window": window,
                "trials": trials,
                "seed": seed,
                "diagnostics": diagnostics,
                "scheduling": (
                    json.loads(serialize_signal(found[0])) if found else None
                ),
            }
        )
        _emit_json(payload)
    else:
        for msg in diagnostics:
            _echo(f"diagnostic: {msg}")
        if found is None:
            _echo("no revealing scheduling found")
        else:
            _echo(f"found a revealing scheduling on window {found[1]}")
    if found and out:
        _echo(f"wrote {out}", err=as_json)


if __name__ == "__main__":
    main()
