"""Command-line interface exposing the library over JSON documents.

One standard-library ``argparse`` parser, built once at import, reads
the command line, and results are printed to ``sys.stdout``.
Exit codes: 0 when the command ran to completion (verdicts do not change
the exit code), 2 on input errors and on usage errors (an unknown command
or option, a missing argument, a value of the wrong type), each reported
as one ``error: …`` line on stderr.  Output paths are checked before any
work (an existing directory is refused), and output files appear only
whole, once every one is written; a command that fails prints no result
and leaves no file.  Every rank decision runs through the polynomial-time
observability kernel, so no command builds a capped matrix.  Every
command is deterministic given its files and flags.
Machine-readable output (``--json``) is strict JSON (a number that is not
finite is ``null``) and carries the payload's ``schema_version``, the tool
version and the tolerances that ran: the rank floor and the singularity
floor, both constants (``1e-10`` relative, see :mod:`~lpvssa.analysis`).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys as _sys
import warnings
from pathlib import Path

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
    json_text,
    parse_signal,
    parse_system,
    serialize_signal,
    serialize_system,
    serialize_transform,
    signal_document,
    trajectory_to_csv,
    trajectory_to_json,
)
from .reduction import minimize as _minimize_op
from .signals import Signal
from .simulation import _check_window, simulate_ct, simulate_dt

# version of the --json payload layout (not of the documents, io.SCHEMA_VERSION);
# it changes whenever a payload key is added, removed or renamed
PAYLOAD_SCHEMA_VERSION = "3"


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

    On entry, before the command computes or prints anything, a path that
    is an existing directory is refused and a temporary file is created
    beside each path, so an unwritable path is an InputError up front.
    The body calls the yielded ``write(*texts)`` (one text per path) once
    its results are ready: every text goes through the open handle of its
    temporary file, then each file is moved onto its path with
    ``os.replace``.  Temporary files left over (an error, or no call) are
    removed on exit.
    """
    paths = [Path(path) for path in paths]
    temps = []  # (temporary path, its open handle)

    def attempt(path, action, *args):
        try:
            return action(*args)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror or exc}")

    def write(*texts):
        for (_, handle), text, path in zip(temps, texts, paths):
            attempt(path, handle.write, text)
            attempt(path, handle.close)
        for (tmp, _), path in zip(temps, paths):
            attempt(path, os.replace, tmp, path)

    try:
        for path in paths:
            if path.is_dir():
                raise InputError(f"cannot write {path}: Is a directory")
            tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
            temps.append((tmp, attempt(path, tmp.open, "x")))  # a new file's default mode, unlike mkstemp
        yield write
    finally:
        for tmp, handle in temps:
            with contextlib.suppress(OSError):  # after a failed write the flush fails too
                handle.close()
            tmp.unlink(missing_ok=True)


def _read_system(path) -> LpvSsa:
    return parse_system(_read_text(path))


def _echo(message: str, *, nl: bool = True, err: bool = False) -> None:
    """Print to the current ``sys.stdout`` (``sys.stderr`` with ``err``) and flush it.

    The stream is looked up at each call, so a caller may swap it between
    commands run in one process; the flush keeps the two streams in the
    order they were written when they share one terminal or pipe.
    """
    print(message, end="\n" if nl else "", file=_sys.stderr if err else _sys.stdout, flush=True)


def _emit_json(payload: dict) -> None:
    _echo(json_text(payload))


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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors print the usage line and ``error: …``, exit 2."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        _echo(f"error: {message}", err=True)
        _sys.exit(2)


_PARSER = _Parser(
    prog="lpvssa",
    description="Analysis, minimization, and simulation of affine LPV state-space systems.",
    add_help=False,
    allow_abbrev=False,
)
_PARSER.add_argument("--version", action="version", version=f"lpvssa, version {__version__}",
                     help="Show the version and exit.")
_PARSER.add_argument("--help", action="help", help="Show this message and exit.")
_COMMANDS = _PARSER.add_subparsers(dest="command", metavar="COMMAND", required=True)
_VALUED = {}  # command name -> its option strings that take a value


def _arg(*names, **kwargs):
    return names, kwargs


def _command(*arguments):
    """Register the decorated function as the command of its name.

    ``arguments`` are ``_arg(...)`` calls, passed on to ``add_argument``;
    every command also takes ``--json`` (``as_json``) and ``--help``.
    """

    def register(fn):
        parser = _COMMANDS.add_parser(
            fn.__name__, help=fn.__doc__, description=fn.__doc__, add_help=False,
            allow_abbrev=False,
        )
        valued = _VALUED[fn.__name__] = set()
        for names, kwargs in arguments:
            if names[0].startswith("--"):
                valued.update(names)
            else:
                kwargs = {"metavar": names[0].upper(), **kwargs}
            parser.add_argument(*names, **kwargs)
        parser.add_argument("--json", dest="as_json", action="store_true",
                            help="Machine-readable output.")
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        parser.set_defaults(run=fn)
        return fn

    return register


def _joined(args):
    """``--name value`` as ``--name=value`` for each option of the command that takes a value.

    So a value that starts with ``-`` (``--x0 -1,0``, ``--tol -1e-3``)
    stays a value; ``argparse`` alone would read it as an option.  The
    command is the first argument that names one: the program's own
    options take no value.  Nothing after ``--`` is joined.
    """
    valued = None
    args = iter(args)
    for arg in args:
        if arg == "--":
            yield arg
            yield from args
        elif valued is None:
            valued = _VALUED.get(arg)
            yield arg
        elif arg in valued:
            value = next(args, None)
            yield arg if value is None else f"{arg}={value}"
        else:
            yield arg


def main(args=None, *, prog_name="lpvssa", standalone_mode=True):
    """Run the command line ``args`` (default: ``sys.argv[1:]``).

    Returns when the command ran, and exits with code 2 on an input or
    usage error, with one ``error: …`` line on stderr.  ``prog_name`` and
    ``standalone_mode`` do nothing: the program is always named
    ``lpvssa``, and every call returns, or exits on an error, alike.  They
    stay because ``bench/workloads.py`` calls ``main(args,
    standalone_mode=False, prog_name="lpvssa")``, and go with the next
    change to the benchmark.
    """
    ns, extra = _PARSER.parse_known_args(list(_joined(_sys.argv[1:] if args is None else args)))
    if extra:
        _COMMANDS.choices[ns.command].error(f"unrecognized arguments: {' '.join(extra)}")
    kwargs = vars(ns)
    del kwargs["command"]
    try:
        kwargs.pop("run")(**kwargs)
    except InputError as exc:
        _echo(f"error: {exc}", err=True)
        _sys.exit(2)


_SYSTEM_FILE = _arg("system_file")


@_command(_SYSTEM_FILE)
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


@_command(
    _SYSTEM_FILE,
    _arg("--out", required=True, help="Reduced system document."),
    _arg("--transform-out",
         help="Transform sidecar path [default: OUT with a .transform.json suffix]."),
)
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


_FILES = (_arg("file1"), _arg("file2"))


@_command(
    *_FILES,
    _arg("--tol", type=float, default=1e-8, help="Residual tolerance. [default: %(default)s]"),
)
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


@_command(
    _SYSTEM_FILE,
    _arg("--x0", help="Comma-separated initial state [default: origin]."),
    _arg("--u", dest="u_file", help="Input signal document [default: zero input]."),
    _arg("--p", dest="p_file", required=True, help="Scheduling signal document."),
    _arg("--horizon", type=float, required=True, help="Steps (DT) or end time (CT)."),
    _arg("--step", type=float, default=1e-3, help="CT integrator step. [default: %(default)s]"),
    _arg("--out", help="Trajectory file (.csv or .json by extension) [default: CSV to stdout]."),
)
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
                write(json_text(trajectory_to_json(traj)) + "\n")
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


@_command(
    *_FILES,
    _arg("--trials", type=int, default=20, help="[default: %(default)s]"),
    _arg("--horizon", type=float, help="[default: 20 steps DT / 2.0 CT]"),
    _arg("--seed", type=int, default=0, help="[default: %(default)s]"),
    _arg("--tol", type=float, help="[default: 1e-6 DT / 1e-4 CT]"),
    _arg("--step", type=float, default=1e-2, help="CT integrator step. [default: %(default)s]"),
)
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


@_command(
    _SYSTEM_FILE,
    _arg("--trials", type=int, default=50, help="[default: %(default)s]"),
    _arg("--window", type=float, required=True, help="Steps (DT) or end time (CT)."),
    _arg("--seed", type=int, default=0, help="[default: %(default)s]"),
    _arg("--out", help="Write the found scheduling signal document here."),
)
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
                "scheduling": signal_document(found[0]) if found else None,
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
