"""The three workloads: inputs made from the seed, timed calls, and oracles.

A workload is a fixed list of operations (one round).  Each operation has
a homogeneous *kind* (one command or function, one domain, one size
class), a call that is timed, an oracle that checks its output, and a
count of the work units it completed.  Sizes never depend on the seed;
only the values drawn for matrices, signals and initial states do.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

import oracles as orc
import systems as sysgen
from oracles import close, require


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]  # raises OracleError on a wrong output
    units: Callable[[Any], int]


@dataclass
class Workload:
    name: str
    ops: list
    docs: list  # paths of the system documents loaded at set-up
    unit: str


class Context:
    """What the workloads need from the library and the run directory.

    ``span`` opens a named span around an in-process CLI command; it does
    nothing until a tracer replaces it.
    """

    def __init__(self, workdir, lpvssa_modules):
        self.workdir = workdir
        self.m = lpvssa_modules  # name -> module, so the tracer can swap functions
        self.span = lambda name: contextlib.nullcontext()

    def cli(self, args):
        """Run one CLI command in this process and return its standard output."""
        buf = io.StringIO()
        with self.span("cli." + args[0]), contextlib.redirect_stdout(buf):
            try:
                self.m["cli"].main(args, standalone_mode=False, prog_name="lpvssa")
            except SystemExit as exc:
                if exc.code:
                    raise RuntimeError(f"lpvssa {args[0]} exited with {exc.code}") from None
        return buf.getvalue()

    def write_doc(self, name, plant):
        path = self.workdir / (name.replace("/", "_") + ".json")
        path.write_text(self.m["io"].serialize_system(plant.to_lpvssa()))
        return path

    def load(self, path):
        return self.m["io"].parse_system(path.read_text())


# ---------------------------------------------------------------- simulate

DT_STEPS = 4000
CT_END, CT_STEP, CT_SEGMENTS = 10.0, 1e-2, 20


def build_simulate(ctx, seed):
    rng = np.random.default_rng([seed, 1])
    sig, sim = ctx.m["signals"], ctx.m["simulation"]
    ops, docs = [], []

    def make(name, n_x, domain):
        plant = sysgen.random_plant(
            rng, n_x, 2, domain,
            shift=0.0 if domain == "dt" else -0.5, a_norm=0.9 if domain == "dt" else 1.0,
        )
        path = ctx.write_doc(name, plant)
        docs.append(path)
        return plant, ctx.load(path), rng.standard_normal(n_x)

    def dt_op(kind, n_x, response_only):
        plant, sys_, x0 = make(kind, n_x, "dt")
        p_vals = rng.uniform(-1, 1, (DT_STEPS + 1, 2))
        u_vals = rng.standard_normal((DT_STEPS + 1, 1))
        p, u = sig.Signal.dt(p_vals), sig.Signal.dt(u_vals)

        def check(out):
            xs, ys = orc.dt_reference(plant, x0, u_vals, p_vals, DT_STEPS)
            if response_only:
                close(out.values, ys, 1e-9, "output")
            else:
                close(out.x.values, xs, 1e-9, "state")
                close(out.y.values, ys, 1e-9, "output")

        def call():  # look functions up at call time, so a tracer can wrap them
            if response_only:
                return sim.io_response(sys_, x0, u, p, DT_STEPS)
            return sim.simulate_dt(sys_, x0, u, p, DT_STEPS)

        ops.append(Op(kind, call, check, lambda out: DT_STEPS))

    def ct_op(kind, n_x, interp, response_only):
        plant, sys_, x0 = make(kind, n_x, "ct")
        if interp == sig.PIECEWISE_CONSTANT:
            times = np.linspace(0.0, CT_END, CT_SEGMENTS, endpoint=False)
            reference = orc.ct_pwc_reference
        else:
            times = np.linspace(0.0, CT_END, CT_SEGMENTS + 1)
            reference = orc.ct_pwl_reference
        p_vals = rng.uniform(-1, 1, (times.size, 2))
        u_vals = rng.standard_normal((times.size, 1))
        p = sig.Signal.ct(times, p_vals, interp)
        u = sig.Signal.ct(times, u_vals, interp)
        tol = orc.rk4_tolerance(plant, CT_END, CT_STEP)

        def call():
            if response_only:
                return sim.io_response(sys_, x0, u, p, CT_END, step=CT_STEP)
            return sim.simulate_ct(sys_, x0, u, p, CT_END, CT_STEP)

        def check(out):
            y = out if response_only else out.y
            mesh = np.asarray(y.times)
            orc.check_mesh(mesh, CT_END, CT_STEP, times)
            xs, ys = reference(plant, x0, mesh, (times, p_vals), (times, u_vals))
            if not response_only:
                close(out.x.values, xs, tol, "state")
            close(y.values, ys, tol, "output")

        def steps(out):
            return (out if response_only else out.y).n_samples - 1

        ops.append(Op(kind, call, check, steps))

    pwc, pwl = sig.PIECEWISE_CONSTANT, sig.PIECEWISE_LINEAR
    dt_op("simulate_dt/nx4", 4, False)
    dt_op("simulate_dt/nx8", 8, False)
    ct_op("simulate_ct/pwc/nx4", 4, pwc, False)
    ct_op("simulate_ct/pwc/nx8", 8, pwc, False)
    ct_op("simulate_ct/pwl/nx4", 4, pwl, False)
    ct_op("simulate_ct/pwl/nx8", 8, pwl, False)
    dt_op("io_response/dt/nx6", 6, True)
    ct_op("io_response/ct_pwl/nx6", 6, pwl, True)
    return Workload("simulate", ops, docs, "simulated steps")


# ----------------------------------------------------------------- realize

# (document, domain, n_p, n_x, planted unobservable dim, planted unreachable dim, iso pair)
REALIZE_LADDER = [
    ("dt_np1_nx4", "dt", 1, 4, 0, 0, True),
    ("dt_np1_nx12_unobs3", "dt", 1, 12, 3, 0, False),
    ("dt_np2_nx12", "dt", 2, 12, 0, 0, True),
    ("dt_np2_nx8_unreach2", "dt", 2, 8, 0, 2, False),
    ("dt_np3_nx6", "dt", 3, 6, 0, 0, True),
    ("dt_np3_nx8_unobs2", "dt", 3, 8, 2, 0, False),
    ("ct_np1_nx8", "ct", 1, 8, 0, 0, True),
    ("ct_np2_nx10_unobs2", "ct", 2, 10, 2, 0, False),
    ("ct_np2_nx6_unreach2", "ct", 2, 6, 0, 2, False),
    ("ct_np3_nx12", "ct", 3, 12, 0, 0, True),
    ("ct_np3_nx4_unobs1", "ct", 3, 4, 1, 0, False),
]
DT_SHIFT, DT_A_NORM = 1.0, 0.5  # sigma_min(A(p)) >= 0.5 on the whole box
CT_SHIFT, CT_A_NORM = -0.5, 1.0

_CHECK_LINE = re.compile(r"^(observable|span-reachable from zero): (yes|no) \(rank (\d+)/(\d+)\)$")


def _read_doc(text):
    """The benchmark's own reading of a system document (shape + row-major data)."""
    doc = json.loads(text)

    def mats(key):
        return [np.array(m["data"], dtype=float).reshape(m["shape"]) for m in doc[key]]

    return sysgen.Plant(
        mats("A"), mats("B"), mats("C"), mats("D"),
        np.array(doc["region"]["lower"]), np.array(doc["region"]["upper"]), doc["domain"],
    )


def _regularity_holds(plant):
    """Known truth about DT invertibility of ``A(p)`` on the region, or None."""
    if plant.domain == "ct":
        return True
    if plant.meta.get("shift", 0.0) > plant.meta.get("a_norm", np.inf):
        return True  # sigma_min(A(p)) >= shift - a_norm > 0
    line = plant.meta.get("singular_at")
    if line is not None:
        require(orc.is_singular(plant.at("A", line)), "fixture: A(p*) should be singular")
        return False
    return None


def _check_witness(plant, witness):
    w = np.atleast_1d(np.asarray(witness, dtype=float))
    require(orc.is_singular(plant.at("A", w)), f"witness {w} is not singular by our SVD")


def _same_output_from_projection(plant, reduced, Pi, rng):
    """Original from ``x0`` and reduced from ``Pi x0`` give one output."""
    x0 = rng.standard_normal(plant.n_x)
    if plant.domain == "dt":
        n = 15
        p_vals = rng.uniform(plant.lower, plant.upper, (n + 1, plant.n_p))
        u_vals = rng.standard_normal((n + 1, plant.B[0].shape[1]))
        _, y = orc.dt_reference(plant, x0, u_vals, p_vals, n)
        _, y_red = orc.dt_reference(reduced, Pi @ x0, u_vals, p_vals, n)
    else:
        times = np.linspace(0.0, 1.0, 4, endpoint=False)
        p_vals, u_vals = sysgen.pwc_values(rng, plant, times.size)
        mesh = np.linspace(0.0, 1.0, 21)
        sigs = ((times, p_vals), (times, u_vals))
        _, y = orc.ct_pwc_reference(plant, x0, mesh, *sigs)
        _, y_red = orc.ct_pwc_reference(reduced, Pi @ x0, mesh, *sigs)
    close(y_red, y, 1e-8, "reduced output from Pi x0")


def build_realize(ctx, seed):
    rng = np.random.default_rng([seed, 2])
    ops, docs = [], []

    def add_doc(name, plant):
        path = ctx.write_doc(name, plant)
        docs.append(path)
        ctx.load(path)  # reject a bad document at set-up, not in the timed loop
        return path

    def check_op(kind, plant, path, expect_ranks=True):
        n = plant.n_x

        def check(text):
            lines = text.splitlines()
            for line, planted in zip(lines[:2], ("unobs", "unreach")):
                m = _CHECK_LINE.match(line)
                require(m is not None, f"unexpected line {line!r}")
                verdict, rank, total = m.group(2) == "yes", int(m.group(3)), int(m.group(4))
                require(total == n, f"{line!r}: state dimension {total} != {n}")
                require(verdict == (rank == n), f"{line!r}: verdict contradicts the rank")
                if expect_ranks:
                    want = n - plant.meta[planted]
                    require(rank == want, f"{line!r}: planted rank is {want}")
            rc = lines[2]
            holds = _regularity_holds(plant)
            if "refuted" in rc:
                _check_witness(plant, re.findall(r"[-+.\deE]+", rc.split("p* = ")[1]))
            require(holds is not True or "refuted" not in rc, f"{rc!r} on a regular system")
            require(holds is not False or "refuted" in rc, f"{rc!r} on a singular system")

        ops.append(Op(kind, partial(ctx.cli, ["check", str(path)]), check, lambda _: 1))

    def minimize_op(kind, plant, path):
        out = path.with_name(path.stem + ".min.json")
        sidecar = path.with_name(path.stem + ".min.transform.json")
        check_rng_seed = int(rng.integers(2**31))

        def call():  # the written documents are part of the output
            return ctx.cli(args), out.read_text(), sidecar.read_text()

        def check(texts):
            payload = json.loads(texts[0])
            o = plant.n_x - plant.meta.get("unobs", 0)
            require(payload["input_dimension"] == plant.n_x, "input dimension")
            require(payload["reduced_dimension"] == o, f"reduced dimension {payload['reduced_dimension']} != {o}")
            holds = _regularity_holds(plant)
            rc = payload["rc"]
            if rc["witness"] is not None:
                _check_witness(plant, rc["witness"])
            if holds is not None:
                require(rc["holds"] == holds, f"regularity {rc['dt_invertibility']} but truth is {holds}")
                claim = "minimal (behavioral)" if holds else "observable reduction only"
                require(payload["minimality"] == claim, f"claims {payload['minimality']!r}")
            reduced = _read_doc(texts[1])
            require(reduced.n_x == o, "reduced document dimension")
            Pi = np.array(json.loads(texts[2])["Pi"]["data"]).reshape(o, plant.n_x)
            _same_output_from_projection(
                plant, reduced, Pi, np.random.default_rng(check_rng_seed)
            )

        args = ["minimize", str(path), "--out", str(out), "--json"]
        ops.append(Op(kind, call, check, lambda _: 1))

    def iso_op(kind, path, conj_path, T):
        def check(text):
            payload = json.loads(text)
            require(payload["verdict"] == "isomorphic", f"verdict {payload['verdict']!r}")
            close(np.array(payload["T"]), T, 1e-6, "recovered T")

        args = ["iso", str(path), str(conj_path), "--json"]
        ops.append(Op(kind, partial(ctx.cli, args), check, lambda _: 1))

    for name, domain, n_p, n_x, unobs, unreach, iso in REALIZE_LADDER:
        shift, a_norm = (DT_SHIFT, DT_A_NORM) if domain == "dt" else (CT_SHIFT, CT_A_NORM)
        plant = sysgen.random_plant(
            rng, n_x, n_p, domain, unobs=unobs, unreach=unreach, shift=shift, a_norm=a_norm
        )
        path = add_doc(name, plant)
        check_op(f"check/{name}", plant, path)
        minimize_op(f"minimize/{name}", plant, path)
        if iso:
            T = sysgen.random_invertible(rng, n_x)
            conj = add_doc(name + "_conj", sysgen.conjugate(plant, T))
            iso_op(f"iso/{name}", path, conj, T)

    # Two seed-independent fixtures that fail today (see the benchmark README).
    near = sysgen.near_unobservable()
    check_op("near_unobservable_check", near, add_doc("near_unobservable", near),
             expect_ranks=False)
    line = sysgen.singular_line()
    line.meta["singular_at"] = np.array([sysgen.SINGULAR_LINE_P1, 0.5])
    minimize_op("singular_line_rc", line, add_doc("singular_line", line))
    return Workload("realize", ops, docs, "CLI verdicts")


# ------------------------------------------------------------- equivalence

EQ_DT_WINDOW = 20
EQ_CT_WINDOW, EQ_CT_STEP, EQ_CT_SEGMENTS = 2.0, 1e-2, 8
BEE_TRIALS = {"dt": 8, "ct": 2}
BATCH = {"dt": 8, "ct": 2}  # windows per match / reveal operation
REVEAL_TRIALS = 5


def build_equivalence(ctx, seed):
    rng = np.random.default_rng([seed, 3])
    eqv, ana, sig = ctx.m["equivalence"], ctx.m["analysis"], ctx.m["signals"]
    ops, docs = [], []
    bee_seed = int(rng.integers(2**31))

    def load(name, plant):
        path = ctx.write_doc(name, plant)
        docs.append(path)
        return ctx.load(path)

    def shape(domain):
        return dict(shift=0.0, a_norm=0.9) if domain == "dt" else dict(shift=-0.5, a_norm=1.0)

    def bee_ops(domain):
        plant = sysgen.random_plant(rng, 6, 2, domain, unobs=2, **shape(domain))
        minimal_plant = plant.meta["observable_part"]
        perturbed_plant = sysgen.perturb_output(rng, plant)
        full = load(f"{domain}_full", plant)
        minimal = load(f"{domain}_minimal", minimal_plant)
        perturbed = load(f"{domain}_perturbed", perturbed_plant)
        trials = BEE_TRIALS[domain]
        horizon = EQ_DT_WINDOW if domain == "dt" else EQ_CT_WINDOW

        def call(other):
            return eqv.behavior_equivalence_empirical(
                full, other, trials=trials, horizon=horizon, seed=bee_seed, step=EQ_CT_STEP
            )

        def check(report, other_plant, equal):
            require(report.residuals.shape == (trials, 2), "one residual pair per trial")
            require(report.passed == equal, f"passed={report.passed}, max residual {report.max_residual:.3e}")
            for rc, pl in ((report.rc_sys1, plant), (report.rc_sys2, other_plant)):
                if rc.witness is not None:
                    _check_witness(pl, rc.witness)

        for label, other, other_plant, equal in (
            ("minimal", minimal, minimal_plant, True),
            ("perturbed", perturbed, perturbed_plant, False),
        ):
            ops.append(Op(f"equivalence/{domain}_{label}", partial(call, other),
                          partial(check, other_plant=other_plant, equal=equal),
                          lambda r: 2 * r.trials))

    def match_op(domain):
        plant = sysgen.random_plant(rng, 5, 2, domain, **shape(domain))
        T = sysgen.random_invertible(rng, 5)
        sys_from = load(f"{domain}_match_from", plant)
        sys_to = load(f"{domain}_match_to", sysgen.conjugate(plant, T))
        windows = []
        for _ in range(BATCH[domain]):
            if domain == "dt":
                p = sig.Signal.dt(rng.uniform(-1, 1, (EQ_DT_WINDOW + 1, 2)))
                u = sig.Signal.dt(rng.standard_normal((EQ_DT_WINDOW + 1, 1)))
            else:
                times = np.linspace(0.0, EQ_CT_WINDOW, EQ_CT_SEGMENTS, endpoint=False)
                p_vals, u_vals = sysgen.pwc_values(rng, plant, EQ_CT_SEGMENTS)
                p, u = sig.Signal.ct(times, p_vals), sig.Signal.ct(times, u_vals)
            windows.append((rng.standard_normal(5), u, p))
        horizon = EQ_DT_WINDOW if domain == "dt" else EQ_CT_WINDOW

        def call():
            return [
                eqv.match_initial_state(sys_from, x0, sys_to, u, p, horizon, step=EQ_CT_STEP)
                for x0, u, p in windows
            ]

        def check(outs):
            for (x0, _, _), (x0_to, residual) in zip(windows, outs):
                close(x0_to, T @ x0, 1e-6, "matched initial state vs T x0")
                require(residual <= 1e-8, f"residual {residual:.3e}")

        ops.append(Op(f"match_initial_state/{domain}", call, check, len))

    def reveal_op(domain):
        plant = sysgen.random_plant(rng, 5, 2, domain, **shape(domain))
        sys_ = load(f"{domain}_reveal", plant)
        window = EQ_DT_WINDOW if domain == "dt" else EQ_CT_WINDOW
        seeds = [int(s) for s in rng.integers(2**31, size=BATCH[domain])]

        def call():
            return [ana.find_revealing_scheduling(sys_, REVEAL_TRIALS, window, s) for s in seeds]

        def check(outs):
            for found in outs:
                require(found is not None, "no revealing scheduling found")
                p, w = found
                require(w == window, "window")
                require(bool(np.all(np.abs(p.values) <= 1)), "scheduling leaves the region")
                if domain == "dt":
                    blocks = orc.dt_window_blocks(plant, p.values, window)
                else:
                    blocks = orc.ct_window_blocks(plant, (np.asarray(p.times), p.values), window)
                require(orc.rank_ok(blocks, plant.n_x), "stacked C(t) Phi(t) is rank deficient")

        def candidates(outs):
            # the documented draw order: i.i.d. uniform per DT step, or
            # piecewise-constant with 8 segments in CT, from default_rng(seed)
            size = (window + 1, 2) if domain == "dt" else (EQ_CT_SEGMENTS, 2)
            total = 0
            for s, found in zip(seeds, outs):
                draws = np.random.default_rng(s)
                for k in range(1, REVEAL_TRIALS + 1):
                    if np.array_equal(draws.uniform(-1, 1, size), found[0].values):
                        break
                total += k
            return total

        ops.append(Op(f"find_revealing_scheduling/{domain}", call, check, candidates))

    for domain in ("dt", "ct"):
        bee_ops(domain)
        match_op(domain)
        reveal_op(domain)
    return Workload("equivalence", ops, docs, "signal windows")


BUILD = {
    "simulate": build_simulate,
    "realize": build_realize,
    "equivalence": build_equivalence,
}
