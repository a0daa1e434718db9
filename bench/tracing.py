"""Span tracer for the traced run, and the reference-table pass.

The tracer swaps each traced public function for a wrapper in *every*
module namespace that binds it by name (``cli``, ``equivalence``,
``analysis`` and ``reduction`` import each other's functions directly, so
patching only the defining module would undercount), plus the two hot
methods ``AffineMatrixFunction.__call__`` and ``Signal.value_at``.  Spans
go into flat in-memory arrays (name id, parent index, start, end) and are
written out once, when the run ends.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

import systems as sysgen


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _traj_steps(args, kwargs, out):
    return {"steps": out.x.n_samples - 1}


# (module, function, span name, extra counts from (args, kwargs, result))
FUNCTIONS = [
    ("simulation", "simulate_dt", "simulation.dt", _traj_steps),
    ("simulation", "simulate_ct", "simulation.ct", _traj_steps),
    ("simulation", "io_response", "simulation.io_response", None),
    ("simulation", "rk4_on_mesh", "simulation.rk4_on_mesh",
     lambda a, k, out: {"steps": _arg(a, k, 2, "mesh").size - 1}),
    ("simulation", "transition_matrices_dt", "simulation.transition_matrices", None),
    ("simulation", "transition_matrices_ct", "simulation.transition_matrices", None),
    ("analysis", "extended_observability_matrix", "analysis.obs_stack",
     lambda a, k, out: {"rows": out.shape[0], "bytes": out.nbytes}),
    ("analysis", "unobservable_subspace", "analysis.unobservable_subspace", None),
    ("analysis", "is_observable", "analysis.is_observable", None),
    ("analysis", "is_span_reachable_from_zero", "analysis.is_span_reachable_from_zero", None),
    ("analysis", "check_rc", "analysis.check_rc", None),
    ("analysis", "freeze_scheduling", "analysis.freeze_scheduling", None),
    ("analysis", "ltv_window_observability", "analysis.ltv_window_observability", None),
    ("analysis", "find_revealing_scheduling", "analysis.reveal",
     lambda a, k, out: {"successes": int(out is not None)}),
    ("reduction", "observability_reduction", "reduction.observability_reduction", None),
    ("reduction", "minimize", "reduction.minimize", None),
    ("equivalence", "find_isomorphism", "equivalence.find_isomorphism", None),
    ("equivalence", "check_isomorphism", "equivalence.check_isomorphism", None),
    ("equivalence", "match_initial_state", "equivalence.match_initial_state", None),
    ("equivalence", "behavior_equivalence_empirical", "equivalence.behavior_equivalence",
     lambda a, k, out: {"trials": out.trials}),
    ("io", "parse_system", "io.parse_system", lambda a, k, out: {"bytes": len(_arg(a, k, 0, "text"))}),
    ("io", "serialize_system", "io.serialize_system", lambda a, k, out: {"bytes": len(out)}),
]
METHODS = [
    ("core", "AffineMatrixFunction", ("__call__", "evaluate"), "core.amf_eval"),
    ("signals", "Signal", ("value_at",), "signals.value_at"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.kind = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.counts = defaultdict(int)
        self._saved = []

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, nid):
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self.stack[-1])
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def _close(self, idx):
        self.t1[idx] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, extra):
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra is not None:
                for key, value in extra(args, kwargs, out).items():
                    tracer.counts[f"{name}.{key}"] += value
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules):
        """Wrap every traced callable wherever the package binds it."""
        for mod_name, attr, name, extra in FUNCTIONS:
            orig = getattr(modules[mod_name], attr)
            wrapper = self._wrap(orig, name, extra)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attrs, name in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            wrapper = self._wrap(getattr(cls, attrs[0]), name, None)
            for attr in attrs:
                if attr in vars(cls):
                    self._saved.append((cls, attr, vars(cls)[attr]))
                    setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    @contextlib.contextmanager
    def active(self, ctx):
        """Trace the library and the workload's CLI calls inside the block."""
        plain = ctx.span
        self.install(ctx.m)
        ctx.span = self.span
        try:
            yield
        finally:
            self.uninstall()
            ctx.span = plain

    # ------------------------------------------------------------ analysis

    def arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        has_parent = parent >= 0
        child_sum = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=kind.size
        )
        return kind, parent, dur, dur - child_sum

    def per_name(self):
        """Calls, inclusive and self milliseconds for every span name."""
        kind, _, dur, self_t = self.arrays()
        n = len(self.names)
        calls = np.bincount(kind, minlength=n)
        incl = np.bincount(kind, weights=dur, minlength=n)
        own = np.bincount(kind, weights=self_t, minlength=n)
        return {
            name: {"calls": int(calls[i]), "ms": 1e3 * incl[i], "self_ms": 1e3 * own[i]}
            for i, name in enumerate(self.names)
        }

    def under(self, name):
        """Mask of spans that have an ancestor called ``name``."""
        kind, parent, _, _ = self.arrays()
        target = self.ids.get(name, -1)
        inside = np.zeros(kind.size, dtype=bool)
        has_parent = parent >= 0
        while True:
            nxt = np.zeros_like(inside)
            p = parent[has_parent]
            nxt[has_parent] = (kind[p] == target) | inside[p]
            if np.array_equal(nxt, inside):
                return inside
            inside = nxt

    def count_under(self, name, ancestor):
        kind = np.frombuffer(self.kind, dtype=np.int32)
        return int(np.sum((kind == self.ids.get(name, -1)) & self.under(ancestor)))

    def child_ms(self, name, parent_name):
        """Total milliseconds of ``name`` spans whose direct parent is ``parent_name``."""
        kind, parent, dur, _ = self.arrays()
        ok = (kind == self.ids.get(name, -1)) & (parent >= 0)
        ok[ok] = kind[parent[ok]] == self.ids.get(parent_name, -1)
        return 1e3 * float(dur[ok].sum())

    def dump(self, path):
        kind, parent, dur, self_t = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), kind=kind, parent=parent,
            start=np.frombuffer(self.t0, dtype=float), duration=dur, self_time=self_t,
        )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, overhead_pct):
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    s = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}, tr.per_name())
    c = tr.counts
    bee_ms = s["equivalence.behavior_equivalence"]["ms"] - tr.child_ms(
        "analysis.check_rc", "equivalence.behavior_equivalence"
    )
    transition = s["simulation.transition_matrices"]
    m = {
        "core.amf_eval.calls": (s["core.amf_eval"]["calls"], "count"),
        "core.amf_eval.self_ms": (s["core.amf_eval"]["self_ms"], "ms"),
        "signals.value_at.calls": (s["signals.value_at"]["calls"], "count"),
        "signals.value_at.self_ms": (s["signals.value_at"]["self_ms"], "ms"),
        "simulation.dt.us_per_step": (
            1e3 * _ratio(s["simulation.dt"]["ms"], c["simulation.dt.steps"]), "us"),
        "simulation.ct.us_per_step": (
            1e3 * _ratio(s["simulation.ct"]["ms"], c["simulation.ct.steps"]), "us"),
        "simulation.rk4_on_mesh.steps": (c["simulation.rk4_on_mesh.steps"], "count"),
        "simulation.rk4_on_mesh.self_ms": (s["simulation.rk4_on_mesh"]["self_ms"], "ms"),
        "simulation.transition_matrices.self_ms": (transition["self_ms"], "ms"),
        "analysis.obs_stack.rows": (c["analysis.obs_stack.rows"], "count"),
        "analysis.obs_stack.mbytes_computed": (c["analysis.obs_stack.bytes"] / 1e6, "MB"),
        "analysis.obs_stack.self_ms": (s["analysis.obs_stack"]["self_ms"], "ms"),
        "analysis.unobservable_subspace.self_ms": (
            s["analysis.unobservable_subspace"]["self_ms"], "ms"),
        "analysis.is_observable.self_ms": (s["analysis.is_observable"]["self_ms"], "ms"),
        "analysis.check_rc.amf_calls": (
            tr.count_under("core.amf_eval", "analysis.check_rc"), "count"),
        "analysis.check_rc.self_ms": (s["analysis.check_rc"]["self_ms"], "ms"),
        "analysis.ltv_window_observability.self_ms": (
            s["analysis.ltv_window_observability"]["self_ms"], "ms"),
        "analysis.reveal.trials_per_success": (_ratio(
            tr.count_under("analysis.ltv_window_observability", "analysis.reveal"),
            c["analysis.reveal.successes"]), "trials/success"),
        "reduction.observability_reduction.self_ms": (
            s["reduction.observability_reduction"]["self_ms"], "ms"),
        "equivalence.find_isomorphism.self_ms": (
            s["equivalence.find_isomorphism"]["self_ms"], "ms"),
        "equivalence.match_initial_state.self_ms": (
            s["equivalence.match_initial_state"]["self_ms"], "ms"),
        "equivalence.trial_ms": (
            _ratio(bee_ms, c["equivalence.behavior_equivalence.trials"]), "ms"),
        "io.parse_system.self_ms": (s["io.parse_system"]["self_ms"], "ms"),
        "io.serialize_system.self_ms": (s["io.serialize_system"]["self_ms"], "ms"),
        "io.bytes": (c["io.parse_system.bytes"] + c["io.serialize_system.bytes"], "bytes"),
        "cli.check.self_ms": (s["cli.check"]["self_ms"], "ms"),
        "cli.minimize.self_ms": (s["cli.minimize"]["self_ms"], "ms"),
        "cli.iso.self_ms": (s["cli.iso"]["self_ms"], "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


# ------------------------------------------------------- reference table

TABLE_SEED = 20260101


def reference_table(ctx, data_dir):
    """Rows of the ROADMAP baseline table, each timed under a ``table`` span.

    Fixed inputs (``TABLE_SEED``), so the figures compare across commits.
    Random systems have ``n_x = 4, n_p = 2, n_u = n_y = 1`` unless the
    row says otherwise.  CLI rows run in-process, without interpreter
    start-up or imports.
    """
    m = ctx.m
    sig, sim, ana, eqv = m["signals"], m["simulation"], m["analysis"], m["equivalence"]
    rng = np.random.default_rng(TABLE_SEED)

    def system(n_x, domain, **kw):
        kw.setdefault("shift", 0.0 if domain == "dt" else -0.5)
        return sysgen.random_plant(rng, n_x, 2, domain, **kw).to_lpvssa()

    dt4, ct4 = system(4, "dt"), system(4, "ct")
    ladder = {n: system(n, "dt", shift=1.0, a_norm=0.5) for n in (4, 8, 12)}
    N, T, h = 10_000, 10.0, 1e-3
    p_dt = sig.Signal.dt(rng.uniform(-1, 1, (N + 1, 2)))
    u_dt = sig.Signal.dt(rng.standard_normal((N + 1, 1)))
    knots = np.linspace(0.0, T, 9)
    pwc = [sig.Signal.ct(knots[:-1], rng.uniform(-1, 1, (8, d))) for d in (2, 1)]
    pwl = [sig.Signal.ct(knots, rng.uniform(-1, 1, (9, d)), sig.PIECEWISE_LINEAR) for d in (2, 1)]
    data = {name: str(data_dir / f"{name}.json") for name in (
        "worked_example", "worked_minimal", "constant_2state", "constant_1state")}

    rows = [
        ("simulate_dt, 1e4 steps", lambda: sim.simulate_dt(dt4, np.ones(4), u_dt, p_dt, N)),
        ("simulate_ct, 1e4 RK4 steps, pwc", lambda: sim.simulate_ct(ct4, np.ones(4), pwc[1], pwc[0], T, h)),
        ("simulate_ct, 1e4 RK4 steps, pwl", lambda: sim.simulate_ct(ct4, np.ones(4), pwl[1], pwl[0], T, h)),
    ]
    for n, s in ladder.items():
        rows += [
            (f"unobservable_subspace, n_x={n}", lambda s=s: ana.unobservable_subspace(s)),
            (f"is_observable, n_x={n}", lambda s=s: ana.is_observable(s)),
            (f"find_isomorphism(s, s), n_x={n}", lambda s=s: eqv.find_isomorphism(s, s)),
        ]
    rows += [
        ("check_rc, n_p=2, grid 10", lambda: ana.check_rc(ladder[4], 10)),
        ("behavior_equivalence_empirical, 20 trials, DT",
         lambda: eqv.behavior_equivalence_empirical(dt4, dt4, trials=20)),
        ("behavior_equivalence_empirical, 20 trials, CT",
         lambda: eqv.behavior_equivalence_empirical(ct4, ct4, trials=20)),
        ("find_revealing_scheduling, DT, window 20",
         lambda: ana.find_revealing_scheduling(dt4, 10, 20, 0)),
        ("CLI check worked_example", lambda: ctx.cli(["check", data["worked_example"]])),
        ("CLI minimize worked_example", lambda: ctx.cli(
            ["minimize", data["worked_example"], "--out", str(ctx.workdir / "table_min.json")])),
        ("CLI iso worked_minimal worked_minimal",
         lambda: ctx.cli(["iso", data["worked_minimal"], data["worked_minimal"]])),
        ("CLI equiv constant pair, 100 trials", lambda: ctx.cli(
            ["equiv", data["constant_2state"], data["constant_1state"], "--trials", "100"])),
    ]
    table = []
    for label, call in rows:
        t0 = perf_counter()
        try:
            with ctx.span("table"):
                call()
            table.append({"row": label, "ms": 1e3 * (perf_counter() - t0)})
        except Exception as exc:  # a broken row must not hide the others
            table.append({"row": label, "error": f"{type(exc).__name__}: {exc}"})
    return table
