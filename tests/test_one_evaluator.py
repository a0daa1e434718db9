"""One evaluator each for affine functions and signals.

``AffineMatrixFunction.at_points`` is the only accumulation of ``M_0 +
sum_i p_i M_i`` and ``Signal.values_at`` the only lookup rule; ``M(p)``
and ``value_at(t)`` are their one-point cases.  Since the one-point forms
no longer serve as independent references, the accumulation is pinned
against the sum written out here, and the lookup against hand-computed
values.  The last test guards the names the benchmark's tracer binds.
"""

import ast
import importlib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpvssa import InputError, Signal
from lpvssa.core import _BLOCK_DOUBLES, AffineMatrixFunction
from lpvssa.signals import PIECEWISE_CONSTANT, PIECEWISE_LINEAR

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _random_amf(rng, rows, cols, n_p):
    return AffineMatrixFunction([rng.standard_normal((rows, cols)) for _ in range(n_p + 1)])


def _written_out(f, P):
    """``M_0 + p_1 M_1 + p_2 M_2 + ...``, each product rounded, added in index order."""
    out = np.broadcast_to(f.coeffs[0], P.shape[:-1] + f.shape)
    for i, Mi in enumerate(f.coeffs[1:]):
        out = out + P[..., i, None, None] * Mi
    return out


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestAtPoints:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.integers(0, 40),
        b=st.integers(0, 40),
        n_x=st.sampled_from([0, 1, 3, 12]),
        n_p=st.integers(0, 3),
    )
    def test_stack_equals_flat_call_reshaped(self, seed, a, b, n_x, n_p):
        rng = np.random.default_rng(seed)
        f = _random_amf(rng, n_x, n_x, n_p)
        P = rng.uniform(-1, 1, (a, b, n_p))
        stacked = f.at_points(P)
        flat = f.at_points(P.reshape(a * b, n_p)).reshape(a, b, n_x, n_x)
        assert _same_bytes(stacked, flat)

    @pytest.mark.parametrize("n_x", [0, 1, 8, 12])
    @pytest.mark.parametrize("n_p", [0, 1, 2, 3])
    def test_pinned_to_the_written_out_sum(self, n_x, n_p):
        rng = np.random.default_rng(10 * n_x + n_p)
        f = _random_amf(rng, n_x, n_x + 1, n_p)
        block = max(1, _BLOCK_DOUBLES // max(1, n_x * (n_x + 1)))
        for K in sorted({0, 1, block - 1, block, block + 1, 2 * block + 3}):
            P = rng.uniform(-1, 1, (K, n_p))
            P[: K // 4] *= -0.0  # signed zeros round the products to -0.0
            assert _same_bytes(f.at_points(P), _written_out(f, P))

    def test_one_point_is_the_first_row_of_a_stack(self):
        rng = np.random.default_rng(7)
        for n_p in range(4):
            f = _random_amf(rng, 3, 2, n_p)
            for p in rng.uniform(-1, 1, (10, n_p)):
                assert _same_bytes(f(p), f.at_points(p[None])[0])
                assert _same_bytes(f(p), f.at_points(p))
                assert _same_bytes(f(p), _written_out(f, p))

    def test_scalar_point_when_one_coordinate(self):
        f = AffineMatrixFunction([[[1.0, 2.0]], [[0.5, -1.0]]])
        assert _same_bytes(f(0.25), f.at_points([[0.25]])[0])
        assert f(0.25).tolist() == [[1.125, 1.75]]

    @pytest.mark.parametrize("points", [np.float64(0.5), np.zeros((2, 2, 0))])
    def test_malformed_stacks_rejected(self, points):
        f = AffineMatrixFunction([np.eye(2), np.eye(2)])
        with pytest.raises(InputError, match="scheduling points have shape"):
            f.at_points(points)


def _dt():
    return Signal.dt([[1.0, -1.0], [2.0, -2.0], [4.0, -4.0]])


def _ct(interpolation):
    return Signal.ct([0.0, 1.0, 3.0], [[10.0], [20.0], [40.0]], interpolation)


# (signal, times, values): nodes, between nodes and past the last node
PINNED = {
    "dt": (_dt, [0, 1, 2, 0.5, 1.99, -0.5, 2.5],
           [[1, -1], [2, -2], [4, -4], [1, -1], [2, -2], [1, -1], [4, -4]]),
    "piecewise-constant": (lambda: _ct(PIECEWISE_CONSTANT), [0.0, 1.0, 3.0, 0.5, 2.0, -1.0, 7.0],
                           [[10], [10], [20], [10], [20], [10], [40]]),
    "piecewise-linear": (lambda: _ct(PIECEWISE_LINEAR), [0.0, 1.0, 3.0, 0.5, 2.0, -1.0, 7.0],
                         [[10], [20], [40], [15], [30], [10], [40]]),
}


class TestValuesAt:
    @pytest.mark.parametrize("rule", list(PINNED))
    def test_pinned_values(self, rule):
        make, ts, expected = PINNED[rule]
        sig = make()
        read = sig.values_at(ts)
        assert read.tolist() == expected
        for t, row in zip(ts, read):
            assert _same_bytes(sig.value_at(t), row)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 1e300, -1e300, 3, -1])
    def test_bad_dt_time_is_input_error_without_warnings(self, t):
        sig = _dt()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="outside the signal range 0..2"):
                sig.value_at(t)
            with pytest.raises(InputError, match="outside the signal range 0..2"):
                sig.values_at([0, 1, t])
            with pytest.raises(InputError, match="outside the signal range 0..2"):
                sig.values_at(np.array([t, 0.0]))

    @pytest.mark.parametrize("rule", [PIECEWISE_CONSTANT, PIECEWISE_LINEAR])
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_ct_time_is_input_error_without_warnings(self, rule, t):
        sig = _ct(rule)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="is not finite"):
                sig.value_at(t)
            with pytest.raises(InputError, match="is not finite"):
                sig.values_at([0.0, 1.0, t])


def _table(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value.elts
    raise AssertionError(f"{name} not found in {TRACING}")


def test_tracer_names_resolve_in_the_package():
    """Every name the benchmark's tracer binds by ``getattr`` exists.

    ``bench/tracing.py`` is read as text, not imported or edited.
    """
    tree = ast.parse(TRACING.read_text())
    functions = [tuple(e.value for e in entry.elts[:2]) for entry in _table(tree, "FUNCTIONS")]
    methods = [
        (entry.elts[0].value, entry.elts[1].value, entry.elts[2].elts[0].value)
        for entry in _table(tree, "METHODS")
    ]
    assert functions and methods
    for module, name in functions:
        assert callable(getattr(importlib.import_module(f"lpvssa.{module}"), name))
    for module, cls, attr in methods:
        assert callable(getattr(getattr(importlib.import_module(f"lpvssa.{module}"), cls), attr))
