import numpy as np
import pytest

from lpvssa import InputError, Signal, TimeDomain
from lpvssa.signals import PIECEWISE_CONSTANT, PIECEWISE_LINEAR


def test_dt_signal_basics():
    s = Signal.dt([[1.0], [2.0], [3.0]])
    assert s.domain == TimeDomain.DT
    assert s.n_samples == 3 and s.dim == 1
    assert s.value_at(1)[0] == 2.0
    assert s.covers(2) and not s.covers(3)


def test_dt_signal_requires_samples():
    with pytest.raises(InputError):
        Signal.dt(np.zeros((0, 2)))


def test_dt_index_bounds_checked():
    s = Signal.dt([[1.0]])
    with pytest.raises(InputError):
        s.value_at(1)


def test_ct_mesh_must_start_at_zero_and_increase():
    with pytest.raises(InputError):
        Signal.ct([0.5, 1.0], [[0.0], [1.0]])
    with pytest.raises(InputError):
        Signal.ct([0.0, 1.0, 1.0], [[0.0], [1.0], [2.0]])


def test_piecewise_constant_is_left_continuous():
    s = Signal.ct([0.0, 1.0, 2.0], [[10.0], [20.0], [30.0]])
    assert s.value_at(0.0)[0] == 10.0
    assert s.value_at(0.5)[0] == 10.0
    # at a node the older segment value still applies
    assert s.value_at(1.0)[0] == 10.0
    assert s.value_at(1.5)[0] == 20.0
    assert s.value_at(2.0)[0] == 20.0
    # last value held beyond the final node
    assert s.value_at(5.0)[0] == 30.0


def test_piecewise_linear_interpolates():
    s = Signal.ct([0.0, 2.0], [[0.0], [4.0]], PIECEWISE_LINEAR)
    assert s.value_at(0.5)[0] == pytest.approx(1.0)
    assert s.value_at(2.0)[0] == pytest.approx(4.0)


def test_ct_coverage_rules():
    pc = Signal.ct([0.0, 1.0], [[0.0], [1.0]], PIECEWISE_CONSTANT)
    lin = Signal.ct([0.0, 1.0], [[0.0], [1.0]], PIECEWISE_LINEAR)
    assert pc.covers(5.0)
    assert lin.covers(1.0) and not lin.covers(1.5)


def test_interpolation_aliases():
    for rule in ("zoh", "linear", "cubic"):
        with pytest.raises(InputError, match="interpolation rule"):
            Signal.ct([0.0], [[1.0]], rule)


def test_constant_builders():
    d = Signal.dt_constant([1.0, 2.0], 4)
    assert d.n_samples == 5 and d.dim == 2
    c = Signal.ct_constant([7.0], 3.0)
    assert c.value_at(2.9)[0] == 7.0


def test_values_are_immutable():
    s = Signal.dt([[1.0]])
    with pytest.raises(ValueError):
        s.values[0, 0] = 2.0
