"""Fowler-Nordheim tunnel-law tests for the floating-gate device."""

import math
import warnings

import numpy as np
import pytest

from synapsim.floatgate import (FloatingGateParams, fn_current,
                                fn_current_and_grad)


def test_zero_bias_exact_zero():
    p = FloatingGateParams()
    assert fn_current(p, 0.0) == 0.0
    i, g = fn_current_and_grad(p, 0.0)
    assert i == 0.0 and g == 0.0


def test_zero_bias_is_exact_zero_on_both_paths_without_warnings():
    p = FloatingGateParams()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fn_current_and_grad(p, 0.0) == (0.0, 0.0)
        i, g = fn_current_and_grad(p, np.array([0.0, 1e-320, -1e-320]))
    assert np.all(i == 0.0) and np.all(g == 0.0)


def test_float_inputs_equal_array_path_bit_for_bit():
    # one formula serves both: the engine's float calls must give the
    # bits of the array path, on random biases and at the edge cases
    p = FloatingGateParams()
    rng = np.random.default_rng(20261018)
    v = np.concatenate([rng.uniform(-12.0, 12.0, 5000),
                        [0.0, 1e-320, -1e-320, 0.01, -0.01, np.nan]])
    i_arr, g_arr = fn_current_and_grad(p, v)
    pairs = [fn_current_and_grad(p, float(x)) for x in v]
    assert all(type(a) is float and type(b) is float for a, b in pairs)
    np.testing.assert_array_equal([a for a, _ in pairs], i_arr)
    np.testing.assert_array_equal([b for _, b in pairs], g_arr)
    np.testing.assert_array_equal(np.signbit([a for a, _ in pairs]),
                                  np.signbit(i_arr))
    np.testing.assert_array_equal(fn_current(p, v), i_arr)


def test_odd_symmetry():
    p = FloatingGateParams()
    for v in (2.0, 5.0, 10.0):
        assert fn_current(p, v) == -fn_current(p, -v)
        assert fn_current(p, v) > 0.0


def test_selectivity_ratio():
    # With beta_fn * t_tun = 40 V the programming/read contrast between
    # 10 V and 2 V is (10/2)^2 * exp(40/2 - 40/10) = 25 e^16 ~ 2.2e8.
    p = FloatingGateParams()
    ratio = fn_current(p, 10.0) / fn_current(p, 2.0)
    assert ratio == pytest.approx(25.0 * math.exp(16.0), rel=1e-12)
    assert ratio > 1e6


def test_read_level_underflows_to_exact_zero():
    # beta_fn/E = 4000 at 0.01 V across 8 nm: exp underflows, I == 0.0
    p = FloatingGateParams()
    assert fn_current(p, 0.01) == 0.0
    i, g = fn_current_and_grad(p, 0.01)
    assert i == 0.0 and g == 0.0


def test_grad_matches_finite_difference():
    p = FloatingGateParams()
    for v in (3.0, -6.0, 9.5):
        i, di_dv = fn_current_and_grad(p, v)
        h = 1e-6
        fd = (fn_current(p, v + h) - fn_current(p, v - h)) / (2 * h)
        assert i == fn_current(p, v)
        assert di_dv == pytest.approx(fd, rel=1e-6, abs=0.0)
        # the derivative of an odd function is even
        assert di_dv == fn_current_and_grad(p, -v)[1]


def test_vectorized_evaluation():
    p = FloatingGateParams()
    v = np.array([-10.0, -2.0, 0.0, 2.0, 10.0])
    i = fn_current(p, v)
    assert i.shape == v.shape
    assert i[2] == 0.0
    assert np.all(i == -i[::-1])


def test_param_validation_and_totals():
    with pytest.raises(ValueError):
        FloatingGateParams(t_tun=0.0)
    with pytest.raises(ValueError):
        FloatingGateParams(c_sg=-1e-16)
    p = FloatingGateParams()
    assert p.c_total == pytest.approx(3e-16, rel=1e-15, abs=0.0)
    assert p.mos.l == 30e-9
