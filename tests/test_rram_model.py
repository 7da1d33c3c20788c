"""Device-function tests for the RRAM compact model."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synapsim.rram import (RramParams, conductance, rram_current,
                           rram_current_and_grads, state_rate,
                           state_rate_and_grads)


def test_ln_g_ratio_is_derived_from_the_window():
    p = RramParams()
    assert p.ln_g_ratio == math.log(p.g_on / p.g_off)
    q = dataclasses.replace(p, g_on=2e-3)
    assert q.ln_g_ratio == math.log(2e-3 / p.g_off)
    assert conductance(q, 1.0) == pytest.approx(2e-3, rel=1e-15)
    assert "ln_g_ratio" not in repr(p)
    with pytest.raises(TypeError):
        RramParams(ln_g_ratio=1.0)


def test_zero_bias_zero_current():
    p = RramParams()
    assert rram_current(p, 0.0, 0.3) == 0.0


def test_conductance_endpoints_and_midpoint():
    p = RramParams()
    assert conductance(p, 0.0) == pytest.approx(p.g_off, rel=1e-15)
    assert conductance(p, 1.0) == pytest.approx(p.g_on, rel=1e-15)
    assert conductance(p, 0.5) == pytest.approx(
        math.sqrt(p.g_on * p.g_off), rel=1e-14)


def test_small_signal_linearization():
    # at V = v0/10 the sinh deviates from linear by < 1%
    p = RramParams()
    v = p.v0 / 10.0
    assert rram_current(p, v, 1.0) == pytest.approx(p.g_on * v, rel=1e-2)
    assert rram_current(p, v, 1.0) != pytest.approx(p.g_on * v, rel=1e-5)


def test_current_odd_in_v():
    p = RramParams()
    for v in (0.05, 0.3, 1.0, 2.5):
        for x in (0.0, 0.4, 1.0):
            assert rram_current(p, v, x) == -rram_current(p, -v, x)


def test_conductance_clamps_out_of_range_state():
    p = RramParams()
    assert conductance(p, -0.2) == conductance(p, 0.0)
    assert conductance(p, 1.3) == conductance(p, 1.0)


def test_state_rate_zero_cases():
    p = RramParams()
    assert state_rate(p, 0.0, 0.5) == 0.0
    assert state_rate(p, 1.0, 1.0) == 0.0      # SET window saturated
    assert state_rate(p, -1.0, 0.0) == 0.0     # RESET window saturated


def test_state_rate_signs():
    p = RramParams()
    assert state_rate(p, 0.8, 0.5) > 0.0
    assert state_rate(p, -0.8, 0.5) < 0.0


@given(v=st.floats(-2.0, 2.0), x=st.floats(0.0, 1.0))
def test_state_rate_pushes_inward(v, x):
    p = RramParams()
    r = state_rate(p, v, x)
    if v > 0:
        assert r >= 0.0
    elif v < 0:
        assert r <= 0.0
    else:
        assert r == 0.0
    # no escape from the bounds
    if x == 1.0:
        assert state_rate(p, abs(v), x) == 0.0
    if x == 0.0:
        assert state_rate(p, -abs(v), x) == 0.0


@pytest.mark.parametrize("v,x", [(0.4, 0.3), (-0.7, 0.8), (1.2, 0.05),
                                 (-0.2, 0.95), (0.9, 0.5)])
def test_current_grads_match_finite_differences(v, x):
    p = RramParams()
    i, di_dv, di_dx = rram_current_and_grads(p, v, x)
    hv, hx = 1e-7, 1e-7
    fd_v = (rram_current(p, v + hv, x) - rram_current(p, v - hv, x)) / (2 * hv)
    fd_x = (rram_current(p, v, x + hx) - rram_current(p, v, x - hx)) / (2 * hx)
    assert i == rram_current(p, v, x)
    assert di_dv == pytest.approx(fd_v, rel=1e-6)
    assert di_dx == pytest.approx(fd_x, rel=1e-6)


@pytest.mark.parametrize("v,x", [(0.5, 0.3), (-0.6, 0.7), (0.9, 0.01),
                                 (-1.1, 0.99)])
def test_rate_grads_match_finite_differences(v, x):
    p = RramParams()
    r, dr_dv, dr_dx = state_rate_and_grads(p, v, x)
    hv, hx = 1e-8, 1e-8
    fd_v = (state_rate(p, v + hv, x) - state_rate(p, v - hv, x)) / (2 * hv)
    fd_x = (state_rate(p, v, x + hx) - state_rate(p, v, x - hx)) / (2 * hx)
    assert r == state_rate(p, v, x)
    assert dr_dv == pytest.approx(fd_v, rel=1e-5)
    assert dr_dx == pytest.approx(fd_x, rel=1e-5)


def test_param_validation():
    with pytest.raises(ValueError):
        RramParams(g_on=1e-5, g_off=1e-3)
    with pytest.raises(ValueError):
        RramParams(p=0.5)
    with pytest.raises(ValueError):
        RramParams(x_init=1.5)
    with pytest.raises(ValueError):
        RramParams(v0=0.0)


def test_scalar_current_within_1e15_of_array_path():
    # the scalar twin shares np.exp for G but uses math.sinh, which can
    # differ from numpy's sinh in the last bit
    p = RramParams()
    rng = np.random.default_rng(20261018)
    v = rng.uniform(-2.0, 2.0, 20000)
    x = rng.uniform(0.0, 1.0, 20000)
    i_arr = rram_current(p, v, x)
    i_scalar = np.array([rram_current_and_grads(p, float(a), float(b))[0]
                         for a, b in zip(v, x)])
    np.testing.assert_allclose(i_scalar, i_arr, rtol=1e-15, atol=0)


def test_vectorized_current():
    p = RramParams()
    v = np.linspace(-1, 1, 11)
    i = rram_current(p, v, 0.5)
    assert i.shape == v.shape
    assert np.allclose(i, [rram_current(p, float(vv), 0.5) for vv in v],
                       rtol=0, atol=0)
