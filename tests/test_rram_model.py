"""Device-function tests for the RRAM compact model."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from synapsim.rram import (_SINH_ARG_MAX, RramParams, conductance,
                           rram_current, rram_current_and_grads, state_rate,
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


def _parity_points():
    """(V, X) points for the float/array parity check: random biases and
    states, X outside [0, 1], V = +-0 where the rate switches from SET to
    RESET, |V| beyond the sinh guard of both laws, and NaNs."""
    p = RramParams()
    rng = np.random.default_rng(20261018)
    n = 60000
    v = rng.uniform(-3.0, 3.0, n)
    x = rng.uniform(-0.5, 1.5, n)
    v[:2000] = 0.0
    v[2000:4000] = -0.0
    big = _SINH_ARG_MAX * max(p.v0, p.vc_set, p.vc_reset)
    v[4000:6000] = rng.uniform(big, 3.0 * big, 2000) * rng.choice(
        [-1.0, 1.0], 2000)
    x[6000:8000] = rng.choice([0.0, 1.0, -0.0], 2000)
    v[8000:8100] = np.nan
    x[8100:8200] = np.nan
    return p, v, x


@pytest.mark.parametrize("fn", [rram_current_and_grads, state_rate_and_grads])
def test_float_and_array_paths_agree(fn):
    # the engine passes floats for a one-device stamp and arrays for a
    # many-device one; math.sinh/math.cosh on floats may differ from
    # numpy's in the last bit, so the paths agree to 1e-15 relative, and
    # exactly on the zeros of dI/dX and of the window
    p, v, x = _parity_points()
    assert len(v) >= 50000
    arrays = fn(p, v, x)
    floats = np.array([fn(p, a, b) for a, b in zip(v.tolist(), x.tolist())])
    assert all(type(q) is float for q in fn(p, 0.3, 0.4))
    for k, (a, f) in enumerate(zip(arrays, floats.T)):
        assert a.shape == v.shape
        np.testing.assert_array_equal(np.isnan(f), np.isnan(a))
        np.testing.assert_array_equal(f == 0.0, a == 0.0)
        np.testing.assert_allclose(f, a, rtol=1e-15, atol=0)
    assert np.isnan(arrays[0][8000:8200]).all()


def test_vectorized_current():
    p = RramParams()
    v = np.linspace(-1, 1, 11)
    i = rram_current(p, v, 0.5)
    assert i.shape == v.shape
    assert np.allclose(i, [rram_current(p, float(vv), 0.5) for vv in v],
                       rtol=0, atol=0)
