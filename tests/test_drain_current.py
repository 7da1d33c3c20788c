"""Drain current: quadrature oracle, symmetry, slope, derivatives."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from synapsim import MosParams, drain_current, drain_current_and_grads, \
    gummel_current, solve_charge_reference
from synapsim.mosfet import gummel_diagnostics


def sheet_charge_integral(p, v_gs, v_ds):
    """Independent oracle: I_d = mu0 (W/L) integral_0^Vds Q_i(V_ch) dV_ch
    with Q_i from the reference solver and adaptive quadrature."""
    val, err = quad(lambda v: solve_charge_reference(p, v_gs, v),
                    0.0, v_ds, epsabs=1e-16, epsrel=1e-11, limit=200)
    return p.mu0 * p.w / p.l * val, p.mu0 * p.w / p.l * err


def test_current_matches_quadrature_oracle(rng):
    p = MosParams()
    for _ in range(25):
        v_gs = rng.uniform(-0.2, 1.5)
        v_ds = rng.uniform(0.05, 1.0)
        oracle, oracle_err = sheet_charge_integral(p, v_gs, v_ds)
        got = drain_current(p, v_gs, v_ds, method="reference")
        assert got == pytest.approx(oracle, rel=1e-8, abs=oracle_err + 1e-30)


def test_current_quadrature_oracle_other_geometry(rng):
    p = MosParams(n_a=5e23, t_si=7e-9, eot=1.4e-9)
    for _ in range(10):
        v_gs = rng.uniform(0.0, 1.5)
        v_ds = rng.uniform(0.05, 1.0)
        oracle, oracle_err = sheet_charge_integral(p, v_gs, v_ds)
        got = drain_current(p, v_gs, v_ds, method="reference")
        assert got == pytest.approx(oracle, rel=1e-8, abs=oracle_err + 1e-30)


def test_householder_and_reference_paths_agree(rng):
    p = MosParams()
    for _ in range(30):
        v_gs = rng.uniform(-0.3, 1.5)
        v_ds = rng.uniform(-1.0, 1.0)
        a = drain_current(p, v_gs, v_ds, method="householder")
        b = drain_current(p, v_gs, v_ds, method="reference")
        assert a == pytest.approx(b, rel=1e-6, abs=0.0)


def test_terminal_swap_antisymmetry():
    """I(V_gs, V_ds) = -I(V_gs - V_ds, -V_ds): relabeling d and s flips
    the sign of the current and nothing else."""
    p = MosParams()
    for v_gs, v_ds in [(0.9, 0.6), (0.4, 0.05), (1.2, 1.0), (0.0, 0.3)]:
        fwd = drain_current(p, v_gs, v_ds)
        rev = drain_current(p, v_gs - v_ds, -v_ds)
        assert fwd == pytest.approx(-rev, rel=1e-12, abs=0.0)


def test_zero_vds_zero_current():
    p = MosParams()
    assert drain_current(p, 1.0, 0.0) == 0.0


def test_current_increases_with_vds_and_saturates():
    p = MosParams()
    v_ds = np.linspace(0.0, 1.2, 61)
    i = np.array([drain_current(p, 0.9, float(v)) for v in v_ds])
    assert np.all(np.diff(i) > 0.0)
    # saturation: the last decade of V_ds adds far less current than the first
    assert (i[-1] - i[-11]) < 0.05 * (i[10] - i[0])


def test_subthreshold_slope_at_300k():
    """Ideal-body slope: V_t ln(10) per decade (59.6 mV/dec at 300 K)."""
    p = MosParams()
    base = p.v_fb + p.q_b / p.c_ox
    v_g = np.linspace(base - 0.45, base - 0.25, 21)
    i = np.array([drain_current(p, float(v), 0.05) for v in v_g])
    slopes = np.diff(v_g) / np.diff(np.log10(i))  # V per decade
    assert np.all(np.abs(slopes * 1e3 - 59.6) / 59.6 < 0.02)


def test_effect_wrappers_reduce_current():
    base = MosParams()
    p_mob = replace(base, mob_degradation=True)
    p_sat = replace(base, vel_saturation=True)
    p_both = replace(base, mob_degradation=True, vel_saturation=True)
    i0 = drain_current(base, 1.2, 1.0)
    i_mob = drain_current(p_mob, 1.2, 1.0)
    i_sat = drain_current(p_sat, 1.2, 1.0)
    i_both = drain_current(p_both, 1.2, 1.0)
    assert 0 < i_mob < i0
    assert 0 < i_sat < i0
    assert 0 < i_both < min(i_mob, i_sat)


def test_effects_disabled_is_pure_core():
    """Without wrappers the current is exactly mu0 (W/L) [B(s) - B(d)]."""
    from synapsim.mosfet import _bracket_diff, solve_charge_householder
    p = MosParams()
    v_gs, v_ds = 1.1, 0.7
    q_is = solve_charge_householder(p, v_gs, 0.0)
    q_id = solve_charge_householder(p, v_gs, v_ds)
    expected = p.mu0 * p.w / p.l * _bracket_diff(p, q_is, q_id)
    assert drain_current(p, v_gs, v_ds) == expected


# both effect wrappers off or on, or one of them alone, whose partner's
# off branch must give its derivatives too
@pytest.mark.parametrize("mobility, saturation", [
    (False, False), (True, True), (True, False), (False, True)],
    ids=["False", "True", "mobility", "saturation"])
def test_analytic_gradients_match_fd(mobility, saturation, rng):
    p = MosParams(mob_degradation=mobility, vel_saturation=saturation)
    h = 1e-5
    for _ in range(12):
        v_gs = rng.uniform(0.2, 1.4)
        v_ds = rng.uniform(0.1, 1.0)
        i, gm, gds = drain_current_and_grads(p, v_gs, v_ds)
        assert i == pytest.approx(drain_current(p, v_gs, v_ds), rel=1e-12,
                                  abs=0.0)
        gm_fd = (drain_current(p, v_gs + h, v_ds) -
                 drain_current(p, v_gs - h, v_ds)) / (2 * h)
        gds_fd = (drain_current(p, v_gs, v_ds + h) -
                  drain_current(p, v_gs, v_ds - h)) / (2 * h)
        assert gm == pytest.approx(gm_fd, rel=1e-6, abs=0.0)
        assert gds == pytest.approx(gds_fd, rel=1e-6, abs=1e-12)


def test_array_gradients_equal_scalar_calls(rng):
    """One array call of drain_current_and_grads gives, per element, what
    scalar calls give; both effect wrappers on, V_ds of either sign."""
    p = MosParams(mob_degradation=True, vel_saturation=True)
    v_gs = rng.uniform(-0.3, 1.5, 40)
    v_ds = rng.uniform(-1.0, 1.0, 40)
    arrays = drain_current_and_grads(p, v_gs, v_ds)
    for k in range(v_gs.size):
        scalars = drain_current_and_grads(p, float(v_gs[k]), float(v_ds[k]))
        for a, s in zip(arrays, scalars):
            assert a[k] == s


@pytest.mark.parametrize("effects", [False, True])
def test_float_inputs_equal_array_path_bit_for_bit(effects):
    """Python floats (np.float64 is one) take the float operations, 0-d
    and 1-d arrays numpy's; every output is the same double and NaN stays
    NaN.  V_ds takes both signs; at V_gs = -50 V the charge solver's
    -700, -50 (step) and -745 clips bind, at 2e4 V its upper bound 6."""
    p = MosParams(mob_degradation=effects, vel_saturation=effects)
    nan = float("nan")
    v_gs = np.array([-50.0, -0.3, 0.1, 0.45, 0.8, 1.2, 1.5, 50.0, 2e4,
                     nan, 0.8])
    v_ds = np.array([0.3, -0.7, 0.05, -0.05, 0.3, 1.0, -1.0, -50.0, -0.3,
                     0.3, nan])
    with np.errstate(all="ignore"):
        arrays = np.array(drain_current_and_grads(p, v_gs, v_ds))
        for k in range(v_gs.size):
            g, d = v_gs[k], v_ds[k]           # np.float64
            for args in ((float(g), float(d)), (g, d),
                         (np.array(g), np.array(d))):
                out = drain_current_and_grads(p, *args)
                np.testing.assert_array_equal(out, arrays[:, k])
    assert np.all(np.isnan(arrays[:, -2:]))
    assert not np.any(np.isnan(arrays[:, :-2]))


@pytest.mark.parametrize("effects", [False, True])
def test_gummel_symmetry(effects):
    """I(V_x) with V_d = +V_x/2, V_s = -V_x/2 is odd; even finite
    differences through third order vanish against the odd scale."""
    p = MosParams(mob_degradation=effects, vel_saturation=effects)
    for v_g in (0.4, 0.8, 1.2):
        for v_x in (0.02, 0.1, 0.35):
            fwd = gummel_current(p, v_g, v_x)
            rev = gummel_current(p, v_g, -v_x)
            assert abs(fwd + rev) < 1e-12 * abs(fwd)
        diag = gummel_diagnostics(p, v_g, h=0.05)
        assert diag["even_to_odd"] < 1e-9


def test_gummel_first_derivative_continuous_through_zero():
    """g(V_x) = dI/dV_x has no kink at V_x = 0 (smoothness probe)."""
    p = MosParams(mob_degradation=True, vel_saturation=True)
    h = 1e-4
    d_left = (gummel_current(p, 0.8, 0.0) - gummel_current(p, 0.8, -h)) / h
    d_right = (gummel_current(p, 0.8, h) - gummel_current(p, 0.8, 0.0)) / h
    assert d_left == pytest.approx(d_right, rel=1e-6)
