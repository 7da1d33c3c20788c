"""Implicit charge equation: reference and explicit solver contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synapsim import MosParams, implicit_residual, solve_charge_householder, \
    solve_charge_reference
from synapsim.mosfet import solve_charge_reference_grid, charge_solution

from conftest import box_param_sets

# Hand-computed from the SI constants (q = 1.602176634e-19, k = 1.380649e-23,
# eps0 = 8.8541878128e-12) for the default parameter set.
EXPECTED_V_T = 0.02585200    # kT/q at 300 K
EXPECTED_C_OX = 0.03453133   # 3.9 eps0 / 1 nm
EXPECTED_C_SI = 0.01035940   # 11.7 eps0 / 10 nm
EXPECTED_Q_B = 8.01088317e-5  # q 1e23 (10 nm)/2
EXPECTED_PHI_B = 0.4070793   # V_t ln(1e23/1.45e16)


def test_derived_constants():
    p = MosParams()
    assert p.v_t == pytest.approx(EXPECTED_V_T, rel=1e-6)
    assert p.c_ox == pytest.approx(EXPECTED_C_OX, rel=1e-6)
    assert p.c_si == pytest.approx(EXPECTED_C_SI, rel=1e-6)
    assert p.q_b == pytest.approx(EXPECTED_Q_B, rel=1e-9, abs=0.0)
    assert p.phi_b == pytest.approx(EXPECTED_PHI_B, rel=1e-6)
    assert p.qb5 == pytest.approx(p.q_b + 5 * p.v_t * p.c_si, rel=1e-12,
                                  abs=0.0)
    assert p.q_ref_sq == pytest.approx(
        1.602176634e-19 * (1.45e16 ** 2 / 1e23) * 10e-9 * p.qb5, rel=1e-9,
        abs=0.0)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        MosParams(t_si=-1e-9)
    with pytest.raises(ValueError):
        MosParams(n_a=1e12)  # below n_i
    with pytest.raises(ValueError):
        MosParams(mu0=0.0)


def test_reference_residual_over_random_biases(rng):
    """The defining oracle: the accepted root drives |F| below 1e-12 V."""
    for p in box_param_sets():
        v_g = rng.uniform(-0.5, 1.5, 40)
        v_ch = rng.uniform(0.0, 1.0, 40)
        for vg, vch in zip(v_g, v_ch):
            q = solve_charge_reference(p, vg, vch)
            assert q > 0.0
            assert abs(implicit_residual(p, q, vg, vch)) < 1e-12


def test_residual_strictly_decreasing_in_charge(default_params, rng):
    """F is monotone decreasing in Q_i, so the solved root is unique."""
    p = default_params
    q = np.logspace(-30, -1.5, 400)
    for vg in (-0.3, 0.1, 0.9, 1.5):
        f = implicit_residual(p, q, vg, 0.2)
        assert np.all(np.diff(f) < 0.0)


def test_deep_subthreshold_asymptote():
    """Q_i -> (Q_ref^2 / (Q_B + 5 V_t C_si)) exp(v_ov / V_t) deep below
    threshold; closed-form oracle independent of the solver."""
    p = MosParams()
    v_g = p.v_fb + p.q_b / p.c_ox - 0.5   # overdrive exactly -0.5 V
    expected = p.q_ref_sq / p.qb5 * math.exp(-0.5 / p.v_t)
    got = solve_charge_reference(p, v_g, 0.0)
    assert got == pytest.approx(expected, rel=0.01, abs=0.0)
    # much deeper: the asymptote becomes essentially exact
    v_g = p.v_fb + p.q_b / p.c_ox - 0.8
    expected = p.q_ref_sq / p.qb5 * math.exp(-0.8 / p.v_t)
    assert solve_charge_reference(p, v_g, 0.0) == pytest.approx(
        expected, rel=1e-6, abs=0.0)


def test_charge_increases_with_gate_bias(default_params):
    p = default_params
    v_g = np.linspace(-0.5, 1.5, 101)
    q = solve_charge_reference_grid(p, v_g, 0.0)
    assert np.all(np.diff(q) > 0.0)


def test_charge_decreases_with_channel_potential(default_params):
    p = default_params
    v_ch = np.linspace(0.0, 1.0, 51)
    q = solve_charge_reference_grid(p, 0.8, v_ch)
    assert np.all(np.diff(q) < 0.0)


def test_householder_matches_reference_across_box(rng):
    for p in box_param_sets():
        v_g = rng.uniform(-0.5, 1.5, 200)
        v_ch = rng.uniform(0.0, 1.0, 200)
        q_ref = solve_charge_reference_grid(p, v_g, v_ch)
        q_hh = solve_charge_householder(p, v_g, v_ch)
        assert np.max(np.abs(q_hh - q_ref) / q_ref) < 1e-6


def test_householder_dense_moderate_inversion(default_params):
    """The asymptote-blend crossover is the hardest region for the seed."""
    p = default_params
    v_g = np.linspace(-0.2, 0.7, 4001)
    q_ref = solve_charge_reference_grid(p, v_g, 0.0)
    q_hh = solve_charge_householder(p, v_g, 0.0)
    assert np.max(np.abs(q_hh - q_ref) / q_ref) < 1e-6


def test_householder_scalar_equals_vector(default_params):
    p = default_params
    v_g = np.linspace(-0.5, 1.5, 21)
    vec = solve_charge_householder(p, v_g, 0.25)
    for i, vg in enumerate(v_g):
        assert solve_charge_householder(p, float(vg), 0.25) == vec[i]


def test_householder_float_inputs_equal_array_path_bit_for_bit(default_params):
    """Python floats (np.float64 is one) take the float operations, 0-d
    and 1-d arrays numpy's; the charges are the same doubles.  V_g = -50 V
    drives the seed below the -700 clip, the first step past the -50 step
    clip and the result onto the -745 floor; 2e4 V puts every log-charge
    clip at its upper bound 6."""
    p = default_params
    nan = float("nan")
    v_g = np.array([-50.0, -30.0, -0.5, 0.2, 0.9, 1.5, 50.0, 2e4, nan])
    with np.errstate(all="ignore"):
        for v_ch in (0.0, 0.4, -0.4, nan):
            vec = solve_charge_householder(p, v_g, v_ch)
            for k, vg in enumerate(v_g):
                for args in ((float(vg), v_ch), (vg, np.float64(v_ch)),
                             (np.array(vg), np.array(v_ch))):
                    q = solve_charge_householder(p, *args)
                    assert type(q) is float
                    np.testing.assert_array_equal(q, vec[k])
        assert solve_charge_householder(p, -50.0) == float(np.exp(-745.0))
        assert solve_charge_householder(p, 2e4) == float(np.exp(6.0))
        assert math.isnan(solve_charge_householder(p, nan))
        assert math.isnan(solve_charge_householder(p, 0.5, nan))


def test_householder_deterministic(default_params):
    p = default_params
    v_g = np.linspace(-0.5, 1.5, 57)
    a = solve_charge_householder(p, v_g, 0.3)
    b = solve_charge_householder(p, v_g, 0.3)
    assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(
    v_g=st.floats(min_value=-0.5, max_value=1.5),
    v_ch=st.floats(min_value=0.0, max_value=1.0),
    n_a=st.floats(min_value=1e21, max_value=1e24),
    t_si=st.floats(min_value=5e-9, max_value=20e-9),
    eot=st.floats(min_value=0.8e-9, max_value=2e-9),
)
def test_solver_agreement_property(v_g, v_ch, n_a, t_si, eot):
    p = MosParams(n_a=n_a, t_si=t_si, eot=eot)
    q_ref = solve_charge_reference(p, v_g, v_ch)
    q_hh = solve_charge_householder(p, v_g, v_ch)
    assert q_hh > 0.0
    assert abs(q_hh - q_ref) / q_ref < 1e-6


def test_charge_solution_surface_potentials(default_params):
    """psi_s must invert back through Q_i = C_ox (V_g - V_fb - psi) - Q_B."""
    p = default_params
    sol = charge_solution(p, 0.9, 0.4)
    assert sol.residual < 1e-9
    q_back = p.c_ox * (0.9 - p.v_fb - sol.psi_ss) - p.q_b
    assert q_back == pytest.approx(sol.q_is, rel=1e-12, abs=0.0)
    q_back_d = p.c_ox * (0.9 - p.v_fb - sol.psi_sd) - p.q_b
    assert q_back_d == pytest.approx(sol.q_id, rel=1e-12, abs=0.0)
    assert sol.q_id < sol.q_is  # drain end is pinched for V_ds > 0
