"""Ward-Dutton terminal charges: neutrality, oracle, symmetric limit."""

import numpy as np
import pytest

from synapsim import MosParams, solve_charge_reference, terminal_charges
from synapsim.mosfet import (_partition_series, solve_charge_householder,
                             solve_charge_reference_grid)

from conftest import box_param_sets


def _trapezoid_charges(p, q, dv):
    """(q_g, q_d, q_s) from charges q on a uniform V_ch grid of spacing dv."""
    cum = np.concatenate(([0.0], np.cumsum((q[1:] + q[:-1]) * 0.5 * dv)))
    den = cum[-1]
    int_q2 = np.trapezoid(q * q, dx=dv)
    int_cum_q2 = np.trapezoid(cum * q * q, dx=dv)
    area = p.w * p.l
    q_d = -p.w * (p.l / den ** 2) * int_cum_q2
    q_s = -p.w * (p.l / den) * int_q2 - q_d
    q_g = area * p.q_b + p.w * (p.l / den) * int_q2
    return np.array([q_g, q_d, q_s])


def channel_partition_oracle(p, v_g, v_ds, n=20001):
    """Independent fine-grid oracle.

    Parametrize the channel by V_ch.  Current continuity gives
    y(V)/L = cum(V)/den with cum(V) = integral_0^V Q dV' and
    den = integral_0^Vds Q dV'.  Then

        integral_0^L Q dy       = L/den   * integral Q^2 dV
        integral_0^L (y/L) Q dy = L/den^2 * integral cum Q^2 dV

    evaluated by trapezoid with the reference solver on V grids of n and
    2n - 1 points, T(n) and T(2n - 1); one Richardson step,
    (4 T(2n - 1) - T(n)) / 3, cancels the trapezoid's dV^2 error term.
    """
    v = np.linspace(0.0, v_ds, 2 * n - 1)
    q = solve_charge_reference_grid(p, v_g, v)
    fine = _trapezoid_charges(p, q, v[1] - v[0])
    coarse = _trapezoid_charges(p, q[::2], v[2] - v[0])
    return (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("v_g,v_ds", [(0.6, 0.3), (0.9, 0.6), (1.3, 1.0),
                                      (0.3, 0.8), (1.0, 0.05)])
def test_partition_matches_fine_grid_oracle(v_g, v_ds):
    p = MosParams()
    q_g_o, q_d_o, q_s_o = channel_partition_oracle(p, v_g, v_ds)
    tc = terminal_charges(p, v_g, v_ds, method="reference")
    assert tc.q_g == pytest.approx(q_g_o, rel=1e-9, abs=0.0)
    assert tc.q_d == pytest.approx(q_d_o, rel=1e-9, abs=0.0)
    assert tc.q_s == pytest.approx(q_s_o, rel=1e-9, abs=0.0)


def test_charge_neutrality_on_grid():
    p = MosParams()
    worst = 0.0
    for v_g in np.linspace(-0.3, 1.5, 25):
        for v_ds in np.linspace(0.0, 1.0, 11):
            tc = terminal_charges(p, float(v_g), float(v_ds))
            worst = max(worst, abs(tc.total) / abs(tc.q_g))
    assert worst < 1e-12


def test_symmetric_limit_splits_evenly():
    p = MosParams()
    tc = terminal_charges(p, 1.0, 0.0)
    q = solve_charge_reference(p, 1.0, 0.0)
    area = p.w * p.l
    assert tc.q_d == pytest.approx(-area * q / 2.0, rel=1e-9, abs=0.0)
    assert tc.q_s == pytest.approx(tc.q_d, rel=1e-12, abs=0.0)
    assert tc.q_g == pytest.approx(area * (q + p.q_b), rel=1e-9, abs=0.0)
    assert tc.q_bulk == -area * p.q_b


def test_drain_gets_less_charge_for_positive_vds():
    p = MosParams()
    tc = terminal_charges(p, 1.0, 0.5)
    assert abs(tc.q_d) < abs(tc.q_s)


def test_negative_vds_relabels_terminals():
    p = MosParams()
    fwd = terminal_charges(p, 1.0 + 0.4, 0.4)   # swapped-device equivalent
    rev = terminal_charges(p, 1.0, -0.4)
    assert rev.q_d == fwd.q_s
    assert rev.q_s == fwd.q_d
    assert rev.q_g == fwd.q_g
    # per element of an array call, reversed next to forward points
    v_g = np.array([1.0, 1.0 + 0.4, 0.25, 0.5, 0.8])
    v_ds = np.array([-0.4, 0.4, -0.25, 0.25, 0.0])
    tc = terminal_charges(p, v_g, v_ds)
    for r, f in ((0, 1), (2, 3)):
        assert tc.q_d[r] == tc.q_s[f]
        assert tc.q_s[r] == tc.q_d[f]
        assert tc.q_g[r] == tc.q_g[f]
    for k in range(v_g.size):
        one = terminal_charges(p, v_g[k], v_ds[k])
        for name in ("q_g", "q_d", "q_s", "q_bulk"):
            assert getattr(tc, name)[k] == pytest.approx(getattr(one, name),
                                                         rel=1e-14, abs=0.0)
    # pre-solved end charges are given in the caller's orientation
    q_is = solve_charge_reference_grid(p, v_g, 0.0)
    q_id = solve_charge_reference_grid(p, v_g, v_ds)
    pre = terminal_charges(p, v_g, v_ds, q_is=q_is, q_id=q_id)
    ref = terminal_charges(p, v_g, v_ds, method="reference")
    for name in ("q_g", "q_d", "q_s"):
        np.testing.assert_allclose(getattr(pre, name), getattr(ref, name),
                                   rtol=1e-12)


def test_partition_near_symmetry_matches_series():
    """Down to a drain-source split of 1e-16, either way round, the
    quadrature matches the second-order series around the symmetric
    point, and equal end charges split the channel charge exactly."""
    v_g = np.linspace(-0.5, 1.5, 41)
    splits = np.logspace(-5, -16, 23)
    splits = np.concatenate((splits, -splits))
    for p in box_param_sets():
        area = p.w * p.l
        q = solve_charge_householder(p, v_g, 0.0)
        q_is = q[:, None]
        q_id = q_is * ((1.0 - splits) / (1.0 + splits))
        tc = terminal_charges(p, 0.0, 0.0, q_is=q_is, q_id=q_id)
        avg, drain = _partition_series(p, q_is, q_id)
        assert tc.q_d == pytest.approx(-area * drain, rel=1e-14, abs=0.0)
        assert tc.q_s == pytest.approx(-area * (avg - drain), rel=1e-14,
                                       abs=0.0)
        assert tc.q_g == pytest.approx(area * (avg + p.q_b), rel=1e-14,
                                       abs=0.0)
        tc = terminal_charges(p, 0.0, 0.0, q_is=q, q_id=q)
        assert np.array_equal(tc.q_d, -area * q / 2.0)
        assert np.array_equal(tc.q_s, tc.q_d)
