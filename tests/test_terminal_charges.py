"""Ward-Dutton terminal charges: neutrality, oracle, symmetric limit."""

import numpy as np
import pytest

from synapsim import MosParams, solve_charge_reference, terminal_charges
from synapsim.mosfet import (solve_charge_reference_grid, _partition_series,
                             _partition_quadrature)


def channel_partition_oracle(p, v_g, v_ds, n=20001):
    """Independent fine-grid oracle.

    Parametrize the channel by V_ch.  Current continuity gives
    y(V)/L = cum(V)/den with cum(V) = integral_0^V Q dV' and
    den = integral_0^Vds Q dV'.  Then

        integral_0^L Q dy       = L/den   * integral Q^2 dV
        integral_0^L (y/L) Q dy = L/den^2 * integral cum Q^2 dV

    evaluated by trapezoid on a dense V grid with the reference solver.
    """
    v = np.linspace(0.0, v_ds, n)
    q = solve_charge_reference_grid(p, v_g, v)
    dv = v[1] - v[0]
    cum = np.concatenate(([0.0], np.cumsum((q[1:] + q[:-1]) * 0.5 * dv)))
    den = cum[-1]
    int_q2 = np.trapezoid(q * q, dx=dv)
    int_cum_q2 = np.trapezoid(cum * q * q, dx=dv)
    area = p.w * p.l
    q_d = -p.w * (p.l / den ** 2) * int_cum_q2
    q_s = -p.w * (p.l / den) * int_q2 - q_d
    q_g = area * p.q_b + p.w * (p.l / den) * int_q2
    return q_g, q_d, q_s


@pytest.mark.parametrize("v_g,v_ds", [(0.6, 0.3), (0.9, 0.6), (1.3, 1.0),
                                      (0.3, 0.8), (1.0, 0.05)])
def test_partition_matches_fine_grid_oracle(v_g, v_ds):
    p = MosParams()
    q_g_o, q_d_o, q_s_o = channel_partition_oracle(p, v_g, v_ds)
    tc = terminal_charges(p, v_g, v_ds, method="reference")
    assert tc.q_g == pytest.approx(q_g_o, rel=1e-6)
    assert tc.q_d == pytest.approx(q_d_o, rel=1e-6)
    assert tc.q_s == pytest.approx(q_s_o, rel=1e-6)


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
    assert tc.q_d == pytest.approx(-area * q / 2.0, rel=1e-9)
    assert tc.q_s == pytest.approx(tc.q_d, rel=1e-12)
    assert tc.q_g == pytest.approx(area * (q + p.q_b), rel=1e-9)
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
                                                         rel=1e-14)
    # pre-solved end charges are given in the caller's orientation
    q_is = solve_charge_reference_grid(p, v_g, 0.0)
    q_id = solve_charge_reference_grid(p, v_g, v_ds)
    pre = terminal_charges(p, v_g, v_ds, q_is=q_is, q_id=q_id)
    ref = terminal_charges(p, v_g, v_ds, method="reference")
    for name in ("q_g", "q_d", "q_s"):
        np.testing.assert_allclose(getattr(pre, name), getattr(ref, name),
                                   rtol=1e-12)


def _switch_vds(p, v_g):
    """V_ds at which |Q_is - Q_id| crosses 1e-6 (Q_is + Q_id)."""
    q_is = solve_charge_reference(p, v_g, 0.0)
    lo, hi = 1e-12, 1e-3
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        q_id = solve_charge_reference(p, v_g, mid)
        if abs(q_is - q_id) / (q_is + q_id) > 1e-6:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-9:
            break
    return np.sqrt(lo * hi)


def test_partition_branches_agree_at_seam():
    """Series and quadrature evaluations of the same end charges agree to
    1e-9 in the band around the switch where either could be active."""
    p = MosParams()
    for v_g in (0.5, 0.9, 1.3):
        q_is = solve_charge_reference(p, v_g, 0.0)
        for ratio in (3e-7, 1e-6, 3e-6):
            q_id = q_is * (1.0 - ratio) / (1.0 + ratio)
            avg_s, drain_s = _partition_series(p, q_is, q_id)
            avg_q, drain_q = _partition_quadrature(p, q_is, q_id)
            assert abs(avg_s - avg_q) / avg_q < 1e-9
            assert abs(drain_s - drain_q) / drain_q < 1e-9


def test_partition_continuous_across_series_switch():
    """A bias straddle tight enough that the physical drift of the
    partition is negligible shows no jump at the branch switch."""
    p = MosParams()
    for v_g in (0.5, 0.9, 1.3):
        v_sw = _switch_vds(p, v_g)
        below = terminal_charges(p, v_g, v_sw * (1.0 - 1e-4), method="reference")
        above = terminal_charges(p, v_g, v_sw * (1.0 + 1e-4), method="reference")
        scale = abs(below.q_d)
        assert abs(above.q_d - below.q_d) / scale < 1e-9
        assert abs(above.q_s - below.q_s) / scale < 1e-9
        assert abs(above.q_g - below.q_g) / abs(below.q_g) < 1e-9


def test_partition_continuity_fine_scan(monkeypatch):
    """No visible seam anywhere in a dense V_ds scan through the switch.

    The scan is repeated with the series branch disabled so the two
    traces differ only by the branch choice; physical drift cancels
    pointwise and any handover artifact would stand out directly.
    """
    import synapsim.mosfet as mosfet

    p = MosParams()
    v_g = 1.0
    v_sw = _switch_vds(p, v_g)
    v_grid = np.geomspace(0.25 * v_sw, 4.0 * v_sw, 400)
    q_d = np.array([terminal_charges(p, v_g, float(v)).q_d for v in v_grid])
    monkeypatch.setattr(mosfet, "_SYMMETRIC_SPLIT", 0.0)
    q_d_quad = np.array([terminal_charges(p, v_g, float(v)).q_d
                         for v in v_grid])
    assert np.max(np.abs(q_d - q_d_quad) / np.abs(q_d)) < 1e-9
