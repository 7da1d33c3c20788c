"""RRAM circuit harnesses: hysteresis sweep and 1T1R cell."""

import numpy as np

from synapsim.mosfet import MosParams
from synapsim.rram import (RramParams, hysteresis_loop, read_1t1r, set_1t1r,
                           tuning_curve_1t1r)


def test_hysteresis_loop_shape_and_state_span():
    p = RramParams()
    v, i, x = hysteresis_loop(p, v_peak=1.2, period=1e-3)
    assert v.shape == i.shape == x.shape
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert x[0] < 0.01
    assert x.max() > 0.99          # positive lobe sets the device
    assert x[-1] < 0.01            # negative lobe resets it


def test_hysteresis_loop_is_pinched_with_branch_contrast():
    p = RramParams()
    v, i, x = hysteresis_loop(p, v_peak=1.2, period=1e-3)
    # compare branch currents at +20 mV on the rising and falling flanks
    # of the positive lobe; the falling flank carries the set device
    imax = np.abs(i).max()
    k = int(np.argmax(v))
    up, down = slice(0, k + 1), slice(k, len(v) // 2)
    i_up = np.interp(0.02, v[up], i[up])
    i_dn = np.interp(0.02, v[down][::-1], i[down][::-1])
    assert abs(np.interp(0.0, v[up], i[up])) < 0.01 * imax
    assert i_dn > 10.0 * i_up > 0.0


def test_1t1r_set_then_read_round_trip():
    rp, mp = RramParams(), MosParams()
    x = set_1t1r(rp, mp, v_pgm=0.9)
    assert 0.0 < x <= 1.0
    i = read_1t1r(rp, mp, x)
    assert i > read_1t1r(rp, mp, 0.0)


def test_1t1r_compliance_is_monotone_in_gate_drive():
    rp, mp = RramParams(), MosParams()
    xs, reads = tuning_curve_1t1r(rp, mp, np.linspace(0.3, 1.2, 5))
    assert np.all(np.diff(xs) >= -1e-12)
    assert np.all(np.diff(reads) >= -1e-15)
    assert reads[-1] / reads[0] > 3.0


def test_1t1r_tuning_curve_is_pinned():
    # the 1T1R transients stamp the MOSFET on every Newton iteration; a
    # change to that path must not move the programmed state or the read
    xs, reads = tuning_curve_1t1r(RramParams(), MosParams(),
                                  np.array([0.4, 0.8, 1.2]))
    np.testing.assert_allclose(
        xs, [0.5934467337884983, 0.9315284377882005, 0.9795789410733997],
        rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        reads, [1.4040714296714756e-05, 4.71405342559774e-05,
                5.387773153029676e-05], rtol=1e-12, atol=0)
