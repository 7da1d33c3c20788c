"""RRAM circuit harnesses: hysteresis sweep and 1T1R cell."""

import numpy as np

import synapsim.neuro.crossbar as crossbar
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


def test_hysteresis_loop_is_pinned():
    # rram-iv at its CLI defaults: one lone-circuit transient, sampled
    # while the filament sets, at the positive peak, while it resets and
    # at the negative peak
    v, i, x = hysteresis_loop(RramParams(), v_peak=1.2, period=1e-3,
                              tstep=1e-6)
    pins = [(10, 0.048, 8.178790949758021e-06, 0.614391418117718),
            (25, 0.12000000000000002, 8.198355030095363e-05,
             0.9089974021031108),
            (250, 1.199999999999998, 0.015186246367921574,
             0.9999781651344022),
            (510, -0.04800000000002822, -2.8518052396166243e-06,
             0.3856067955476753),
            (525, -0.12000000000002997, -1.8955571680419035e-06,
             0.09100248475514258),
            (750, -1.1999999999999438, -0.0001518930072855871,
             2.183486558886446e-05)]
    k = [row[0] for row in pins]
    np.testing.assert_allclose(np.column_stack([v[k], i[k], x[k]]),
                               [row[1:] for row in pins], rtol=1e-12, atol=0)


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
        xs, [0.594213290403007, 0.9320117714102337, 0.9797979378082068],
        rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        reads, [1.4084857277980669e-05, 4.720665292900103e-05,
                5.390908560515181e-05], rtol=1e-12, atol=0)


def test_1t1r_entry_points_share_one_set_of_conditions():
    # every entry point reads the SET, read and gate conditions from the
    # one declaration in rram, so a tuning-curve point is bit for bit a
    # lone SET followed by a read, and the crossbar's 1T1R calibration
    # SETs as the tuning curve does
    rp, mp = RramParams(), MosParams()
    v_pgm = [0.4, 0.8, 1.2]
    xs, reads = tuning_curve_1t1r(rp, mp, v_pgm)
    for v, x, i in zip(v_pgm, xs, reads):
        x_set = set_1t1r(rp, mp, v)
        assert x_set == x
        assert read_1t1r(rp, mp, x_set) == i
    assert np.array_equal(
        crossbar._gate_calibration(rp),
        tuning_curve_1t1r(rp, mp, crossbar._GATE_GRID)[0])
