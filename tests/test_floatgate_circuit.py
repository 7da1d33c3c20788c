"""Floating-gate subcircuit behavior: programming, reading, retention."""

import numpy as np
import pytest

from synapsim.engine import AnalysisSpec, transient
from synapsim.floatgate import (FloatingGateParams, _fg_circuit,
                                fg_program_pulse, fg_read_current,
                                program_pulse)

STRENGTHEN = 4.5       # V on pfb; stores ~0.75 V of gate potential
WEAKEN = -3.1          # V on nfb; tunnel cutoff lands stored charge near 0
WIDTH = 100e-6


def test_zero_width_pulse_is_noop():
    p = FloatingGateParams()
    r = program_pulse(p, 0.0, "pfb", STRENGTHEN, 0.0)
    assert r.delta_i == 0.0
    assert r.q_fg == 0.0


def test_pfb_pulse_strictly_increases_read_current():
    p = FloatingGateParams()
    r = program_pulse(p, 0.0, "pfb", STRENGTHEN, WIDTH)
    assert r.i_after > r.i_before
    assert r.q_fg > 0.0


def test_nfb_pulse_strictly_decreases_read_current():
    p = FloatingGateParams()
    q1 = fg_program_pulse(p, 0.0, "pfb", STRENGTHEN, WIDTH)
    r = program_pulse(p, q1, "nfb", WEAKEN, WIDTH)
    assert r.i_after < r.i_before
    assert r.q_fg < q1


def test_polarity_invariant_across_amplitudes():
    p = FloatingGateParams()
    for amp in (3.6, 4.5, 5.2):
        up = program_pulse(p, 0.0, "pfb", amp, WIDTH)
        assert up.delta_i >= 0.0
        down = program_pulse(p, up.q_fg, "nfb", -amp, WIDTH)
        assert down.delta_i <= 0.0


def test_repeated_pulses_monotone_with_diminishing_increments():
    p = FloatingGateParams()
    q = 0.0
    increments = []
    for _ in range(3):
        r = program_pulse(p, q, "pfb", STRENGTHEN, WIDTH)
        increments.append(r.delta_i)
        q = r.q_fg
    assert all(d > 0.0 for d in increments)
    assert increments[0] > increments[1] > increments[2]


def test_strengthen_weaken_round_trip():
    p = FloatingGateParams()
    i0 = fg_read_current(p, 0.0)
    up = program_pulse(p, 0.0, "pfb", STRENGTHEN, WIDTH)
    down = program_pulse(p, up.q_fg, "nfb", WEAKEN, WIDTH)
    excursion = abs(up.i_after - i0)
    assert abs(down.i_after - i0) < 0.2 * excursion


def test_read_transient_does_not_disturb_charge():
    # 1 ms at read bias: drain current flat to 1e-6 and stored charge
    # drift far below one pulse's transfer
    p = FloatingGateParams()
    q1 = fg_program_pulse(p, 0.0, "pfb", STRENGTHEN, WIDTH)
    c = _fg_circuit(p, q1, v_d=0.6, v_sg=1.0)
    res = transient(c, AnalysisSpec(kind="tran", tstep=10e-6, tstop=1e-3))
    i_d = -res.column("i(vd)")
    mid = len(i_d) // 2
    assert abs(i_d[-1] - i_d[mid]) / abs(i_d[mid]) < 1e-6
    drift = abs(c.state["xf1"] - q1)
    assert drift < 1e-12                      # coulombs over 1 ms
    assert drift < 1e-6 * abs(q1)             # vs the pulse's transfer


def test_fresh_device_read_is_subthreshold():
    # coupling puts the gate at ~0.33 V, well under threshold
    p = FloatingGateParams()
    i = fg_read_current(p, 0.0)
    assert 0.0 < i < 1e-5


def test_bad_terminal_rejected():
    p = FloatingGateParams()
    with pytest.raises(ValueError):
        fg_program_pulse(p, 0.0, "sg", 4.0, WIDTH)


def test_strengthen_weaken_results_are_pinned():
    # both pulses and all reads stamp the MOSFET on every Newton
    # iteration; a change to that path must not move Q_fg or the reads
    p = FloatingGateParams()
    up = program_pulse(p, 0.0, "pfb", STRENGTHEN, WIDTH)
    down = program_pulse(p, up.q_fg, "nfb", WEAKEN, WIDTH)
    got = [up.i_before, up.i_after, up.q_fg, down.i_before, down.i_after,
           down.q_fg]
    np.testing.assert_allclose(
        got, [2.5911478041815764e-07, 0.00025599291038185283,
              2.248928006116572e-16, 0.00025599291038185283,
              4.880472426551873e-07, 6.107807138834204e-18],
        rtol=1e-12, atol=0)
