"""Transient steps land on the corners of PULSE sources.

A corner is a time where a PULSE waveform's slope changes: the start and
end of its rise and of its fall, in every period.  A step that would
pass one ends on it, as SPICE ends a step on every source breakpoint
(Nagel 1975), so each smooth stretch of the drive is integrated at the
integrator's own order.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synapsim.engine import (AnalysisSpec, Capacitor, Circuit, PulseSpec,
                             Resistor, VSource, parse_netlist, run_analysis,
                             transient)
from synapsim.engine.analysis import _CORNER_TOL, MAX_STEPS


def _rc(pulse: PulseSpec, tau: float = 1e-3) -> Circuit:
    c = Circuit()
    c.add(VSource("v1", "in", "0", pulse=pulse))
    c.add(Resistor("r1", "in", "out", 1e3))
    c.add(Capacitor("c1", "out", "0", tau / 1e3))
    return c


def _corners(p: PulseSpec, tstop: float) -> list:
    """Every corner in (0, tstop), listed period by period."""
    phases = [0.0, p.tr, p.tr + p.pw, p.tr + p.pw + p.tf]
    if p.per > 0:
        phases = [c for c in phases if c < p.per]
        starts = [p.td + k * p.per
                  for k in range(int((tstop - p.td) / p.per) + 2)]
    else:
        starts = [p.td]
    return sorted({s + c for s in starts for c in phases if 0 < s + c < tstop})


@st.composite
def pulse_runs(draw):
    """A PULSE, and the step, growth and stop of a run over a few of its
    periods, or over its one pulse when it has no period."""
    tstep = draw(st.floats(1e-9, 1e-3))
    span = st.floats(0.0, 20.0).map(lambda x: x * tstep)
    td, tr, pw, tf = (draw(span) for _ in range(4))
    per = draw(st.one_of(st.just(0.0), st.floats(0.5, 40.0).map(
        lambda x: x * tstep)))
    growth = draw(st.sampled_from([1.0, 1.05, 1.3]))
    tstop = draw(st.floats(1.0, 100.0)) * tstep
    return PulseSpec(0.0, 1.0, td, tr, tf, pw, per), tstep, growth, tstop


H = 4.3821510099873774e-4


@settings(max_examples=60, deadline=None)
@given(pulse_runs())
# two corners 8e-9 tstep apart: a step between them would be a sliver
@example((PulseSpec(0.0, 1.0, 0.0, 0.0, 8e-9 * H, H, 0.0), H, 1.0, 2 * H))
def test_the_steps_land_on_every_corner_and_pass_none(case):
    pulse, tstep, growth, tstop = case
    res = transient(_rc(pulse), AnalysisSpec(
        kind="tran", tstep=tstep, tstop=tstop, growth=growth, uic=True))
    t = res.column("time")
    tol = _CORNER_TOL * tstep
    for corner in _corners(pulse, tstop):
        # bit-exact, but where a step of the grid already ends within tol
        # of the corner, the corner lies within tol of the one before, or
        # within tol of tstop, where the last step lands instead
        k = int(np.argmin(np.abs(t - corner)))
        assert t[k] == corner or corner - tol <= t[k] <= corner + tol
        # no step passes it
        assert not np.any((t[:-1] < corner - tol) & (t[1:] > corner + tol))


def test_next_corner_follows_the_periods_of_value_at():
    # a period shorter than rise + width + fall cuts the fall: its end is
    # never reached, and the period's start is a corner
    p = PulseSpec(0.0, 1.0, td=1.0, tr=2.0, tf=2.0, pw=1.0, per=4.0)
    seen, t = [], 0.0
    while t < 14.0:
        t = p.next_corner(t)
        seen.append(t)
    assert seen == [1.0, 3.0, 4.0, 5.0, 7.0, 8.0, 9.0, 11.0, 12.0, 13.0,
                    15.0]
    once = PulseSpec(0.0, 1.0, td=0.0, tr=1.0, tf=1.0, pw=1.0, per=0.0)
    assert once.next_corner(2.5) == 3.0
    assert once.next_corner(3.0) == math.inf


def test_an_rc_off_grid_ramp_integrates_at_order_2():
    # a trapezoid drive whose corners fall between the steps of all three
    # grids, against the RC closed form, segment by segment
    tau = 1e-3
    pulse = PulseSpec(0.0, 1.0, td=0.13e-3, tr=0.37e-3, tf=0.31e-3,
                      pw=0.71e-3, per=0.0)
    knots = [0.0] + _corners(pulse, 2e-3)

    def exact(t):
        v = 0.0
        for a, b in zip(knots, knots[1:] + [math.inf]):
            if t <= a:
                break
            end = min(t, b)
            u0, u1 = pulse.value_at(a), pulse.value_at(min(b, 2e-3))
            slope = (u1 - u0) / (b - a) if b < math.inf else 0.0
            e = math.exp(-(end - a) / tau)
            v = u0 + slope * (end - a) - slope * tau + (
                v - u0 + slope * tau) * e
        return v

    errors = []
    for tstep in (30e-6, 15e-6, 7.5e-6):
        res = transient(_rc(pulse, tau), AnalysisSpec(
            kind="tran", tstep=tstep, tstop=2e-3, uic=True,
            integrator="trap"))
        t, v = res.column("time"), res.column("v(out)")
        assert set(knots[1:]) <= set(t)
        errors.append(max(abs(vk - exact(tk)) for tk, vk in zip(t, v)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.2)


def test_a_pulse_of_too_many_corners_is_refused_before_compiling():
    # a period in fs under a run of 1 ms: 4e12 corners
    c = _rc(PulseSpec(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1e-15))
    with pytest.raises(ValueError, match=f"source 'v1'.*MAX_STEPS = "
                                         f"{MAX_STEPS}"):
        transient(c, AnalysisSpec(kind="tran", tstep=1e-6, tstop=1e-3))
    assert c._layout is None


def test_the_cli_refuses_a_pulse_of_too_many_corners(tmp_path, capsys):
    from synapsim.cli import main

    net = tmp_path / "fs.sp"
    net.write_text("v1 a 0 pulse(0 1 0 0 0 0 1e-15)\nr1 a b 1k\n"
                   "c1 b 0 1n\n.tran 1u 1m\n.end\n")
    out = tmp_path / "o.csv"
    assert main(["run", str(net), "--out", str(out)]) == 2
    assert not out.exists()
    assert "source 'v1'" in capsys.readouterr().err


def test_a_uniform_grid_on_its_corners_keeps_its_steps():
    # rram-iv's drive: corners every 250 steps of 1 us, which a sum of
    # steps reaches only to within its rounding
    r = parse_netlist("V1 a 0 PULSE(0 1.2 0 0.25m 0.25m 0 1m)\nR1 a b 1k\n"
                      "C1 b 0 1n\n.tran 1u 1m uic\n.end\n")
    res = run_analysis(r.circuit, r.analyses[0])
    t = res.column("time")
    assert len(t) == 1001
    np.testing.assert_allclose(np.diff(t), 1e-6, rtol=1e-9)
