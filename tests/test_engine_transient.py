"""Transient integration: accuracy, order, state handling, determinism."""

import math

import numpy as np
import pytest

from synapsim.engine import (AnalysisSpec, ConvergenceError, parse_netlist,
                             run_analysis, transient, transient_batch)
from synapsim.neuro.crossbar import _pulse_cell
from synapsim.rram import RramParams

RC_NETLIST = """
V1 in 0 DC 1.0
R1 in out 1k
C1 out 0 1u
.tran {tstep} 5m
.end
"""


def _rc_max_error(tstep: str, integrator: str) -> float:
    r = parse_netlist(RC_NETLIST.format(tstep=tstep))
    spec = r.analyses[0]
    spec.uic = True
    spec.integrator = integrator
    res = run_analysis(r.circuit, spec)
    t = res.column("time")
    v = res.column("v(out)")
    return float(np.max(np.abs(v - (1.0 - np.exp(-t / 1e-3)))))


def test_rc_backward_euler_error_bound():
    # tstep = RC/100
    assert _rc_max_error("10u", "be") < 1e-2


def test_rc_trapezoidal_error_bound():
    assert _rc_max_error("10u", "trap") < 1e-4


def test_integrator_order_ratios():
    be = _rc_max_error("10u", "be") / _rc_max_error("5u", "be")
    tr = _rc_max_error("10u", "trap") / _rc_max_error("5u", "trap")
    assert 1.7 < be < 2.3
    assert 3.4 < tr < 4.6


def test_pure_sources_track_dc_solution():
    r = parse_netlist("""
V1 in 0 PULSE(0 1 1u 1n 1n 5u 100u)
R1 in mid 1k
R2 mid 0 1k
.tran 0.5u 10u
.end
""")
    res = run_analysis(r.circuit, r.analyses[0])
    t = res.column("time")
    v_mid = res.column("v(mid)")
    pulse = r.circuit.element("v1").pulse
    expect = np.array([pulse.value_at(tt) / 2.0 for tt in t])
    assert np.max(np.abs(v_mid - expect)) < 1e-12


def test_dc_seeded_start_matches_operating_point():
    r = parse_netlist("""
V1 in 0 DC 1.0
R1 in out 1k
C1 out 0 1u
.tran 10u 100u
.end
""")
    res = run_analysis(r.circuit, r.analyses[0])
    # seeded from the DC solution: the capacitor is already charged
    assert res.column("v(out)")[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(res.column("v(out)") - 1.0)) < 1e-12


def test_rram_state_bounded_and_monotone_under_constant_bias():
    r = parse_netlist("""
.model mem rram
V1 a 0 DC 0.9
XR1 a 0 model=mem x0=0
.tran 1u 2m uic
.end
""")
    res = run_analysis(r.circuit, r.analyses[0])
    x = res.column("v(xr1#x)")
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert np.all(np.diff(x) >= 0.0)
    assert x[-1] > 0.9            # SET well underway at 0.9 V, 2 ms


def test_rram_zero_bias_inert():
    r = parse_netlist("""
.model mem rram
V1 a 0 DC 0.0
XR1 a 0 model=mem x0=0.37
.tran 10u 1m
.end
""")
    res = run_analysis(r.circuit, r.analyses[0])
    x = res.column("v(xr1#x)")
    assert np.all(x == 0.37)


def test_rram_hysteresis_loop_is_pinched():
    r = parse_netlist("""
* bipolar triangle 0 -> +1.2 -> 0 -> -1.2 -> 0 over 1 ms
.model mem rram
Vpos a b PULSE(0 1.2 0 0.25m 0.25m 0 1m)
Vneg b 0 PULSE(0 -1.2 0.5m 0.25m 0.25m 0 1m)
XR1 a 0 model=mem x0=0
.tran 1u 1m
.end
""")
    res = run_analysis(r.circuit, r.analyses[0])
    v = res.column("v(a)")
    i = -res.column("i(vpos)")
    x = res.column("v(xr1#x)")
    assert np.all((x >= 0.0) & (x <= 1.0))
    # branches differ near the origin: with the default rate constants
    # the device SETs within the first tens of mV, so compare the two
    # passes through +20 mV (up-sweep at ~4.2 us, return at ~496 us)
    t = res.column("time")
    v_cmp = 0.02
    t_up = 0.25e-3 * v_cmp / 1.2
    t_dn = 0.5e-3 - t_up
    i_up = np.interp(t_up, t, i)
    i_dn = np.interp(t_dn, t, i)
    assert i_dn > 10.0 * i_up > 0.0
    # pinched at the origin: both zero crossings carry negligible current
    crossings = np.where(np.diff(np.sign(v + 1e-18)))[0]
    assert len(crossings) >= 2
    i_scale = np.max(np.abs(i))
    for k in crossings:
        assert abs(i[k]) < 1e-2 * i_scale
    # the loop encloses nonzero area
    assert abs(np.trapezoid(i, v)) > 0.0
    # state written back for follow-on analyses
    assert r.circuit.state["xr1"] == x[-1]


def test_transient_timestep_underflow_aborts():
    r = parse_netlist("""
.model mem rram
V1 a 0 DC 1.5
XR1 a 0 model=mem x0=0
.tran 0.1m 1m uic
.end
""")
    spec = r.analyses[0]
    spec.max_iter = 1             # every Newton solve fails
    with pytest.raises(ConvergenceError, match="underflow"):
        run_analysis(r.circuit, spec)


@pytest.mark.parametrize("tstep,tstop,match", [
    (1e-15, 1.0, "MAX_STEPS"), (0.0, 1e-6, "positive"),
    (float("nan"), 1e-6, "positive"),
    (1e-9, float("inf"), "tstop must be finite"),
    (float("inf"), 1e-6, "tstep must be finite")])
def test_transient_rejects_an_unbounded_step_count(tstep, tstop, match):
    # each of these would step for ever, or for days, but an infinite
    # tstep, which would take one step of tstop
    c = parse_netlist("V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1n\n.end\n").circuit
    with pytest.raises(ValueError, match=match):
        transient(c, AnalysisSpec(kind="tran", tstep=tstep, tstop=tstop))


@pytest.mark.parametrize("growth", [0.5, 0.0, float("nan"), float("inf")])
def test_transient_rejects_a_growth_below_1_or_not_finite(growth):
    c = parse_netlist("V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1n\n.end\n").circuit
    with pytest.raises(ValueError, match="growth must be finite and at "
                                         "least 1"):
        transient(c, AnalysisSpec(kind="tran", tstep=1e-9, tstop=1e-6,
                                  growth=growth))


def test_geometric_steps_grow_by_growth_and_land_on_tstop():
    # steps of h0, h0 g, h0 g^2, ... and a last one cut to end on tstop
    c = parse_netlist("V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1n\n.end\n").circuit
    h0, g, tstop = 1e-9, 1.25, 1e-6
    res = transient(c, AnalysisSpec(kind="tran", tstep=h0, tstop=tstop,
                                    growth=g))
    t = res.column("time")
    n = len(t) - 1
    assert res.stats == {"steps": n, "halvings": 0,
                         "newton_iterations": res.stats["newton_iterations"]}
    assert n == math.ceil(math.log1p(tstop / h0 * (g - 1)) / math.log(g))
    np.testing.assert_allclose(np.diff(t)[:-1], h0 * g ** np.arange(n - 1),
                               rtol=1e-12)
    assert t[-1] == tstop


def test_max_steps_counts_the_geometric_grid():
    # 1 s at a 5 ns first step: 2e8 uniform steps, 177 growing by 1.1
    c = parse_netlist("V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1n\n.end\n").circuit
    with pytest.raises(ValueError, match="MAX_STEPS"):
        transient(c, AnalysisSpec(kind="tran", tstep=5e-9, tstop=1.0))
    res = transient(c, AnalysisSpec(kind="tran", tstep=5e-9, tstop=1.0,
                                    growth=1.1))
    assert res.stats["steps"] == 177
    assert res.column("time")[-1] == 1.0
    with pytest.raises(ValueError, match="growing by 1.00001 to tstop"):
        transient(c, AnalysisSpec(kind="tran", tstep=1e-15, tstop=1.0,
                                  growth=1.00001))


def test_a_halved_step_doubles_back_toward_the_growing_base_step():
    # a tight Newton budget halves the first steps of a fast pulse; each
    # accepted step is at most twice the last and never above the base
    # step h0 g^k of its index k, and the run still ends on tstop
    c, spec = _pulse_cell(RramParams(), 0.0, 1.0, 1e-4)
    spec.max_iter, spec.growth = 10, 1.5
    res = transient(c, spec)
    assert res.stats["halvings"] > 0
    h = np.diff(res.column("time"))
    assert np.all(h[1:] <= 2.0 * h[:-1] * (1 + 1e-12))
    assert np.all(h <= spec.tstep * spec.growth ** np.arange(len(h))
                  * (1 + 1e-12))
    assert res.column("time")[-1] == spec.tstop


@pytest.mark.parametrize("integrator", ["Trap", "trapezoidal", "gear", ""])
def test_unknown_integrator_is_rejected_before_any_step(integrator):
    # any name but "trap" used to integrate by backward Euler unannounced
    cells = [_pulse_cell(RramParams(), 0.25, 1.0, 1e-6) for _ in "ab"]
    cells[1][1].integrator = integrator
    message = f"integrator must be 'be' or 'trap', not {integrator!r}"
    with pytest.raises(ValueError, match=message):
        transient(*cells[1])
    with pytest.raises(ValueError, match=message):
        transient_batch(*zip(*cells))
    # no run wrote its state back
    assert [c.state for c, _ in cells] == [{}, {}]


def test_deterministic_csv_output():
    def run_once():
        r = parse_netlist("""
.model mem rram
Vpos a b PULSE(0 1.2 0 0.25m 0.25m 0 1m)
Vneg b 0 PULSE(0 -1.2 0.5m 0.25m 0.25m 0 1m)
XR1 a 0 model=mem x0=0
.tran 5u 1m
.end
""")
        return run_analysis(r.circuit, r.analyses[0]).to_csv()

    assert run_once() == run_once()


def test_csv_format_and_precision():
    r = parse_netlist("""
V1 in 0 DC 1.0
R1 in mid 7k
R2 mid 0 3k
.op
.end
""")
    res = run_analysis(r.circuit, r.analyses[0])
    res.metadata = ["analysis: op"]
    text = res.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "# analysis: op"
    assert lines[1].split(",")[0] == "v(in)"
    v_mid = float(lines[2].split(",")[1])
    assert v_mid == 0.3           # 12+ significant digits survive parsing


def test_uic_skips_dc_and_starts_from_zero():
    r = parse_netlist("""
V1 in 0 DC 1.0
R1 in out 1k
C1 out 0 1u
.tran 10u 50u uic
.end
""")
    res = run_analysis(r.circuit, r.analyses[0])
    assert res.column("v(out)")[0] == 0.0
    assert res.column("v(out)")[-1] > 0.04


def test_trapezoidal_charge_integral_identity():
    # with the trapezoidal companion, summing (i_n + i_{n-1}) h / 2 over
    # the all-trapezoidal panels reproduces C * (v_end - v_start) to
    # rounding; the first panel is excluded (backward-Euler startup)
    r = parse_netlist("""
V1 in 0 DC 1.0
R1 in out 10k
C1 out 0 1n
.tran 0.2u 100u uic
.end
""")
    spec = r.analyses[0]
    spec.integrator = "trap"
    res = run_analysis(r.circuit, spec)
    t = res.column("time")
    v_out = res.column("v(out)")
    i_r = (res.column("v(in)") - v_out) / 1e4
    q = np.trapezoid(i_r[1:], t[1:])
    assert q == pytest.approx(1e-9 * (v_out[-1] - v_out[1]), rel=1e-9, abs=0.0)
