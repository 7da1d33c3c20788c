"""DC operating point and sweep: exactness, consistency, homotopy."""

import math
import pickle

import numpy as np
import pytest
from scipy.optimize import brentq

from synapsim.engine import (AnalysisSpec, ConvergenceError, SystemLayout,
                             dc_sweep, operating_point, parse_netlist,
                             run_analysis)
from synapsim.engine.mna import IABSTOL, EvalContext
from synapsim.mosfet import MosParams, drain_current
from synapsim.neuro import CrossbarSpec, build_crossbar
from synapsim.rram import RramParams, rram_current

from mna_helpers import system_at


def _solve_op(text, **spec_kw):
    r = parse_netlist(text)
    spec = AnalysisSpec(kind="op", **spec_kw)
    return operating_point(r.circuit, spec), r.circuit


def test_voltage_divider_exact():
    res, _ = _solve_op("""
V1 in 0 DC 1.0
R1 in mid 1k
R2 mid 0 1k
.end
""")
    assert res.column("v(mid)")[0] == 0.5
    assert res.column("i(v1)")[0] == pytest.approx(-0.5e-3, rel=1e-12, abs=0.0)


def test_diode_connected_mosfet_matches_model():
    res, _ = _solve_op("""
.model nfet cmg
V1 d 0 DC 1.0
M1 d d 0 model=nfet
.end
""")
    i_engine = -res.column("i(v1)")[0]
    i_model = drain_current(MosParams(), 1.0, 1.0)
    assert i_engine == pytest.approx(i_model, rel=1e-6)


def test_1t1r_dc_read_composition():
    # X frozen at x0 in DC, so the branch current is the plain
    # composition of the conduction law with the solved node voltages
    res, circuit = _solve_op("""
.model nfet cmg
.model mem rram
Vpos top 0 DC 0.1
Vg g 0 DC 1.2
XR1 top mid model=mem x0=0.6
M1 mid g 0 model=nfet
.end
""")
    assert res.column("v(xr1#x)")[0] == 0.6
    v_mid = res.column("v(mid)")[0]
    i_branch = -res.column("i(vpos)")[0]
    assert i_branch == pytest.approx(
        rram_current(RramParams(), 0.1 - v_mid, 0.6), rel=1e-9, abs=0.0)
    assert circuit.state["xr1"] == 0.6


@pytest.mark.parametrize("kind", ["op", "dc", "tran"])
@pytest.mark.parametrize(
    "name, bad", [("reltol", 0.0), ("reltol", math.nan), ("max_iter", 0),
                  ("gmin", -1e-3), ("gmin", math.nan)],
    ids=["reltol", "reltol_nan", "max_iter", "gmin", "gmin_nan"])
def test_every_analysis_rejects_nonpositive_tolerance(kind, name, bad):
    # without the check, max_iter=0 would end in a source-stepping stall
    # that names no row, and gmin=-1e-3 would solve v(b) to 1 V, not 0.5 V
    r = parse_netlist("V1 a 0 DC 1\nR1 a b 1k\nR2 b 0 1k\n.end\n")
    spec = AnalysisSpec(kind=kind, src="v1", start=0.0, stop=1.0, step=0.5,
                        tstep=1e-6, tstop=1e-5, **{name: bad})
    with pytest.raises(ValueError, match=name):
        run_analysis(r.circuit, spec)


def test_kcl_residual_below_iabstol():
    r = parse_netlist("""
.model nfet cmg
.model mem rram
V1 top 0 DC 0.8
Vg g 0 DC 1.0
XR1 top mid model=mem x0=0.3
M1 mid g 0 model=nfet
R1 top 0 100k
.end
""")
    spec = AnalysisSpec(kind="op")
    res = run_analysis(r.circuit, spec)
    layout = SystemLayout(r.circuit)
    f = system_at(layout, EvalContext(mode="dc"), res.data[0]).f
    kcl = np.abs(f[layout.kcl("dc")])
    assert max(kcl) < IABSTOL


def test_idvg_sweep_matches_model_pointwise():
    r = parse_netlist("""
.model nfet cmg
Vg g 0 DC 0
Vd d 0 DC 0.6
M1 d g 0 model=nfet
.dc vg 0.2 1.2 0.05
.end
""")
    res = run_analysis(r.circuit, r.analyses[0])
    vg = res.column("vg")
    i_d = -res.column("i(vd)")
    p = MosParams()
    for v, i in zip(vg, i_d):
        assert i == pytest.approx(drain_current(p, float(v), 0.6), rel=1e-6,
                                  abs=0.0)


def test_linear_sweep_is_affine():
    r = parse_netlist("""
V1 in 0 DC 0
R1 in mid 2k
R2 mid 0 3k
.dc v1 -1 1 0.1
.end
""")
    res = run_analysis(r.circuit, r.analyses[0])
    v_in = res.column("v1")
    v_mid = res.column("v(mid)")
    coeffs = np.polyfit(v_in, v_mid, 1)
    fit = np.polyval(coeffs, v_in)
    assert np.max(np.abs(v_mid - fit)) < 1e-12
    assert coeffs[0] == pytest.approx(0.6, abs=1e-12)


def test_sweep_up_down_identical_for_memoryless_circuit():
    def sweep(start, stop, step):
        r = parse_netlist(f"""
.model nfet cmg
Vg g 0 DC 0
Vd d 0 DC 0.6
M1 d g 0 model=nfet
.dc vg {start} {stop} {step}
.end
""")
        return run_analysis(r.circuit, r.analyses[0])

    # binary-exact step so both directions visit bitwise-equal biases
    up = sweep(0.0, 1.0, 0.125)
    down = sweep(1.0, 0.0, -0.125)
    assert np.array_equal(up.data[:, 0], down.data[::-1, 0])
    assert np.array_equal(up.data[:, 1:], down.data[::-1, 1:])


# a series resistor keeps the device node a solved unknown, which a DC
# start cannot set to its final value
_TIGHT_BUDGET = """
.model mem rram
V1 a 0 DC 2.0
R1 a b 1
XR1 b 0 model=mem x0=1
.end
"""


def test_source_stepping_rescues_tight_iteration_budget():
    # 2 V through 1 ohm into a sinh conductor needs 10 damped Newton
    # iterations from the device node at 0 V; with max_iter=6 only the
    # source-stepping ladder works
    res, _ = _solve_op(_TIGHT_BUDGET, max_iter=6)
    assert res.stats["path"] == "source"
    p = RramParams()
    v_b = brentq(lambda v: (2.0 - v) / 1.0 - rram_current(p, v, 1.0),
                 0.0, 2.0, xtol=1e-15, rtol=1e-15)
    i = -res.column("i(v1)")[0]
    assert i == pytest.approx(rram_current(p, v_b, 1.0), rel=1e-9)
    assert res.column("v(b)")[0] == pytest.approx(v_b, rel=1e-9)


def test_bare_device_converges_by_plain_newton():
    # 2 V straight across the device: its node starts at the source's
    # value, so the plain solve needs no damping and no homotopy
    res, _ = _solve_op("""
.model mem rram
V1 a 0 DC 2.0
XR1 a 0 model=mem x0=1
.end
""", max_iter=6)
    assert res.stats["path"] == "newton"
    i = -res.column("i(v1)")[0]
    assert i == pytest.approx(rram_current(RramParams(), 2.0, 1.0),
                              rel=1e-9)


def test_op_stats_count_every_attempt_and_repeat():
    first, second = (_solve_op(_TIGHT_BUDGET, max_iter=6)[0].stats
                     for _ in range(2))
    assert first == second
    # the failed plain solve and the failed first gmin step ran the whole
    # budget before source stepping took over
    assert first["newton_iterations"] > 2 * 6
    res, _ = _solve_op(_TIGHT_BUDGET)
    assert res.stats["path"] == "newton"
    assert res.stats["newton_iterations"] <= 100


def test_crossbar_read_stats():
    # every node of a 32x16 read is pinned and starts at its source's
    # value: one step to the branch currents, one to confirm, and the
    # third assembly meets the residual test
    spec = CrossbarSpec(n_inputs=32, n_outputs=16)
    c = build_crossbar(spec, RramParams())
    for i in range(spec.n_inputs):
        c.element(f"vw{i}").dc = 0.05
    stats = [operating_point(c, AnalysisSpec(kind="op")).stats
             for _ in range(2)]
    assert stats == [{"newton_iterations": 3, "path": "newton"}] * 2


def test_sweep_stats_sum_over_points():
    text = """
.model mem rram
V1 a 0 DC 0
XR1 a 0 model=mem x0=1
.dc V1 0 1 0.25
.end
"""
    runs = []
    for _ in range(2):
        r = parse_netlist(text)
        runs.append(run_analysis(r.circuit, r.analyses[0]).stats)
    assert runs[0] == runs[1]
    assert runs[0]["path"] == "newton"
    assert runs[0]["newton_iterations"] >= 5


def test_floating_node_needs_nonzero_gmin():
    text = """
V1 a 0 DC 1.0
C1 a mid 1p
C2 mid 0 1p
.end
"""
    with pytest.raises(ConvergenceError):
        _solve_op(text)
    res, _ = _solve_op(text, gmin=1e-12)
    assert res.column("v(mid)")[0] == pytest.approx(0.0, abs=1e-15)


def test_op_failure_reports_worst_row():
    with pytest.raises(ConvergenceError) as exc:
        _solve_op("""
V1 a 0 DC 1.0
C1 a mid 1p
C2 mid 0 1p
.end
""")
    assert "worst residual" in str(exc.value)


def test_fg_dc_capacitive_divider():
    # equal caps, zero stored charge: the floating node sits at the mean
    res, _ = _solve_op("""
.model syn fg
Vd d 0 DC 0.0
Vsg sg 0 DC 0.9
Vnfb nfb 0 DC 0.3
Vpfb pfb 0 DC 0.6
XF1 d 0 sg nfb pfb model=syn
.end
""")
    assert res.column("v(xf1#fg)")[0] == pytest.approx(0.6, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("gmin", [0.0, 1e-3])
def test_fg_dc_respects_stored_charge(gmin):
    # gmin relaxes KCL rows only; the floating-gate row is a charge
    # constraint in DC and must hold the stored charge exactly
    res, _ = _solve_op("""
.model syn fg
Vd d 0 DC 0.0
Vsg sg 0 DC 0.9
Vnfb nfb 0 DC 0.0
Vpfb pfb 0 DC 0.0
XF1 d 0 sg nfb pfb model=syn qfg0=6e-17
.end
""", gmin=gmin)
    # v_fg = (sum C_i V_i + Q) / C_tot = 0.3 + 6e-17/3e-16
    assert res.column("v(xf1#fg)")[0] == pytest.approx(0.5, rel=1e-12, abs=0.0)


def test_circuit_pickled_after_an_analysis_gives_the_same_point():
    # the compiled layout cached on the circuit is not pickled; the copy
    # compiles its own and solves to the same bits
    res, c = _solve_op("""
.model mem rram
.model n cmg
V1 top 0 DC 0.4
XR1 top mid model=mem x0=0.6
M1 mid top 0 model=n
.end
""")
    copy = pickle.loads(pickle.dumps(c))
    again = operating_point(copy, AnalysisSpec(kind="op"))
    assert again.columns == res.columns
    assert again.data.tobytes() == res.data.tobytes()
