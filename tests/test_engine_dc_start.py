"""The DC start: each operating-point attempt starts with its pinned nodes
at their sources' values.

The oracle is the cold start, a plain ``newton_solve`` from the carried
state with every node at 0 V: ``operating_point`` must reach the same
point, on random netlists and on the experiments' operating points, and
on the experiments' reads it must take no more Newton iterations.  The
random netlists check the point only: where a solved node starts at 0 V
beside a pinned one, a device between them is linearized away from its
final bias, and about 1% of them take one to three iterations more.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings

import synapsim.engine.mna as mna
from synapsim.engine import (AnalysisSpec, SystemLayout, dc_sweep,
                             operating_point, parse_netlist)
from synapsim.engine.mna import EvalContext, newton_solve
from synapsim.floatgate import FloatingGateParams, _fg_circuit
from synapsim.mosfet import MosParams
from synapsim.neuro import CrossbarSpec, build_crossbar, set_states
from synapsim.rram import RramParams, _build_1t1r

from test_engine_condensed import netlists


def _cold_start(circuit, tol):
    """(x, converged, iterations) of a plain Newton solve from the
    carried state with every node at 0 V."""
    layout = SystemLayout(circuit)
    ctx = EvalContext(mode="dc")
    x, ok, _ = newton_solve(layout, ctx, layout.initial_vector(), tol)
    return x, ok, ctx.iterations


def _assert_same_point(circuit, x, cold):
    """x equals cold within 1e-12 of the largest node voltage (for the
    voltages and states) or branch current (for the currents), plus a
    millionth of the Newton tolerance: below that two converged solves
    differ by the rounding of a row's larger contributions."""
    layout = SystemLayout(circuit)
    volts = np.arange(layout.size) < layout.n_nodes - 1
    bound = np.where(
        volts, 1e-12 * np.max(np.abs(cold[volts])) + 1e-6 * mna.VABSTOL,
        1e-12 * np.max(np.abs(cold[~volts]), initial=0.0)
        + 1e-6 * mna.IABSTOL)
    worst = int(np.argmax(np.abs(x - cold) - bound))
    assert abs(x[worst] - cold[worst]) <= bound[worst], layout.row_name(worst)


# two solves that converge at the default reltol of 1e-6 agree to about
# reltol squared, the bound itself (3 of 4000 random netlists missed it
# by up to 1.3x), so the random netlists are solved at 1e-9
_TIGHT = AnalysisSpec(kind="op", reltol=1e-9)


@settings(max_examples=60, deadline=None)
@given(circuit=netlists())
def test_dc_start_reaches_the_cold_start_point(circuit):
    cold, ok, _ = _cold_start(circuit, _TIGHT)
    assume(ok)
    x = operating_point(circuit, _TIGHT).data[0]
    _assert_same_point(circuit, x, cold)


def _crossbar():
    spec = CrossbarSpec(n_inputs=32, n_outputs=16)
    c = build_crossbar(spec, RramParams())
    rng = np.random.default_rng(3)
    set_states(c, spec, rng.uniform(0.0, 1.0, (32, 16)),
               rng.uniform(0.0, 1.0, (32, 16)))
    for i, v in enumerate(rng.uniform(0.0, spec.v_read, 32)):
        c.element(f"vw{i}").dc = float(v)
    return c


def _1t1r_read(x):
    # the rram-tune read: 0.1 V on the cell, the access gate at 1.5 V
    c = _build_1t1r(RramParams(), MosParams(), 0.1, 1.5)
    c.state["xr1"] = x
    return c


def _rram_iv(v_pos, v_neg):
    # the rram-iv drive, two sources in series, at fixed values
    return parse_netlist(f".model mem rram\nvpos a b dc {v_pos}\n"
                         f"vneg b 0 dc {v_neg}\nxr1 a 0 model=mem x0=0.4\n"
                         ".end").circuit


_EXPERIMENTS = {
    "crossbar": _crossbar,
    "1t1r x=0.05": lambda: _1t1r_read(0.05),
    "1t1r x=0.6": lambda: _1t1r_read(0.6),
    "1t1r x=0.97": lambda: _1t1r_read(0.97),
    "fg q=0": lambda: _fg_circuit(FloatingGateParams(), 0.0, 0.6, 1.0),
    "fg q=2e-17": lambda: _fg_circuit(FloatingGateParams(), 2e-17, 0.6,
                                      1.0),
    "fg q=-3e-17": lambda: _fg_circuit(FloatingGateParams(), -3e-17, 0.6,
                                       1.0),
    "rram-iv 1.0 0.0": lambda: _rram_iv(1.0, 0.0),
    "rram-iv 0.7 -0.3": lambda: _rram_iv(0.7, -0.3),
}


@pytest.mark.parametrize("name", list(_EXPERIMENTS))
def test_experiment_reads_match_the_cold_start_in_no_more_iterations(name):
    tol = AnalysisSpec(kind="op")
    circuit = _EXPERIMENTS[name]()
    cold, ok, iterations = _cold_start(circuit, tol)
    assert ok
    res = operating_point(circuit, tol)
    _assert_same_point(circuit, res.data[0], cold)
    assert res.stats["path"] == "newton"
    assert res.stats["newton_iterations"] <= iterations


def test_every_attempt_starts_at_its_own_targets(monkeypatch):
    # the series-resistor circuit that needs source stepping at
    # max_iter=6: every attempt, gmin steps and source steps alike,
    # starts with node a at its scaled source value, and the carried
    # state vector is never written
    circuit = parse_netlist(".model mem rram\nv1 a 0 dc 2.0\nr1 a b 1\n"
                            "xr1 b 0 model=mem x0=1\n.end").circuit
    layout = SystemLayout(circuit)
    a = layout.circuit.nodes["a"] - 1
    starts = []
    solve = mna.newton_solve

    def spy(lay, ctx, x0, tol):
        starts.append((ctx.sfactor, x0[a], ctx.seed.copy()))
        return solve(lay, ctx, x0, tol)

    monkeypatch.setattr(mna, "newton_solve", spy)
    res = operating_point(circuit, AnalysisSpec(kind="op", max_iter=6))
    assert res.stats["path"] == "source"
    assert {s for s, _, _ in starts} > {1.0, 0.25}
    for sfactor, v_a, seed in starts:
        assert v_a == 2.0 * sfactor
        assert np.array_equal(seed, layout.initial_vector())


@pytest.mark.parametrize("source,sign", [("v1 a 0", 1.0), ("v1 0 a", -1.0)])
def test_sweep_points_start_at_their_swept_value(source, sign):
    # node a is pinned either way round, so each point converges in 3
    # iterations: a step to the branch current, a step that confirms
    # it, and the residual test
    circuit = parse_netlist(f".model mem rram\n{source} dc 0\n"
                            "xr1 a 0 model=mem x0=1\n.end").circuit
    res = dc_sweep(circuit, AnalysisSpec(kind="dc", src="v1",
                                         start=0.25 * sign, stop=2.0 * sign,
                                         step=0.25 * sign))
    assert res.stats == {"newton_iterations": 3 * 8, "path": "newton"}
    np.testing.assert_array_equal(res.column("v(a)"), res.column("v1") * sign)
