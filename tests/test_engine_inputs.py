"""One way into a compiled circuit.

A layout compiles every element field once; the fields it compiles are
frozen, so a change after an analysis raises instead of being ignored
by the next one.  At run time a solve reads source values off their
elements and the held device state off ``x_prev``; model parameters
reach an element through its model card only.
"""

import dataclasses

import pytest

import synapsim.engine.analysis as analysis
from synapsim.engine import (AnalysisSpec, ConvergenceError, SystemLayout,
                             dc_sweep, operating_point, parse_netlist)
from synapsim.engine.circuit import FloatGateElement, Mosfet, RramElement
from synapsim.engine.mna import EvalContext, newton_solve
from synapsim.floatgate import FloatingGateParams
from synapsim.mosfet import MosParams
from synapsim.rram import RramParams

_OP = AnalysisSpec(kind="op")

_EVERY_KIND = """
.model nfet cmg l=30n w=40n
.model mem rram
.model syn fg mos=nfet
v1 a 0 dc 1
i1 0 a dc 1u
r1 a b 1k
c1 b 0 1p
m1 b b 0 model=nfet
xr1 b 0 model=mem x0=0.25
xf1 b 0 g nb pb model=syn
vg g 0 dc 1
vnb nb 0 dc 0
vpb pb 0 dc 0
.end
"""


def test_divider_rejects_a_changed_resistor():
    c = parse_netlist("v1 a 0 dc 2\nr1 a b 1k\nr2 b 0 1k\n").circuit
    assert operating_point(c, _OP).column("v(b)")[0] == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.element("r2").value = 3e3


@pytest.mark.parametrize("name,field,value", [
    ("r1", "value", 2e3), ("c1", "value", 2e-12), ("m1", "model", "x"),
    ("xr1", "x0", 0.5), ("xf1", "qfg0", 1e-17), ("xr1", "params", None)])
def test_compiled_fields_are_frozen_after_an_analysis(name, field, value):
    c = parse_netlist(_EVERY_KIND).circuit
    operating_point(c, _OP)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(c.element(name), field, value)


@pytest.mark.parametrize("text,name,node", [
    ("v1 a 0 dc 1\nr1 a b 1k\nr2 b 0 1k\n", "v1", "b"),
    ("i1 0 a dc 1u\nr1 a 0 1k\n", "i1", "a")])
def test_a_changed_source_moves_the_next_operating_point(text, name, node):
    # linear circuits: the node voltage scales with the source
    c = parse_netlist(text).circuit
    before = operating_point(c, _OP).column(f"v({node})")[0]
    c.element(name).dc *= 3.0
    after = operating_point(c, _OP).column(f"v({node})")[0]
    assert before != 0.0
    assert after == pytest.approx(3.0 * before, rel=1e-12)


@pytest.mark.parametrize("cls,nodes,params", [
    (Mosfet, ("d", "g", "s"), MosParams(l=10e-9)),
    (RramElement, ("a", "b"), RramParams()),
    (FloatGateElement, ("d", "s", "sg", "nfb", "pfb"), FloatingGateParams())])
def test_elements_take_no_params_argument(cls, nodes, params):
    # parameters reach an element through its model card only
    with pytest.raises(TypeError):
        cls("x1", *nodes, model="card", params=params)


_SWEEP = AnalysisSpec(kind="dc", src="V1", start=0.0, stop=1.0, step=0.5)


@pytest.mark.parametrize("card,dc", [
    ("v1 a 0 dc 0.75", 0.75),
    ("v1 a 0 pulse(0 1 1n 1n 1n 5n 20n)", None)])
def test_sweep_leaves_its_source_as_it_found_it(card, dc):
    c = parse_netlist(f"{card}\nr1 a 0 1k\n").circuit
    pulse = c.element("v1").pulse
    res = dc_sweep(c, _SWEEP)
    assert res.column("v(a)").tolist() == [0.0, 0.5, 1.0]
    assert c.element("v1").dc == dc
    assert c.element("v1").pulse is pulse


def test_sweep_restores_its_source_when_a_point_fails(monkeypatch):
    c = parse_netlist("v1 a 0 pulse(0 1 1n 1n 1n 5n 20n)\n"
                      "r1 a 0 1k\n").circuit
    solve = analysis.solve_dc
    seen = []

    def fail_second(layout, tol, **kw):
        seen.append(c.element("v1").dc)
        if len(seen) == 2:
            raise ConvergenceError("second point")
        return solve(layout, tol, **kw)

    monkeypatch.setattr(analysis, "solve_dc", fail_second)
    with pytest.raises(ConvergenceError):
        dc_sweep(c, _SWEEP)
    assert seen == [0.0, 0.5]
    assert c.element("v1").dc is None


def test_dc_holds_the_device_state_of_x_prev():
    # the state row of an RRAM holds its x_prev entry, whatever the
    # circuit's carried state says
    c = parse_netlist(".model mem rram\nv1 a 0 dc 0.1\n"
                      "xr1 a 0 model=mem x0=0.25\n").circuit
    layout = SystemLayout(c)
    row = c.nodes["xr1#x"] - 1
    held = layout.initial_vector()
    assert held[row] == 0.25
    held[row] = 0.75
    x, ok, _ = newton_solve(layout, EvalContext(mode="dc", x_prev=held),
                            layout.initial_vector(), _OP)
    assert ok and x[row] == 0.75
    x, ok, _ = newton_solve(layout, EvalContext(mode="dc"),
                            layout.initial_vector(), _OP)
    assert ok and x[row] == 0.25
