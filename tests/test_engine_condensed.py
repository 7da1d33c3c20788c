"""Compiled assembly and the condensed Newton step.

The condensed step (RRAM states eliminated, solve over the rest, states
back-substituted) is checked against a dense solve of the full Jacobian
on random small netlists; the compiled layout is checked for its solved
size and for dropping its cache when the circuit grows.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import synapsim.engine.mna as mna
from synapsim.engine import (AnalysisSpec, Capacitor, Circuit, ISource,
                             Mosfet, Resistor, RramElement, SystemLayout,
                             VSource, operating_point)
from synapsim.engine.mna import Assembler, EvalContext, post_step_aux
from synapsim.mosfet import MosParams
from synapsim.neuro import CrossbarSpec, build_crossbar, read_outputs
from synapsim.rram import RramParams

H = 1e-9


@st.composite
def netlists(draw):
    """A random circuit of R, C, V, I, XR and M elements on 2-4 nodes.

    Every node has a resistor to ground and at most one voltage source
    to ground, so the full Jacobian is nonsingular at any point."""
    n = draw(st.integers(2, 4))
    node = st.integers(0, n).map(str)
    c = Circuit()
    c.add_model("mem", "rram", RramParams())
    c.add_model("nfet", "cmg", MosParams())
    for k in range(1, n + 1):
        c.add(Resistor(f"rg{k}", str(k), "0",
                       draw(st.floats(1e3, 1e5))))
    for k in draw(st.sets(st.integers(1, n), max_size=n - 1)):
        c.add(VSource(f"v{k}", str(k), "0", dc=draw(st.floats(-1.0, 1.0))))
    kinds = st.sampled_from(["r", "c", "i", "xr", "m"])
    for j, kind in enumerate(draw(st.lists(kinds, min_size=1, max_size=6))):
        a, b = draw(node), draw(node)
        if kind == "r":
            c.add(Resistor(f"r{j}", a, b, draw(st.floats(1e2, 1e5))))
        elif kind == "c":
            c.add(Capacitor(f"c{j}", a, b, draw(st.floats(1e-13, 1e-11))))
        elif kind == "i":
            c.add(ISource(f"i{j}", a, b, dc=draw(st.floats(-1e-4, 1e-4))))
        elif kind == "xr":
            c.add(RramElement(f"xr{j}", a, b, model="mem",
                              x0=draw(st.floats(0.0, 1.0))))
        else:
            c.add(Mosfet(f"m{j}", a, draw(node), b, model="nfet"))
    return c


def _random_point(layout, rng):
    x = rng.uniform(-0.5, 0.5, layout.size)
    for e, row in layout.internal:
        x[row] = rng.uniform(0.0, 1.0)
    x[layout.n_nodes - 1:] *= 1e-3          # branch currents
    return x


@settings(max_examples=60, deadline=None)
@given(circuit=netlists(), mode=st.sampled_from(["dc", "be", "trap"]),
       gmin=st.sampled_from([0.0, 1e-6]), seed=st.integers(0, 2 ** 32 - 1))
def test_condensed_step_equals_full_solve(circuit, mode, gmin, seed):
    rng = np.random.default_rng(seed)
    layout = SystemLayout(circuit)
    x = _random_point(layout, rng)
    if mode == "dc":
        ctx = EvalContext(mode="dc", gmin=gmin)
    else:
        x_prev = _random_point(layout, rng)
        ctx = EvalContext(mode="tran", time=H, h=H, x_prev=x_prev, gmin=gmin)
        if mode == "trap":
            aux = post_step_aux(layout, ctx, _random_point(layout, rng))
            ctx = EvalContext(mode="tran", time=2 * H, h=H,
                              integrator="trap", x_prev=x_prev,
                              aux_prev=aux, gmin=gmin)
    f, jac, _ = Assembler(layout, ctx).assemble(x)
    step = jac.newton_step()
    full = np.linalg.solve(jac.dense(), -f)
    assert np.max(np.abs(step - full)) <= 1e-10 * np.max(np.abs(full))


def test_crossbar_read_solves_condensed_system(monkeypatch):
    spec = CrossbarSpec(n_inputs=32, n_outputs=16)
    c = build_crossbar(spec, RramParams())
    layout = SystemLayout(c)
    assert (layout.size, layout.solved_size) == (1152, 128)
    shapes = []
    solve = np.linalg.solve

    def spy(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(mna.np.linalg, "solve", spy)
    read_outputs(c, spec, np.full(32, 0.05))
    assert shapes and set(shapes) == {(128, 128)}


def test_element_added_after_an_analysis_is_seen():
    c = Circuit()
    c.add(VSource("v1", "a", "0", dc=1.0))
    c.add(Resistor("r1", "a", "0", 1e3))
    spec = AnalysisSpec(kind="op")
    first = operating_point(c, spec).column("i(v1)")[0]
    assert SystemLayout(c) is SystemLayout(c)
    before = SystemLayout(c)
    c.add(Resistor("r2", "a", "0", 1e3))
    assert SystemLayout(c) is not before
    second = operating_point(c, spec).column("i(v1)")[0]
    np.testing.assert_allclose([first, second], [-1e-3, -2e-3], rtol=1e-12)
    before = SystemLayout(c)
    c.add_model("mem", "rram", RramParams())
    assert SystemLayout(c) is not before
