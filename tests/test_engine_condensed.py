"""Compiled assembly and the condensed Newton step.

The condensed step (RRAM states eliminated, solve over the rest, states
back-substituted) is checked against a dense solve of the full Jacobian
on random small netlists; the compiled layout is checked for its solved
size and for dropping its cache when the circuit grows.  The RRAM stamp
calls its model per device on floats when it has few devices and once
on arrays when it has many; the two paths are checked against each
other.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synapsim.engine.mna as mna
from synapsim.engine import (AnalysisSpec, Capacitor, Circuit, ISource,
                             Mosfet, Resistor, RramElement, SystemLayout,
                             VSource, operating_point, parse_netlist,
                             run_analysis)
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
       gmin=st.sampled_from([0.0, 1e-6]), seed=st.integers(0, 2 ** 32 - 1),
       vector_min=st.sampled_from([2, mna._VECTOR_MIN]))
def test_condensed_step_equals_full_solve(circuit, mode, gmin, seed,
                                          vector_min):
    rng = np.random.default_rng(seed)
    # a vector_min of 2 puts every stamp of two or more RRAM devices on
    # the array path, which these small circuits reach no other way
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mna, "_VECTOR_MIN", vector_min)
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


def _pulse_copies(k: int, card: str) -> str:
    """k disjoint copies of a one-device pulse circuit: a source driving
    an RRAM device through a series resistor."""
    lines = [".model mem rram"]
    for j in range(k):
        lines += [f"v{j} in{j} 0 dc 0.8", f"r{j} in{j} a{j} 100",
                  f"xr{j} a{j} 0 model=mem x0=0.3"]
    return "\n".join(lines + [card, ".end"])


@pytest.mark.parametrize("card,integrator", [(".op", "be"),
                                             (".tran 1n 40n", "be"),
                                             (".tran 1n 40n", "trap")])
def test_array_stamp_matches_one_device_float_stamp(card, integrator):
    k_array = mna._VECTOR_MIN
    assert SystemLayout(parse_netlist(_pulse_copies(
        k_array, card)).circuit).vector["dc"]
    results = []
    for k in (1, k_array):
        parsed = parse_netlist(_pulse_copies(k, card))
        spec = parsed.analyses[0]
        spec.integrator = integrator
        results.append(run_analysis(parsed.circuit, spec))
    one, copies = results
    # the transient moves the state, so the whole model is exercised
    assert one.column("v(xr0#x)")[-1] > (0.7 if card != ".op" else 0.29)
    for j in range(k_array):
        for col in ("v(a{})", "i(v{})", "v(xr{}#x)"):
            np.testing.assert_allclose(copies.column(col.format(j)),
                                       one.column(col.format(0)),
                                       rtol=1e-15, atol=0)


def test_rram_stamp_passes_floats_for_few_devices_arrays_for_many(
        monkeypatch):
    seen = []
    model = mna.rram_current_and_grads

    def spy(p, v, x):
        seen.append((type(v), type(x), np.shape(v)))
        return model(p, v, x)

    monkeypatch.setattr(mna, "rram_current_and_grads", spy)
    many = mna._VECTOR_MIN
    for k, expected in ((1, (float, float, ())),
                        (many - 1, (float, float, ())),
                        (many, (np.ndarray, np.ndarray, (many,)))):
        seen.clear()
        operating_point(parse_netlist(_pulse_copies(k, ".op")).circuit,
                        AnalysisSpec(kind="op"))
        assert seen and set(seen) == {expected}
