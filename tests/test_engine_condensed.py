"""Compiled assembly and the condensed Newton step.

The condensed step (RRAM states and grounded voltage sources eliminated,
solve over the rest, states and branch currents back-substituted) is
checked against a dense solve of the full Jacobian on random small
netlists; the compiled layout is checked for its solved size and for
dropping its cache when the circuit grows.  The RRAM stamp
calls its model per device on floats when it has few devices and once
on arrays when it has many, and the voltage-source stamp fills its
slots per source or from arrays in the same way; each pair of paths is
checked against each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synapsim.engine.mna as mna
from synapsim.engine import (AnalysisSpec, Capacitor, Circuit, ISource,
                             Mosfet, PulseSpec, Resistor, RramElement,
                             SystemLayout, VSource, operating_point,
                             parse_netlist, run_analysis)
from synapsim.engine.mna import Assembler, EvalContext, post_step_aux
from synapsim.mosfet import MosParams
from synapsim.neuro import CrossbarSpec, build_crossbar, read_outputs
from synapsim.rram import RramParams

H = 1e-9


@st.composite
def netlists(draw):
    """A random circuit of R, C, V, I, XR and M elements on 2-4 nodes.

    Every node has a resistor to ground.  Some nodes have a voltage
    source to ground, either way round (pinned unknowns), and a few
    sources join two nodes (solved unknowns); the sources form no loop,
    so the full Jacobian is nonsingular at any point."""
    n = draw(st.integers(2, 4))
    node = st.integers(0, n).map(str)
    c = Circuit()
    c.add_model("mem", "rram", RramParams())
    c.add_model("nfet", "cmg", MosParams())
    for k in range(1, n + 1):
        c.add(Resistor(f"rg{k}", str(k), "0",
                       draw(st.floats(1e3, 1e5))))
    # the tree of nodes joined by sources, as each node's root
    root = list(range(n + 1))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    volts = st.floats(-1.0, 1.0)
    for k in sorted(draw(st.sets(st.integers(1, n), max_size=n - 1))):
        ends = (str(k), "0") if draw(st.booleans()) else ("0", str(k))
        c.add(VSource(f"v{k}", *ends, dc=draw(volts)))
        root[k] = 0
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    for j, (a, b) in enumerate(draw(st.lists(pairs, max_size=2))):
        if find(a) != find(b):
            c.add(VSource(f"vf{j}", str(a), str(b), dc=draw(volts)))
            root[find(a)] = find(b)
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
    _assert_step_is_full_solve(layout, ctx, x)


def _assert_step_is_full_solve(layout, ctx, x):
    f, jac, _ = Assembler(layout, ctx).assemble(x)
    step = jac.newton_step()
    full = np.linalg.solve(jac.dense(), -f)
    assert np.max(np.abs(step - full)) <= 1e-10 * np.max(np.abs(full))


@pytest.mark.parametrize("integrator", ["be", "trap"])
def test_1t1r_transient_step_equals_full_solve(integrator):
    # the RRAM state is condensed between a pinned node (top) and a
    # solved one (mid): its fill reaches mid's row in top's column
    from synapsim.rram import _build_1t1r

    layout = SystemLayout(_build_1t1r(RramParams(), MosParams(), 1.0, 0.8))
    assert layout.solved_size == 1
    rng = np.random.default_rng(5)
    x_prev = _random_point(layout, rng)
    ctx = EvalContext(mode="tran", time=H, h=H, x_prev=x_prev)
    if integrator == "trap":
        aux = post_step_aux(layout, ctx, _random_point(layout, rng))
        ctx = EvalContext(mode="tran", time=2 * H, h=H, integrator="trap",
                          x_prev=x_prev, aux_prev=aux)
    _assert_step_is_full_solve(layout, ctx, _random_point(layout, rng))


def test_crossbar_read_solves_condensed_system(monkeypatch):
    spec = CrossbarSpec(n_inputs=32, n_outputs=16)
    c = build_crossbar(spec, RramParams())
    layout = SystemLayout(c)
    # every node is held by a grounded source: nothing is left to solve
    assert (layout.size, layout.solved_size) == (1152, 0)
    shapes = []
    solve = np.linalg.solve

    def spy(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(mna.np.linalg, "solve", spy)
    read_outputs(c, spec, np.full(32, 0.05))
    assert shapes and set(shapes) == {(0, 0)}


def _solved_size(text: str) -> int:
    return SystemLayout(parse_netlist(text).circuit).solved_size


@pytest.mark.parametrize("text,solved", [
    # one pinned node: its voltage and branch current leave the solve
    ("v1 a 0 dc 1\nr1 a 0 1k\n.end", 0),
    ("v1 0 a dc 1\nr1 a 0 1k\n.end", 0),
    # a node held by two grounded sources is not pinned
    ("v1 a 0 dc 1\nv2 0 a dc -1\nr1 a 0 1k\nv3 b 0 dc 1\nr2 b 0 1k\n.end",
     3),
    # a source between two nodes stays solved, and so does its node b
    ("v1 a 0 dc 1\nv2 b a dc 1\nr1 b 0 1k\n.end", 2),
])
def test_grounded_sources_leave_the_solve(text, solved):
    assert _solved_size(text) == solved


def test_solved_sizes_of_the_experiment_circuits():
    from synapsim.floatgate import FloatingGateParams, _fg_circuit
    from synapsim.neuro.crossbar import _pulse_cell
    from synapsim.rram import _build_1t1r

    p = RramParams()
    # the rram-iv drive: two sources in series, only the lower grounded
    iv = parse_netlist(".model mem rram\nvpos a b dc 1\nvneg b 0 dc 0\n"
                       "xr1 a 0 model=mem\n.end").circuit
    circuits = {"pulse cell": _pulse_cell(p, 0.5, 1.0, 1e-6, 10)[0],
                "1t1r": _build_1t1r(p, MosParams(), 1.0, 0.8),
                "fg cell": _fg_circuit(FloatingGateParams(), 0.0, 0.6, 1.0),
                "rram-iv": iv}
    sizes = {name: SystemLayout(c).solved_size
             for name, c in circuits.items()}
    assert sizes == {"pulse cell": 0, "1t1r": 1, "fg cell": 1, "rram-iv": 2}


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


def _sources(k: int) -> Circuit:
    """k pulse sources, each on its own node with a resistor to ground;
    every other one is grounded, the rest drive their node from the
    next one's."""
    c = Circuit()
    for j in range(k):
        pulse = PulseSpec(0.0, 1.0 + j, 1e-9, 1e-9, 1e-9, 5e-9, 2e-8)
        low = "0" if j % 2 or j == k - 1 else f"n{j + 1}"
        c.add(VSource(f"V{j}", f"n{j}", low, pulse=pulse))
        c.add(Resistor(f"r{j}", f"n{j}", "0", 1e3 * (j + 1)))
    return c


@pytest.mark.parametrize("mode", ["dc", "tran"])
def test_source_stamp_on_arrays_matches_per_element_stamp(mode):
    k = mna._VECTOR_MIN
    raws = []
    for vector_min in (k, k + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mna, "_VECTOR_MIN", vector_min)
            layout = SystemLayout(_sources(k))
        (stamp,) = [st for st in layout.stamps[mode]
                    if isinstance(st, mna._VSource)]
        assert stamp.vector == (vector_min == k)
        ctx = EvalContext(mode=mode, time=2.5e-9, sfactor=0.75,
                          src_override={"V3": 0.25})
        x = np.random.default_rng(1).uniform(-1.0, 1.0, layout.size)
        raws.append(Assembler(layout, ctx).assemble(x)[1].raw)
    assert np.array_equal(*raws)


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
