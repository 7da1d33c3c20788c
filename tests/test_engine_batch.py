"""Lockstep transients: a batch of circuits equals each circuit run alone.

``transient_batch`` steps circuits of one topology together and solves
their Newton iterations in one loop; every circuit must get bit for bit
the result, the final state and the counts it gets from ``transient``
alone, whatever the other circuits of its batch do.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synapsim.engine.analysis as analysis
from synapsim.engine import (AnalysisSpec, Circuit, ConvergenceError,
                             ISource, Resistor, RramElement, SystemLayout,
                             Tolerances, VSource, parse_netlist, transient,
                             transient_batch)
from synapsim.engine.mna import (EvalContext, newton_solve,
                                 newton_solve_batch, solve_dc)
from synapsim.mosfet import MosParams
from synapsim.neuro import TrainConfig
from synapsim.neuro.crossbar import _pulse_cell
from synapsim.rram import RramParams, _pulse_1t1r_cell

P = RramParams()
CFG = TrainConfig()


@st.composite
def pulses(draw):
    """A one-device write pulse: any start state, either sign, a width
    anywhere in the verify loop's window (log-uniform)."""
    x0 = draw(st.floats(0.0, 1.0))
    amp = draw(st.floats(0.2, 1.5)) * draw(st.sampled_from([1.0, -1.0]))
    width = 10.0 ** draw(st.floats(np.log10(CFG.min_width),
                                   np.log10(CFG.max_width)))
    return lambda: _pulse_cell(P, x0, amp, width)


@st.composite
def sets_1t1r(draw):
    """A 1T1R SET at a random gate voltage from a random state, on the
    shipped geometric grid (23 to 63 steps over these widths)."""
    v_gate = draw(st.floats(0.25, 1.4))
    x0 = draw(st.floats(0.0, 1.0))
    width = 10.0 ** draw(st.floats(-7.0, -5.0))
    return lambda: _pulse_1t1r_cell(P, MosParams(), 1.0, v_gate, width=width,
                                    x0=x0)


def _assert_batch_equals_solo(makers, integrators):
    """Run the cells alone and as one batch; compare bit for bit."""
    solo, batch = [], []
    for make, integrator in zip(makers, integrators):
        for runs in (solo, batch):
            c, spec = make()
            spec.integrator = integrator
            runs.append((c, spec))
    alone = [transient(c, spec) for c, spec in solo]
    together = transient_batch([c for c, _ in batch],
                               [spec for _, spec in batch])
    for (c1, _), (c2, _), r1, r2 in zip(solo, batch, alone, together):
        assert r2.columns == r1.columns
        assert np.array_equal(r2.data, r1.data)
        assert c2.state == c1.state
        assert r2.stats == r1.stats
    return alone


@settings(max_examples=20, deadline=None)
@given(data=st.data(), k=st.integers(1, 6),
       kind=st.sampled_from(["pulse", "1t1r"]))
def test_batch_equals_each_circuit_alone(data, k, kind):
    cells = pulses() if kind == "pulse" else sets_1t1r()
    makers = data.draw(st.lists(cells, min_size=k, max_size=k))
    integrators = data.draw(st.lists(st.sampled_from(["be", "trap"]),
                                     min_size=k, max_size=k))
    _assert_batch_equals_solo(makers, integrators)


def _tight(amp, width, max_iter=10):
    """A pulse cell whose Newton loop has few iterations to spare."""
    def make():
        c, spec = _pulse_cell(P, 0.0, amp, width)
        spec.max_iter = max_iter
        return c, spec
    return make


def test_one_circuit_halves_its_step_and_the_others_do_not():
    makers = [_tight(0.0, 1e-4), _tight(1.0, 1e-4), _tight(1.0, 1e-6)]
    alone = _assert_batch_equals_solo(makers, ["be", "trap", "be"])
    assert [r.stats["halvings"] for r in alone] == [0, 3, 0]


def _array_cell(amp, x0s):
    """A pulse on 16 parallel devices: a stamp on the array path."""
    def make():
        c = Circuit()
        c.add_model("mem", "rram", P)
        c.add(VSource("vp", "a", "0", dc=amp))
        for j, x0 in enumerate(x0s):
            c.add(RramElement(f"x{j}", "a", "0", model="mem", x0=x0))
        return c, AnalysisSpec(kind="tran", tstep=2e-8, tstop=1e-6, uic=True)
    return make


def test_batch_of_array_stamps_equals_each_alone():
    rng = np.random.default_rng(5)
    makers = [_array_cell(0.9, rng.uniform(0, 1, 16)),
              _array_cell(-0.7, rng.uniform(0, 1, 16))]
    c, _ = makers[0]()
    assert SystemLayout(c).vector["tran"]
    _assert_batch_equals_solo(makers, ["trap", "be"])


def test_mixed_topologies_raise():
    cells = [_pulse_cell(P, 0.2, 1.0, 1e-6),
             _pulse_1t1r_cell(P, MosParams(), 1.0, 0.8, width=1e-6)]
    with pytest.raises(ValueError, match="topology"):
        transient_batch([c for c, _ in cells], [s for _, s in cells])


def test_mixed_tolerances_raise():
    cells = [_pulse_cell(P, 0.2, 1.0, 1e-6) for _ in range(2)]
    cells[1][1].reltol = 1e-5
    with pytest.raises(ValueError, match="tolerances"):
        transient_batch([c for c, _ in cells], [s for _, s in cells])


def test_underflow_names_its_circuit_and_writes_no_state():
    # six Newton iterations: enough at 0 V, never enough at 1 V
    cells = [_tight(0.0, 1e-4, 6)(), _tight(1.0, 1e-4, 6)(),
             _tight(0.0, 1e-4, 6)()]
    for c, _ in cells:
        c.state["xr"] = 0.25
    with pytest.raises(ConvergenceError,
                       match="circuit 1 of the batch") as err:
        transient_batch([c for c, _ in cells], [s for _, s in cells])
    assert err.value.circuit == 1
    assert err.value.worst_row == "xr#x"
    assert [c.state["xr"] for c, _ in cells] == [0.25] * 3


def test_a_failed_dc_start_names_its_circuit(monkeypatch):
    # the DC start of the second of three cells fails
    calls = []

    def failing_solve_dc(layout, spec, **kw):
        calls.append(layout)
        if len(calls) == 2:
            raise ConvergenceError("operating point failed", "v(a)")
        return solve_dc(layout, spec, **kw)

    monkeypatch.setattr(analysis, "solve_dc", failing_solve_dc)
    circuits = [parse_netlist(f"V1 a 0 DC {v}\nR1 a b 1k\nC1 b 0 1n\n"
                              ".end\n").circuit for v in (1, 2, 3)]
    spec = AnalysisSpec(kind="tran", tstep=1e-7, tstop=1e-6)
    with pytest.raises(ConvergenceError,
                       match="in circuit 1 of the batch") as err:
        transient_batch(circuits, [spec] * 3)
    assert err.value.circuit == 1
    assert err.value.worst_row == "v(a)"


def test_transient_stats_repeat_and_count_halvings():
    def run():
        c, spec = _tight(1.0, 1e-4)()
        return transient(c, spec)

    first, second = run(), run()
    assert first.stats == second.stats
    assert first.stats["halvings"] == 3
    assert first.stats["steps"] == len(first.data) - 1
    # every step and every failed attempt ran at least one iteration
    assert first.stats["newton_iterations"] >= (first.stats["steps"]
                                                + first.stats["halvings"])


def test_singular_circuits_fail_in_a_batch_as_they_do_alone():
    # node a has only a current source, so every condensed matrix is
    # singular: the stacked solve falls back to one solve per circuit
    def layout(v):
        c = Circuit()
        c.add(ISource("i1", "a", "0", dc=1e-6))
        c.add(VSource("v1", "b", "0", dc=v))
        c.add(Resistor("r1", "b", "0", 1e3))
        return SystemLayout(c)

    layouts = [layout(1.0), layout(2.0)]
    ctxs = [EvalContext(mode="dc") for _ in layouts]
    # an operating point's start: node b at its source's value, so the
    # worst residual is b's current balance
    x0s = [lay.dc_start(ctx, lay.initial_vector())
           for lay, ctx in zip(layouts, ctxs)]
    batch = newton_solve_batch(layouts, ctxs, x0s, Tolerances())
    for lay, x0, (x, ok, worst) in zip(layouts, x0s, batch):
        x1, ok1, worst1 = newton_solve(lay, EvalContext(mode="dc"), x0,
                                       Tolerances())
        assert (ok, worst) == (ok1, worst1) == (False, "singular matrix at b")
        assert np.array_equal(x, x1)


# the Newton budget of a mixed batch: a 0.2-1 V source converges well
# inside it, while a 5-20 V one, damped to VLIMIT (0.3 V) per iteration
# from a cold start, runs out of it
_MIXED_TOL = Tolerances(max_iter=12)


@st.composite
def mixed_solve(draw, fate):
    """A DC solve of a source, a resistor and an RRAM that ends as
    ``fate`` says: "converge", "stall" (out of iterations) or "nan" (a
    non-finite start); each circuit has its own values on one pattern."""
    volts = draw(st.floats(0.2, 1.0) if fate == "converge"
                 else st.floats(5.0, 20.0))
    c = Circuit()
    c.add_model("mem", "rram", P)
    c.add(VSource("v1", "a", "0",
                  dc=volts * draw(st.sampled_from([1.0, -1.0]))))
    c.add(Resistor("r1", "a", "b", draw(st.floats(1e2, 1e5))))
    c.add(RramElement("xr1", "b", "0", model="mem"))
    c.state["xr1"] = draw(st.floats(0.0, 1.0))
    layout = SystemLayout(c)
    x0 = layout.initial_vector()
    if fate == "nan":
        x0[draw(st.integers(0, x0.size - 1))] = np.nan
    return fate, layout, x0


@settings(max_examples=25, deadline=None)
@given(data=st.data(), k=st.integers(0, 4))
def test_a_mixed_batch_equals_each_circuit_alone(data, k):
    # circuits leave the batch (out of iterations, or at a non-finite
    # iterate) while the others converge; the compaction keeps every
    # survivor on its own iterates
    fates = ["converge", data.draw(st.sampled_from(["stall", "nan"]))]
    fates += data.draw(st.lists(st.sampled_from(["converge", "stall",
                                                 "nan"]),
                                min_size=k, max_size=k))
    solves = [data.draw(mixed_solve(fate))
              for fate in data.draw(st.permutations(fates))]
    ctxs = [EvalContext(mode="dc") for _ in solves]
    batch = newton_solve_batch([lay for _, lay, _ in solves], ctxs,
                               [x0 for _, _, x0 in solves], _MIXED_TOL)
    for (fate, lay, x0), ctx, (x, ok, worst) in zip(solves, ctxs, batch):
        alone = EvalContext(mode="dc")
        x1, ok1, worst1 = newton_solve(lay, alone, x0, _MIXED_TOL)
        assert np.array_equal(x, x1, equal_nan=True)
        assert (ok, worst, ctx.iterations) == (ok1, worst1, alone.iterations)
        assert ok == (fate == "converge")
        if not ok:
            # it names the row it left at
            rows = {lay.row_name(i) for i in range(lay.size)}
            assert worst.split(" at ")[-1] in rows
