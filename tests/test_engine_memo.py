"""Reuse of a device's last model evaluation.

The MOSFET and tunnel-junction stamps make no model call when a device's
biases repeat its last call's bit for bit, and a MOSFET stamp solves no
source-end charge when its V_gs does (``mna._recall``), nor a drain-end
one at V_ds = 0.0.  A reuse drops no term, so every result must be bit
for bit the one a fresh call at every assembly gives: on random
netlists, at a bias of 0.0 of either sign, and after a model card is
replaced.  A 1T1R SET must make fewer
MOSFET calls than it runs assemblies.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synapsim.engine.mna as mna
import synapsim.mosfet as mosfet
from synapsim.engine import (AnalysisSpec, ConvergenceError, operating_point,
                             run_analysis, transient)
from synapsim.floatgate import FloatingGateParams, fn_current_and_grad
from synapsim.mosfet import MosParams, drain_current_and_grads
from synapsim.rram import RramParams, _build_1t1r, _pulse_1t1r_cell

from test_engine_condensed import netlists


def _never(memo, k, key):
    return None


def _runs(circuit, integrator):
    """The operating point and then a transient of a copy of circuit, on
    one compiled layout: each result's data and stats, or the message of
    the error it raises, and the carried state at the end."""
    c = pickle.loads(pickle.dumps(circuit))
    out = []
    for spec in (AnalysisSpec(kind="op"),
                 AnalysisSpec(kind="tran", tstep=1e-9, tstop=2e-8,
                              integrator=integrator)):
        try:
            res = run_analysis(c, spec)
            out.append((res.data, res.stats))
        except ConvergenceError as exc:
            out.append(str(exc))
    return out, c.state


@settings(max_examples=40, deadline=None)
@given(circuit=netlists(), integrator=st.sampled_from(["be", "trap"]))
def test_reuse_gives_the_bits_of_a_call_at_every_assembly(circuit,
                                                          integrator):
    shipped, state = _runs(circuit, integrator)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mna, "_recall", _never)
        fresh, fresh_state = _runs(circuit, integrator)
    for a, b in zip(shipped, fresh):
        assert type(a) is type(b)
        if isinstance(a, str):
            assert a == b
            continue
        # as integers, so that the sign of a zero and NaN's bits count
        np.testing.assert_array_equal(a[0].view(np.int64),
                                      b[0].view(np.int64))
        assert a[1] == b[1]
    assert pickle.dumps(state) == pickle.dumps(fresh_state)


def _drain(v_ds):
    """A MOSFET stamp's record at V_gs = 0.7 V and the given V_ds (drain
    node 1, gate 2, source ground), and the slots of a fresh call."""
    p = MosParams()
    i, gm, gds = drain_current_and_grads(p, 0.7, v_ds)
    return mna._Drain([(1, 2, 0, p)]), [0.0, v_ds, 0.7], (i, gds, gm,
                                                          -(gm + gds))


def _tunnel(v):
    """A tunnel junction's record at V (node 1 into floating gate 2, at
    0 V), and the slots of a fresh call."""
    p = FloatingGateParams()
    i, di = fn_current_and_grad(p, v)
    return mna._Tunnel([(1, 2, p)]), [0.0, v, 0.0], (i, -di, di)


@pytest.mark.parametrize("make", [_drain, _tunnel])
def test_a_zero_or_nan_bias_is_never_reused(make, monkeypatch):
    calls = []
    for name in ("drain_current_and_grads", "fn_current_and_grad"):
        model = getattr(mna, name)

        def counted(*args, model=model, **kwargs):
            calls.append(args)
            return model(*args, **kwargs)

        monkeypatch.setattr(mna, name, counted)
    stamp = make(0.5)[0]
    # -0.0 == 0.0, but the junction's current copies the bias's sign
    for bias, new_call in ((0.5, True), (0.5, False), (0.0, True),
                           (-0.0, True), (-0.0, True), (np.nan, True),
                           (np.nan, True), (0.5, True)):
        calls.clear()
        out = []
        with np.errstate(invalid="ignore"):     # the model at NaN
            stamp.values(None, make(bias)[1], out)
            slots = make(bias)[2]
        assert np.array(out).tobytes() == np.array(slots).tobytes()
        assert len(calls) == new_call


def test_a_mosfet_reuses_the_charge_of_a_repeated_gate_bias_only():
    p = MosParams()
    stamp = mna._Drain([(1, 2, 0, p)])
    for v_gs, v_ds in ((0.7, 0.5), (0.7, 0.3), (0.9, 0.3), (0.9, 0.5),
                       (0.7, 0.5)):
        out = []
        stamp.values(None, [0.0, v_ds, v_gs], out)
        i, gm, gds = drain_current_and_grads(p, v_gs, v_ds)
        assert out == [i, gds, gm, -(gm + gds)]


@pytest.mark.parametrize("v_ds", [0.0, -0.0])
def test_a_mosfet_at_zero_drain_bias_reuses_its_source_charge(v_ds,
                                                              monkeypatch):
    # at a V_ds of 0.0 of either sign the drain end takes the source
    # end's charge, with a fresh call's bits and one charge solve fewer
    calls = []
    for module in (mna, mosfet):
        solve = module.solve_charge_householder

        def counted(*args, solve=solve):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(module, "solve_charge_householder", counted)
    p = MosParams()
    i, gm, gds = drain_current_and_grads(p, 0.7, v_ds)
    assert len(calls) == 2
    calls.clear()
    out = []
    mna._Drain([(1, 2, 0, p)]).values(None, [0.0, v_ds, 0.7], out)
    assert np.array(out).tobytes() == np.array(
        [i, gds, gm, -(gm + gds)]).tobytes()
    assert len(calls) == 1


def _read_1t1r(mos):
    c = _build_1t1r(RramParams(), mos, 0.1, 1.5)
    c.state["xr1"] = 0.4
    return c


def test_a_replaced_model_card_is_never_read_from_a_memo():
    spec = AnalysisSpec(kind="op")
    c = _read_1t1r(MosParams())
    before = operating_point(c, spec).data
    wider = MosParams(w=80e-9)
    del c.models["nfet"]
    c.add_model("nfet", "cmg", wider)
    after = operating_point(c, spec).data
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(
        after, operating_point(_read_1t1r(wider), spec).data)


def test_a_1t1r_set_makes_fewer_mosfet_calls_than_assemblies(monkeypatch):
    counts = {"calls": 0, "assemblies": 0}
    model, assemble = mna.drain_current_and_grads, mna.Assembler.assemble

    def counted_model(*args, **kwargs):
        counts["calls"] += 1
        return model(*args, **kwargs)

    def counted_assemble(self, *args):
        counts["assemblies"] += 1
        return assemble(self, *args)

    monkeypatch.setattr(mna, "drain_current_and_grads", counted_model)
    monkeypatch.setattr(mna.Assembler, "assemble", counted_assemble)
    c, spec = _pulse_1t1r_cell(RramParams(), MosParams(), 1.0, 0.8)
    res = transient(c, spec)
    assert res.stats["steps"] == 63
    # a step's first assembly is at the point the last step converged to
    assert 0 < counts["calls"] < counts["assemblies"]
