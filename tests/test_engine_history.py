"""Trapezoidal step history, held per stamp and not by element name.

Each stamp that carries history (capacitor companions, RRAM state rates)
records it under itself, one value per element in record order, so a
transient cannot depend on what its elements are called: renaming every
element, even to a name that another element's history could be keyed
by (``xf1#csg``, the floating gate's sense-gate coupling), gives the
same bits.
"""

import copy
import dataclasses

import numpy as np
from hypothesis import given, settings

from synapsim.engine import (AnalysisSpec, Capacitor, Circuit,
                             ConvergenceError, FloatGateElement, PulseSpec,
                             RramElement, VSource, transient)
from synapsim.floatgate import FloatingGateParams

from test_engine_condensed import H, netlists

# the couplings of a floating gate, as element names once spelled them
_COUPLINGS = ("#csg", "#cnfb", "#cpfb")


def _renamed(circuit: Circuit) -> Circuit:
    """The circuit with every element renamed to the next one's name,
    except that capacitors and RRAM devices take, while they last, the
    names a floating gate's couplings were once keyed by under its new
    name."""
    old = [e.name for e in circuit.elements]
    names = old[1:] + old[:1]
    spare = iter([names[k] + s for k, e in enumerate(circuit.elements)
                  if isinstance(e, FloatGateElement) for s in _COUPLINGS])
    out = Circuit()
    for name, (kind, params) in circuit.models.items():
        out.add_model(name, kind, params)
    for e, name in zip(circuit.elements, names):
        if isinstance(e, (Capacitor, RramElement)):
            name = next(spare, name)
        out.add(dataclasses.replace(e, name=name))
    out.resolve()
    return out


def _run(circuit: Circuit, integrator: str):
    """(time and unknowns, stats, carried states in element order) of a
    4-step transient, or the type of the error it fails with (the
    message names elements)."""
    spec = AnalysisSpec(kind="tran", tstep=H, tstop=4 * H,
                        integrator=integrator)
    try:
        sim = transient(circuit, spec)
    except ConvergenceError as exc:
        return type(exc)
    state = [circuit.state.get(e.name) for e in circuit.elements]
    return sim.data.tobytes(), sim.stats, state


@settings(max_examples=40, deadline=None)
@given(circuit=netlists())
def test_transients_do_not_depend_on_element_names(circuit):
    renamed = _renamed(circuit)
    assert ([e.name for e in renamed.elements]
            != [e.name for e in circuit.elements])
    for integrator in ("be", "trap"):
        assert (_run(copy.deepcopy(renamed), integrator)
                == _run(copy.deepcopy(circuit), integrator))


def _gate_cell(cap_name: str) -> Circuit:
    """The floating-gate cell under a sense-gate pulse, with a capacitor
    from the sense gate to ground."""
    c = Circuit()
    c.add_model("fgm", "fg", FloatingGateParams())
    c.add(VSource("vd", "d", "0", dc=0.3))
    c.add(VSource("vsg", "sg", "0", dc=0.0, pulse=PulseSpec(
        0.0, 2.0, 0.0, 2e-9, 2e-9, 4e-9, 20e-9)))
    c.add(VSource("vnfb", "nfb", "0", dc=0.0))
    c.add(VSource("vpfb", "pfb", "0", dc=0.0))
    c.add(FloatGateElement("xf1", "d", "0", "sg", "nfb", "pfb",
                           model="fgm", qfg0=1e-17))
    c.add(Capacitor(cap_name, "sg", "0", 1e-12))
    return c


def test_a_capacitor_named_like_a_gate_coupling_keeps_its_own_history():
    spec = AnalysisSpec(kind="tran", tstep=1e-9, tstop=20e-9,
                        integrator="trap")
    clash = transient(_gate_cell("xf1#csg"), spec)
    plain = transient(_gate_cell("cx"), spec)
    assert np.array_equal(clash.data, plain.data)
    assert clash.column("v(xf1#fg)").max() < 3.0
