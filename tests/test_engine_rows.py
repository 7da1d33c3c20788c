"""Row classes and carried device state of the compiled layout.

A row is a constraint row in a mode when only the mode's "row" blocks
write it, and a KCL row otherwise; gmin goes on the KCL rows, and the
residual tolerance is VABSTOL on the constraint rows, IABSTOL on the
KCL rows.  The stateful stamps seed the carried state into the start
vector and store it back from a solution.
"""

import numpy as np
import pytest

from synapsim.engine import SystemLayout, parse_netlist
from synapsim.engine.mna import IABSTOL, VABSTOL
from synapsim.neuro import CrossbarSpec, build_crossbar, set_states
from synapsim.rram import RramParams

# a floating-gate cell, a 1T1R cell and a node (cap) that only
# capacitors touch, which nothing writes in DC
CELLS = """
.model mem rram
.model nfet cmg
.model fgm fg
vd d 0 DC 0.6
vsg sg 0 DC 1.0
vnfb nfb 0 DC 0
vpfb pfb 0 DC 0
xf1 d 0 sg nfb pfb model=fgm qfg0=1.3e-17
vpos top 0 DC 0.1
vg g 0 DC 1.5
xr1 top mid model=mem x0=0.37
m1 mid g 0 model=nfet
c1 top cap 1p
c2 cap 0 1p
.end
"""


def _rows(layout, names):
    return {layout.node_names.index(name) for name in names}


def test_row_classes_of_the_cells():
    layout = SystemLayout(parse_netlist(CELLS).circuit)
    nodes = set(range(1, layout.n_nodes))
    branches = set(range(layout.n_nodes, layout.size + 1))
    state, fg = _rows(layout, ["xr1#x"]), _rows(layout, ["xf1#fg"])
    gmin = {mode: set(layout.pattern(mode, True).gmin_rows)
            for mode in ("dc", "tran")}
    assert gmin["dc"] == nodes - state - fg
    assert gmin["tran"] == nodes - state
    assert _rows(layout, ["cap"]) <= gmin["dc"]
    for mode, volts in (("dc", branches | state | fg),
                        ("tran", branches | state)):
        f_tol = layout.abstols(mode)[0][0]
        assert set(np.flatnonzero(f_tol == VABSTOL) + 1) == volts
        assert set(np.flatnonzero(f_tol == IABSTOL) + 1) == (
            nodes | branches) - volts
        assert np.array_equal(layout.kcl(mode), f_tol == IABSTOL)


@pytest.mark.parametrize("vector", [False, True])
def test_state_round_trips_through_the_start_vector(vector):
    if vector:
        # enough devices for the RRAM stamp's array path
        spec = CrossbarSpec(8, 2)
        circuit = build_crossbar(spec, RramParams())
        rng = np.random.default_rng(3)
        set_states(circuit, spec, rng.uniform(0, 1, (8, 2)),
                   rng.uniform(0, 1, (8, 2)))
    else:
        circuit = parse_netlist(CELLS).circuit
    layout = SystemLayout(circuit)
    assert any(st.vector for st in layout.stateful) == vector
    before = dict(circuit.state)
    layout.store_state(layout.initial_vector())
    assert circuit.state.keys() == before.keys()
    for name, value in before.items():
        if name.startswith("xf"):
            assert circuit.state[name] == pytest.approx(value, rel=1e-15, abs=0.0)
        else:
            assert circuit.state[name] == value
