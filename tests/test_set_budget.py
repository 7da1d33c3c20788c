"""The 1T1R SET pulse against its error budget, by Richardson extrapolation.

A SET has no closed form: the access transistor's compliance sets the
bias the device sees as its state moves.  So the oracle is the engine's
own pulse on its geometric grid refined 2x and 4x, extrapolated to the
step limit (Richardson 1911; Hairer, Norsett & Wanner, Solving ODEs I, II.4).
The budget comes from what the tuning curve is for, telling its points
apart: each point's X error stays under a tenth of the gap to its nearer
neighbour.  A write-verify SET lands within a tenth of ``write_tol`` in G.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synapsim.mosfet import MosParams
from synapsim.neuro import TrainConfig, crossbar
from synapsim.rram import (SET_WIDTH, SET_WIDTH_MAX, V_SET_1T1R, RramParams,
                           _pulse_1t1r_cell, _run_transients, _set_1t1r_batch,
                           conductance)

from richardson import ORDER, refine, richardson

P, MOS = RramParams(), MosParams()
# the rram-tune default grid of gate voltages
GRID = np.linspace(0.25, 1.4, 16)
# the largest X error of a tuning-curve point, as a share of the gap to
# its nearer neighbour
BUDGET = 0.1
# differences in X below this are at the Newton solve's resolution (the
# SET grid's states move by at most 3.4e-13 between reltol 1e-6 and 1e-9),
# so no order can be read off them
ROUNDING = 1e-11


def _sets(v_gates, width=SET_WIDTH, x0=0.0, k=1):
    """SET pulses at each gate voltage, on the shipped grid refined k
    times (``refine``), all in one lockstep transient; returns the landed
    states and the order of the shipped integrator."""
    cells = [_pulse_1t1r_cell(P, MOS, V_SET_1T1R, float(v), width, x0)
             for v in v_gates]
    for _, spec in cells:
        refine(spec, k)
    _run_transients(cells)
    return (np.array([float(c.state["xr1"]) for c, _ in cells]),
            ORDER[cells[0][1].integrator])


@pytest.mark.parametrize("order", [1, 2])
def test_richardson_recovers_a_known_error(order):
    # y(h) = y* + a h^p + b h^(p+1): the estimate at h is within the
    # higher-order term of the true error, and the order reads p
    h = 0.01
    y = [0.7 + 3.0 * (h / k) ** order - 5.0 * (h / k) ** (order + 1)
         for k in (1, 2, 4)]
    err, observed = richardson(*y, order, ROUNDING)
    assert err == pytest.approx(y[0] - 0.7, rel=0.05)
    assert observed == pytest.approx(order, abs=0.1)
    # a run that does not move has no order to read
    assert np.isnan(richardson(0.5, 0.5, 0.5, order, ROUNDING)[1])


# from the shortest grid shape (``SET_SPLIT``) to ``SET_WIDTH_MAX``
@pytest.mark.parametrize("width", [1e-9, 1e-8, 1e-7, SET_WIDTH, 1e-4, 1e-3,
                                   SET_WIDTH_MAX])
def test_tuning_curve_meets_its_budget(width):
    # the shipped SETs of the tuning curve, then the same on grids
    # refined 2x and 4x
    y1 = _set_1t1r_batch(P, MOS, GRID, width=width)
    (y2, order), (y4, _) = _sets(GRID, width, k=2), _sets(GRID, width, k=4)
    err, observed = richardson(y1, y2, y4, order, ROUNDING)
    limit = y1 - err
    gaps = np.abs(np.diff(limit))
    assert np.all(gaps > 0.0)
    share = np.abs(err) / np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
    assert np.max(share) < BUDGET
    # the estimate that decides the verdict is in the integrator's
    # asymptotic range (points far under the budget may not be yet: at
    # 0.1 us the order at gate 0.33 V reads 0.6)
    worst = observed[np.argmax(share)]
    assert np.isnan(worst) or abs(worst - order) <= 0.5


@settings(max_examples=24, deadline=None)
@given(x0=st.floats(0.0, 1.0, exclude_max=True),
       v_gate=st.floats(float(crossbar._GATE_GRID[0]),
                        float(crossbar._GATE_GRID[-1])))
@example(x0=0.0, v_gate=0.65)       # the largest G error found, 4.1e-7 S
@example(x0=0.95, v_gate=1.4)       # from near the compliance ceiling
@example(x0=0.0, v_gate=0.25)       # the weakest gate drive
def test_a_write_verify_set_lands_within_a_tenth_of_write_tol(x0, v_gate):
    # the 1t1r scheme's SET pulse, from any state at any calibrated gate
    (y1, order), (y2, _), (y4, _) = (_sets([v_gate], x0=x0, k=k)
                                     for k in (1, 2, 4))
    err = richardson(y1, y2, y4, order, ROUNDING)[0]
    x1, err = float(y1[0]), float(err[0])
    g_error = abs(float(conductance(P, x1)) - float(conductance(P, x1 - err)))
    assert g_error <= TrainConfig().write_tol / 10
