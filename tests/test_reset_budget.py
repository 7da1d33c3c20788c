"""The 1T1R write-verify RESET against its error budget, by Richardson
extrapolation (``richardson``).

A RESET drives the device through the hard-driven access transistor,
which divides the bias, so the state it lands on has no closed form: the
oracle is the engine's own pulse on its grid refined 2x and 4x,
extrapolated to the step limit, as for the SET (tests/test_set_budget.py).
Where width/20000 uniform steps resolve the onset, up to 10 us, they
agree with the extrapolation on each width's worst RESET to within 1% of
its error.  The budget is the SET's: a write-verify pulse lands within a
tenth of ``write_tol`` in G.  At every decade of width it holds with a 2x
margin; between them the margin is narrower, 1.6x at the worst RESET
found, where a pulse shorter than 50 ns keeps the 50 ns grid's 18 steps.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synapsim.mosfet import MosParams
from synapsim.neuro import TrainConfig
from synapsim.rram import (SET_WIDTH_MAX, V_GATE_ON, RramParams,
                           _pulse_1t1r_cell, _run_transients, conductance)

from richardson import ORDER, refine, richardson

P, MOS = RramParams(), MosParams()
CFG = TrainConfig()
# a write-verify pulse's largest G error
BUDGET = CFG.write_tol / 10
# the resolution of the Newton solve in X (tests/test_set_budget.py)
ROUNDING = 1e-11
STATES = [0.05, 0.3, 0.6, 0.9, 0.99, 1.0]


def _resets(x0s, width, k=1, grid=None):
    """RESET pulses from each state, on the shipped grid, or on the
    uniform ``grid`` = (steps, integrator), refined k times (``refine``);
    returns the landed states and the integrator's order."""
    cells = [_pulse_1t1r_cell(P, MOS, CFG.reset_amplitude, V_GATE_ON,
                              width=width, x0=float(x0)) for x0 in x0s]
    for _, spec in cells:
        if grid is not None:
            spec.tstep, spec.growth = width / grid[0], 1.0
            spec.integrator = grid[1]
        refine(spec, k)
    _run_transients(cells)
    return (np.array([float(c.state["xr1"]) for c, _ in cells]),
            ORDER[cells[0][1].integrator])


def _g_errors(x0s, width, grid=None):
    """Each RESET's G error against the extrapolated step limit, and the
    observed order."""
    (y1, order), (y2, _), (y4, _) = (_resets(x0s, width, k, grid)
                                     for k in (1, 2, 4))
    err, observed = richardson(y1, y2, y4, order, ROUNDING)
    g_error = np.abs(conductance(P, y1) - conductance(P, y1 - err))
    return g_error, observed, order


# from the shortest write-verify pulse (``min_width``) to SET_WIDTH_MAX
@pytest.mark.parametrize("width", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3,
                                   SET_WIDTH_MAX])
def test_a_reset_meets_its_budget(width):
    g_error, observed, order = _g_errors(STATES, width)
    assert np.max(g_error) <= BUDGET / 2
    # the estimate that decides the verdict is in the trapezoidal rule's
    # asymptotic range
    worst = observed[np.argmax(g_error)]
    assert np.isnan(worst) or abs(worst - order) <= 0.5


def test_the_backward_euler_grid_before_missed_the_budget():
    # 200 uniform backward-Euler steps, in the same terms: from X = 0.99
    # a 10 ns RESET lands 3.8e-7 S off
    g_error, _, _ = _g_errors([0.99], 1e-8, grid=(200, "be"))
    assert g_error[0] > BUDGET / 2


@settings(max_examples=16, deadline=None)
@given(x0=st.floats(0.0, 1.0),
       log_width=st.floats(np.log10(CFG.min_width), np.log10(SET_WIDTH_MAX)))
@example(x0=1.0, log_width=-7.55)     # the largest G error found, 3.1e-7 S
@example(x0=1.0, log_width=-8.0)      # the largest at a decade, 6.5e-8 S
def test_a_write_verify_reset_lands_within_a_tenth_of_write_tol(x0,
                                                                 log_width):
    # the 1t1r scheme's RESET pulse, from any state at any width it uses
    g_error, _, _ = _g_errors([x0], 10.0 ** log_width)
    assert g_error[0] <= BUDGET


def test_a_reset_past_its_verified_width_is_refused():
    with pytest.raises(ValueError, match="at most 0.01 s, not 0.02"):
        _pulse_1t1r_cell(P, MOS, CFG.reset_amplitude, V_GATE_ON,
                         width=0.02, x0=1.0)
