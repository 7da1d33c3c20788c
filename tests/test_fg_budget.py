"""fg-pulse's programming pulses against their error budget, by Richardson
extrapolation (``richardson``).

A pulse drives the cell's Fowler-Nordheim junctions through a MOSFET-read
floating gate, so it has no closed form: the oracle is the staircase on
its grid refined 2x and 4x, extrapolated to the step limit.  The budget
comes from what fg-pulse is for, showing a synapse's weight, its read
current, move pulse by pulse: each row's read current stays within 2% of
its step limit, under a twentieth of the smallest step a weaken pulse of
the default staircase makes (55% of the read current, row 9 to 10).  The
strengthen pulses after the first move the read current by at most 1.1e-4
of itself; the budget holds their rows too.
"""

import numpy as np
import pytest

from synapsim.engine import transient
from synapsim.floatgate import (FG_GROWTH, FG_H0, FloatingGateParams,
                                _fg_pulse_cell, fg_read_current)

from richardson import richardson

P = FloatingGateParams()
# the fg-pulse defaults: 5 strengthen then 5 weaken pulses of 100 us
WIDTH = 100e-6
STAIRCASE = [("pfb", 4.5)] * 5 + [("nfb", -3.1)] * 5
# the largest read-current error of a row, as a share of the current
BUDGET = 0.02
# (first step as a share of the width, growth, integrator, order): the
# shipped grid, and the backward-Euler W/200 grid it replaced
SHIPPED = (FG_H0, FG_GROWTH, "trap", 2)
BEFORE = (1 / 200, 1.0, "be", 1)


def _pulse(q, terminal, amplitude, grid, k=1):
    """The charge after one pulse from q on ``grid`` refined k times: the
    first step over k and the growth 1 + (g - 1) / k, which divides the
    step at every time after a corner by k."""
    h0, growth, integrator, _ = grid
    c, spec = _fg_pulse_cell(P, q, terminal, amplitude, WIDTH)
    spec.tstep, spec.growth = h0 * WIDTH / k, 1.0 + (growth - 1.0) / k
    spec.integrator = integrator
    res = transient(c, spec)
    return float(c.state["xf1"]), res.stats


def _reads(grid, k=1):
    """The read current after each pulse of the staircase, and the
    staircase's Newton iterations."""
    q, reads, iterations = 0.0, [], 0
    for terminal, amplitude in STAIRCASE:
        q, stats = _pulse(q, terminal, amplitude, grid, k)
        reads.append(fg_read_current(P, q))
        iterations += stats["newton_iterations"]
    return np.array(reads), iterations


def _read_errors(grid):
    """Each row's Richardson error estimate as a share of its read
    current's step limit, and the observed order."""
    (y1, _), (y2, _), (y4, _) = (_reads(grid, k) for k in (1, 2, 4))
    err, observed = richardson(y1, y2, y4, grid[3], rounding=1e-12 * y1)
    return np.abs(err) / np.abs(y1 - err), observed


def test_the_staircase_meets_its_budget():
    share, observed = _read_errors(SHIPPED)
    assert np.max(share) < BUDGET / 2
    # the estimate of the worst row is in the trapezoidal rule's
    # asymptotic range
    assert abs(observed[np.argmax(share)] - 2) <= 0.5


def test_the_backward_euler_grid_before_missed_the_budget():
    # the W/200 backward-Euler grid, in the same terms: its first weaken
    # row reads 3.4% off
    share, _ = _read_errors(BEFORE)
    assert np.argmax(share) == 5
    assert np.max(share) > BUDGET


def test_the_staircase_takes_half_the_newton_iterations():
    # 5977 at the W/200 backward-Euler grid
    assert _reads(SHIPPED)[1] <= 3048


@pytest.mark.parametrize("row", [1, 6])
def test_the_estimate_matches_a_fine_reference(row):
    # the charge a pulse moves, from the staircase's state before it:
    # Richardson's estimate against a uniform W/20000 trapezoidal run
    q = 0.0
    for terminal, amplitude in STAIRCASE[:row - 1]:
        q = _pulse(q, terminal, amplitude, SHIPPED)[0]
    terminal, amplitude = STAIRCASE[row - 1]
    y1, y2, y4 = (_pulse(q, terminal, amplitude, SHIPPED, k)[0] - q
                  for k in (1, 2, 4))
    ref = _pulse(q, terminal, amplitude, (1 / 20000, 1.0, "trap", 2))[0] - q
    err, observed = richardson(y1, y2, y4, 2)
    assert float(err) == pytest.approx(y1 - ref, rel=0.1)
    assert 1.5 <= float(observed) <= 2.5
