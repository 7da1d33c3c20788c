"""Write-verify pulses against the exact landing state of the rate law.

A direct write-verify pulse drives one device from an ideal source, so
the bias is constant, and the windowed rate law
dX/dt = k sinh(|V|/v_c) b^p, where b is the window's base (1 - X for
SET, X for RESET), integrates in closed form.  That exact landing state
is the oracle of the pulse's step count and integrator: the pulses of a
default AND training must land no farther from it than at 50
backward-Euler steps, and the verify loop must need no more pulses.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synapsim.engine import transient
from synapsim.neuro import TrainConfig, crossbar, train_and_gate
from synapsim.neuro.crossbar import write_verify_device
from synapsim.rram import RramParams, conductance

P = RramParams()
CFG = TrainConfig()

# the reference: the integrator and step count before the trapezoidal rule
_REFERENCE_STEPS = 50
_pulse_cell = crossbar._pulse_cell


def exact_landing(p: RramParams, x0: float, amplitude: float,
                  width: float) -> float:
    """The state a constant-voltage pulse lands on: with k the rate
    law's prefactor times sinh(|V|/v_c), the base moves from b0 to
    b1 = (b0^(1-p) + (p-1) k t)^(1/(1-p)), and to b0 exp(-k t) at p = 1."""
    if amplitude > 0.0:
        k = p.k_set * math.sinh(amplitude / p.vc_set)
        b0 = 1.0 - x0
    else:
        k = p.k_reset * math.sinh(-amplitude / p.vc_reset)
        b0 = x0
    if p.p == 1.0:
        b1 = b0 * math.exp(-k * width)
    else:
        b1 = (b0 ** (1.0 - p.p) + (p.p - 1.0) * k * width) ** (
            1.0 / (1.0 - p.p))
    return 1.0 - b1 if amplitude > 0.0 else b1


def _reference_cell(p, x0, amplitude, width):
    """The pulse cell at the reference's integrator and step count."""
    c, spec = _pulse_cell(p, x0, amplitude, width)
    spec.tstep, spec.integrator = width / _REFERENCE_STEPS, "be"
    return c, spec


def _landing_error(p, x0, amplitude, width, x) -> float:
    """|G(x) - G(exact landing)| of one pulse, in S."""
    return abs(float(conductance(p, x)) - float(
        conductance(p, exact_landing(p, x0, amplitude, width))))


@pytest.mark.parametrize("window", [1.0, 2.0])
@pytest.mark.parametrize("x0, amplitude", [(0.2, 0.4), (0.9, -0.4)])
def test_exact_landing_is_the_fine_step_limit(window, x0, amplitude):
    # the closed form is the limit of the engine's own pulse at fine
    # steps, and _pulse inverts it
    p = RramParams(p=window)
    width = 2e-7                # k t is about 1.4: far from either bound
    c, spec = _pulse_cell(p, x0, amplitude, width)
    spec.tstep = width / 2000
    transient(c, spec)
    x1 = exact_landing(p, x0, amplitude, width)
    assert abs(c.state["xr"] - x1) <= 1e-6
    assert abs(x1 - x0) > 0.05
    amp, t = crossbar._pulse(p, x0, x1, amplitude, 1e-12, 1.0)
    assert amp == amplitude
    assert t == pytest.approx(width, rel=1e-9)


@pytest.fixture(scope="module")
def training_pulses():
    """Every pulse of a default device AND training: (x0, amplitude,
    width, landed state)."""
    cells = []

    def capture(p, x0, amplitude, width):
        c, spec = _pulse_cell(p, x0, amplitude, width)
        cells.append((x0, amplitude, width, c))
        return c, spec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossbar, "_pulse_cell", capture)
        train_and_gate()
    return [(x0, amp, width, c.state["xr"]) for x0, amp, width, c in cells]


def test_training_pulses_land_within_the_reference_error(training_pulses):
    # (a) the default pulses land no farther from the exact state than
    # the same pulses at 50 backward-Euler steps, run side by side
    assert len(training_pulses) == 62
    errors, reference = [], []
    for x0, amp, width, x in training_pulses:
        errors.append(_landing_error(P, x0, amp, width, x))
        c, spec = _reference_cell(P, x0, amp, width)
        transient(c, spec)
        reference.append(_landing_error(P, x0, amp, width, c.state["xr"]))
    assert max(errors) <= max(reference)
    # both are well inside the verify tolerance
    assert max(reference) < CFG.write_tol / 2


def _program_grid() -> list:
    """Write-verify 405 seeded (x0, G target) moves in rounds; returns
    each device's report."""
    rng = np.random.default_rng(2026)
    x0s = rng.uniform(0.0, 1.0, 405)
    targets = rng.uniform(P.g_off, P.g_on, 405)
    loops = [crossbar._verify_direct(P, x0, g, CFG)
             for x0, g in zip(x0s, targets)]
    return [report for report, _ in crossbar._in_rounds(loops)]


def test_seeded_grid_needs_no_more_pulses_than_the_reference(monkeypatch):
    # (b) a coarse pulse near g_on can overshoot to the X = 1 bound and
    # take one more pulse, but the grid needs no more pulses in all, and
    # every device converges in at most 2
    reports = _program_grid()
    monkeypatch.setattr(crossbar, "_pulse_cell", _reference_cell)
    reference = _program_grid()
    assert all(r.converged and r.pulses <= 2 for r in reports)
    assert (sum(r.pulses for r in reports)
            <= sum(r.pulses for r in reference))


@settings(max_examples=25, deadline=None)
@given(x0=st.floats(0.0, 1.0), frac=st.floats(0.0, 1.0))
@example(x0=0.0, frac=1.0)          # the SET bound
@example(x0=0.2, frac=0.97)         # a target near g_on
@example(x0=1.0, frac=0.0)          # the RESET bound
@example(x0=0.5, frac=0.53125)      # a move shorter than min_width
def test_one_device_converges_within_max_verify(x0, frac):
    # (c) from any state to any target in [g_off, g_on]
    g_target = P.g_off + frac * (P.g_on - P.g_off)
    report, x = write_verify_device(P, x0, g_target, CFG)
    assert report.converged
    assert report.pulses <= CFG.max_verify
    assert abs(float(conductance(P, x)) - g_target) <= CFG.write_tol
