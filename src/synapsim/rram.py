"""Bipolar resistive-memory compact model.

The device carries a single normalized filament state X in [0, 1] that
interpolates the conductance log-linearly between the high-resistance
(X = 0) and low-resistance (X = 1) states.  Conduction is a symmetric
sinh of the applied voltage; the state evolves under a windowed, bipolar
sinh rate law.  X itself is not stored here — it lives on an internal
circuit node owned by the simulation engine, and every function below is
a pure map from (params, V, X) to currents, rates, and their partial
derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mosfet import _ops

# sinh argument guard: keeps intermediate Newton iterates finite without
# altering any result for |V| < 500*V0 (exp(500) is representable).
_SINH_ARG_MAX = 500.0


@dataclass(frozen=True)
class RramParams:
    """Parameter set for one RRAM model card.

    Conductance interpolates between ``g_off`` (X = 0) and ``g_on``
    (X = 1); ``v0`` sets the conduction nonlinearity, ``vc_set`` /
    ``vc_reset`` the rate nonlinearity, ``k_set`` / ``k_reset`` the rate
    prefactors, and ``p`` the window exponent that freezes the state at
    its bounds.  ``ln_g_ratio`` = ln(g_on/g_off) is derived, not
    settable, and computed once in __post_init__.
    """

    g_on: float = 1e-3
    g_off: float = 1e-5
    v0: float = 0.25
    k_set: float = 1e6
    k_reset: float = 1e6
    vc_set: float = 0.15
    vc_reset: float = 0.15
    p: float = 2.0
    x_init: float = 0.0

    # derived, filled by __post_init__
    ln_g_ratio: float = field(init=False, repr=False)

    def __post_init__(self):
        # the checks are written so that a NaN or an inf fails them too
        if not math.inf > self.g_on > self.g_off > 0.0:
            raise ValueError("require finite g_on > g_off > 0")
        for name in ("v0", "vc_set", "vc_reset", "k_set", "k_reset"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not 1.0 <= self.p < math.inf:
            raise ValueError("window exponent p must be finite and >= 1")
        if not 0.0 <= self.x_init <= 1.0:
            raise ValueError("x_init must lie in [0, 1]")
        object.__setattr__(self, "ln_g_ratio",
                           math.log(self.g_on / self.g_off))


def conductance(p: RramParams, x):
    """G(X) = g_off * (g_on/g_off)**X, with X clamped to [0, 1].

    The clamp only affects evaluation at out-of-range iterates; accepted
    solutions keep X inside the interval.
    """
    return _conductance(p, x, _ops(x))


def _conductance(p: RramParams, x, ops):
    return p.g_off * ops.exp(p.ln_g_ratio * ops.clip(x, 0.0, 1.0))


def state_for_conductance(p: RramParams, g):
    """Inverse of ``conductance``: X = ln(G/g_off) / ln(g_on/g_off).

    Raises ValueError outside [g_off, g_on]; those targets are not
    realizable by any filament state.
    """
    g = np.asarray(g, dtype=float)
    if np.any(g < p.g_off) or np.any(g > p.g_on):
        raise ValueError(
            f"conductance target outside [{p.g_off}, {p.g_on}]")
    x = np.log(g / p.g_off) / p.ln_g_ratio
    return float(x) if x.ndim == 0 else x


def rram_current(p: RramParams, v, x):
    """Terminal current I = G(X) * v0 * sinh(V / v0), evaluated on numpy
    arrays: a float argument gives a numpy float with the array path's
    bits."""
    return rram_current_and_grads(p, np.asarray(v, dtype=float),
                                  np.asarray(x, dtype=float))[0]


def rram_current_and_grads(p: RramParams, v, x):
    """(I, dI/dV, dI/dX) for Newton assembly, on floats or arrays.

    dI/dX is zero where the conductance clamp is active so the linearized
    model stays consistent with the evaluated current.
    """
    ops = _ops(v, x)
    arg = ops.clip(v / p.v0, -_SINH_ARG_MAX, _SINH_ARG_MAX)
    g = _conductance(p, x, ops)
    i = g * p.v0 * ops.sinh(arg)
    di_dv = g * ops.cosh(arg)
    di_dx = ops.where((x >= 0.0) & (x <= 1.0), p.ln_g_ratio * i, 0.0)
    return i, di_dv, di_dx


def state_rate(p: RramParams, v, x):
    """dX/dt: positive bias drives X toward 1, negative toward 0.

    dX/dt = k_set  * sinh(V/vc_set)   * max(1-X, 0)**p   for V >= 0
    dX/dt = k_reset* sinh(V/vc_reset) * max(X, 0)**p     for V <  0
    """
    return state_rate_and_grads(p, v, x)[0]


def state_rate_and_grads(p: RramParams, v, x):
    """(dX/dt, d(rate)/dV, d(rate)/dX), on floats or arrays."""
    ops = _ops(v, x)
    set_ = v >= 0.0
    k = ops.where(set_, p.k_set, p.k_reset)
    vc = ops.where(set_, p.vc_set, p.vc_reset)
    # the window's base: the distance to the bound the bias drives toward
    base = ops.where(set_, 1.0 - x, x)
    arg = ops.clip(v / vc, -_SINH_ARG_MAX, _SINH_ARG_MAX)
    pos = ops.maximum(base, 0.0)
    w = pos ** p.p
    k_sinh = k * ops.sinh(arg)
    dr_dv = k * ops.cosh(arg) / vc * w
    dw_dx = ops.where(base > 0.0,
                      p.p * pos ** (p.p - 1.0) * ops.where(set_, -1.0, 1.0),
                      0.0)
    return k_sinh * w, dr_dv, k_sinh * dw_dx


# ---------------------------------------------------------------------------
# circuit-level harnesses (engine imported lazily because the engine's
# element layer imports this module)

# the rram-iv drive: peak bias (V), period (s) and time step (s) of the
# bipolar loop
IV_V_PEAK = 1.2
IV_PERIOD = 1e-3
IV_TSTEP = 1e-6

# the 1T1R experiments: the SET bias on the cell (V), a SET pulse's width
# (s), the first trapezoidal step of a 1T1R pulse (s), the ratio of its
# successive steps, the width in first steps below which a pulse's first
# step shrinks with its width, the longest 1T1R pulse (s), the read bias
# (V), and the gate drive (V) of a read or a RESET.  A pulse moves the
# filament state fastest at its onset (a SET's then creeps), so its steps
# start fine and grow geometrically up to its end (Nagel 1975; Hairer,
# Norsett & Wanner, Solving ODEs I, II.4), one grid for SET and RESET.
# SET_H0 and SET_GROWTH keep the default 16-point tuning curve within its
# error budget with a 2x margin at every width and land a write-verify
# SET or RESET within write_tol/10 (tests/test_set_budget.py,
# tests/test_reset_budget.py; the scan that chose them is the README's
# "1T1R SET budget").  A pulse shorter than SET_SPLIT * SET_H0 (50 ns)
# starts at a SET_SPLIT-th of its width, so every shorter grid has the
# 50 ns grid's shape, 18 steps: from a 1 ns first step a 10 ns pulse
# takes 7 steps and reads order 0.7.  Past SET_WIDTH_MAX the tuning
# curve's nearest points lie closer than 3.3e-6 in X and the error
# estimate leaves its asymptotic range (order 4.1 at 0.1 s), so a longer
# pulse is refused.
V_SET_1T1R = 1.0
SET_WIDTH = 10e-6
SET_H0 = 1e-9
SET_GROWTH = 1.12
SET_SPLIT = 50
SET_WIDTH_MAX = 10e-3
V_READ_1T1R = 0.1
V_GATE_ON = 1.5


def hysteresis_loop(p: RramParams, v_peak: float = IV_V_PEAK,
                    period: float = IV_PERIOD, tstep: float = IV_TSTEP):
    """Bipolar triangular sweep 0 -> +v_peak -> 0 -> -v_peak -> 0.

    Returns (v, i, x) over one period from the model card's ``x_init``;
    the drive is two half-period triangle sources in series.  A period
    that is not finite and positive raises ValueError.
    """
    return _hysteresis_run(p, v_peak, period, tstep)[1:]


def _hysteresis_run(p: RramParams, v_peak: float, period: float,
                    tstep: float):
    """``hysteresis_loop``'s (t, v, i, x): t holds the transient's own
    step times, which land on the drive's corners."""
    from .engine import (AnalysisSpec, Circuit, PulseSpec, RramElement,
                         VSource, transient)

    # written so that a NaN fails it too
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be finite and positive, not "
                         f"{period!r}")
    quarter = period / 4.0
    c = Circuit()
    c.add_model("mem", "rram", p)
    c.add(VSource("vpos", "a", "b",
                  pulse=PulseSpec(0.0, v_peak, 0.0, quarter, quarter,
                                  0.0, period)))
    c.add(VSource("vneg", "b", "0",
                  pulse=PulseSpec(0.0, -v_peak, period / 2.0, quarter,
                                  quarter, 0.0, period)))
    c.add(RramElement("xr1", "a", "0", model="mem"))
    res = transient(c, AnalysisSpec(kind="tran", tstep=tstep, tstop=period))
    return (res.column("time"), res.column("v(a)"), -res.column("i(vpos)"),
            res.column("v(xr1#x)"))


def _build_1t1r(p: RramParams, mos_params, v_top: float, v_gate: float):
    from .engine import Circuit, Mosfet, RramElement, VSource

    c = Circuit()
    c.add_model("mem", "rram", p)
    c.add_model("nfet", "cmg", mos_params)
    c.add(VSource("vpos", "top", "0", dc=v_top))
    c.add(VSource("vg", "g", "0", dc=v_gate))
    c.add(RramElement("xr1", "top", "mid", model="mem", x0=0.0))
    c.add(Mosfet("m1", "mid", "g", "0", model="nfet"))
    return c


def _pulse_1t1r_cell(p: RramParams, mos_params, v_top: float,
                     v_gate: float, width: float = SET_WIDTH,
                     x0: float = 0.0):
    """(circuit, spec) of one programming pulse on a 1T1R cell starting
    from state x0.  A positive v_top SETs toward the transistor's
    compliance ceiling, a negative one (gate driven hard) RESETs; either
    is integrated by the trapezoidal rule on steps that start at
    ``SET_H0`` (a ``SET_SPLIT``-th of a shorter pulse's width) and grow
    by ``SET_GROWTH``.  A width that is not finite and positive, or over
    ``SET_WIDTH_MAX``, raises ValueError."""
    from .engine import AnalysisSpec

    # written so that a NaN fails it too
    if not 0.0 < width < math.inf:
        raise ValueError(f"width must be finite and positive, not {width!r}")
    if width > SET_WIDTH_MAX:
        raise ValueError(f"width of a 1T1R pulse must be at most "
                         f"{SET_WIDTH_MAX!r} s, not {width!r}")
    c = _build_1t1r(p, mos_params, v_top, v_gate)
    c.state["xr1"] = float(x0)
    return c, AnalysisSpec(kind="tran", tstep=min(SET_H0, width / SET_SPLIT),
                           tstop=width, growth=SET_GROWTH, integrator="trap")


def _run_transients(cells) -> None:
    """Run the transient of every (circuit, spec) cell, all in one
    lockstep batch.  A lone cell runs through ``transient``, the same
    loop with one circuit, which the benchmark traces per analysis; the
    import at call time finds a wrapped ``synapsim.engine.transient``."""
    from .engine import transient, transient_batch

    if len(cells) == 1:
        transient(*cells[0])
    elif cells:
        transient_batch(*zip(*cells))


def _set_1t1r_batch(p: RramParams, mos_params, v_pgm_values,
                    v_set: float = V_SET_1T1R,
                    width: float = SET_WIDTH) -> np.ndarray:
    """``set_1t1r`` at each gate voltage, all SETs in one lockstep
    transient; returns the final states."""
    cells = [_pulse_1t1r_cell(p, mos_params, v_set, float(v), width)
             for v in v_pgm_values]
    _run_transients(cells)
    return np.array([float(c.state["xr1"]) for c, _ in cells])


def set_1t1r(p: RramParams, mos_params, v_pgm: float) -> float:
    """SET a fresh 1T1R cell with the access gate at v_pgm; returns the
    final filament state X (compliance-limited by the transistor)."""
    return float(_set_1t1r_batch(p, mos_params, [v_pgm])[0])


def _op_1t1r(p: RramParams, mos_params, v_top: float, x: float):
    """DC operating point of a 1T1R cell with the filament frozen at x
    and the gate at ``V_GATE_ON`` (nodes ``top`` and ``mid`` bracket the
    RRAM)."""
    from .engine import AnalysisSpec, operating_point

    c = _build_1t1r(p, mos_params, v_top, V_GATE_ON)
    c.state["xr1"] = float(x)
    return operating_point(c, AnalysisSpec(kind="op"))


def read_1t1r(p: RramParams, mos_params, x: float,
              v_read: float = V_READ_1T1R) -> float:
    """DC read current of a 1T1R cell at the given filament state; the
    access gate is driven hard so the cell, not the switch, dominates."""
    res = _op_1t1r(p, mos_params, v_read, x)
    return float(-res.column("i(vpos)")[0])


def tuning_curve_1t1r(p: RramParams, mos_params, v_pgm_values,
                      v_set: float = V_SET_1T1R,
                      v_read: float = V_READ_1T1R,
                      width: float = SET_WIDTH):
    """Compliance-tuning experiment: SET a fresh cell at each gate
    voltage, all in one lockstep transient, then read every programmed
    state at v_read.

    Returns (x_final, i_read) arrays aligned with v_pgm_values.
    """
    xs = _set_1t1r_batch(p, mos_params, v_pgm_values, v_set=v_set,
                         width=width)
    reads = [read_1t1r(p, mos_params, float(x), v_read=v_read) for x in xs]
    return xs, np.array(reads)
