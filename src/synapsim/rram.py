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
        if not self.g_on > self.g_off > 0.0:
            raise ValueError("require g_on > g_off > 0")
        for name in ("v0", "vc_set", "vc_reset", "k_set", "k_reset"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.p < 1.0:
            raise ValueError("window exponent p must be >= 1")
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
# and longest trapezoidal step (s), a write-verify RESET pulse's
# backward-Euler step count, the read bias (V), and the gate drive (V) of
# a read or a RESET.  At SET_TSTEP a SET_WIDTH pulse takes 250 steps, the
# fewest that keep the default 16-point tuning curve within its error
# budget (each point's X error under a tenth of the gap to its nearer
# neighbour) with a 2x margin: 250 steps reach 0.042 of the gap, 200
# reach 0.073 and 150 miss it (tests/test_set_budget.py).
V_SET_1T1R = 1.0
SET_WIDTH = 10e-6
SET_TSTEP = 40e-9
RESET_STEPS = 200
V_READ_1T1R = 0.1
V_GATE_ON = 1.5


def hysteresis_loop(p: RramParams, v_peak: float = IV_V_PEAK,
                    period: float = IV_PERIOD, tstep: float = IV_TSTEP):
    """Bipolar triangular sweep 0 -> +v_peak -> 0 -> -v_peak -> 0.

    Returns (v, i, x) arrays over one period; the device starts at the
    model card's ``x_init``, and the drive is built from two
    half-period triangle sources in series.
    """
    from .engine import (AnalysisSpec, Circuit, PulseSpec, RramElement,
                         VSource, transient)

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
    res = transient(c, AnalysisSpec(kind="tran", tstep=tstep,
                                    tstop=period))
    return (res.column("v(a)"), -res.column("i(vpos)"),
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


def _set_steps(width: float) -> int:
    """Trapezoidal step count of a SET pulse of the given width: steps of
    ``SET_TSTEP``, and never fewer than a ``SET_WIDTH`` pulse takes.  A
    shorter pulse keeps the 250 steps because at 40 ns it loses the
    budget's margin (8 us reads 0.053 of the gap) and then the budget
    (4 us reads 0.106)."""
    return round(max(width, SET_WIDTH) / SET_TSTEP)


def _pulse_1t1r_cell(p: RramParams, mos_params, v_top: float,
                     v_gate: float, width: float = SET_WIDTH,
                     x0: float = 0.0):
    """(circuit, spec) of one programming pulse on a 1T1R cell starting
    from state x0.  A positive v_top SETs toward the transistor's
    compliance ceiling, integrated by the trapezoidal rule in
    ``_set_steps(width)`` steps; a negative one (gate driven hard)
    RESETs, in ``RESET_STEPS`` backward-Euler steps."""
    from .engine import AnalysisSpec

    c = _build_1t1r(p, mos_params, v_top, v_gate)
    c.state["xr1"] = float(x0)
    if v_top > 0.0:
        return c, AnalysisSpec(kind="tran", tstep=width / _set_steps(width),
                               tstop=width, integrator="trap")
    return c, AnalysisSpec(kind="tran", tstep=width / RESET_STEPS,
                           tstop=width)


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
