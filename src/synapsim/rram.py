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
    xc = np.clip(x, 0.0, 1.0)
    return p.g_off * np.exp(p.ln_g_ratio * xc)


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
    """Terminal current I = G(X) * v0 * sinh(V / v0)."""
    arg = np.clip(np.asarray(v, dtype=float) / p.v0, -_SINH_ARG_MAX,
                  _SINH_ARG_MAX)
    i = conductance(p, x) * p.v0 * np.sinh(arg)
    return float(i) if np.isscalar(v) or np.ndim(v) == 0 else i


def rram_current_and_grads(p: RramParams, v: float, x: float):
    """(I, dI/dV, dI/dX) for Newton assembly.

    dI/dX is zero where the conductance clamp is active so the linearized
    model stays consistent with the evaluated current.  This scalar twin
    of ``rram_current`` stays because the engine calls it once per device
    and a numpy call per device costs more than the model (ROADMAP
    item 7).
    """
    arg = min(max(v / p.v0, -_SINH_ARG_MAX), _SINH_ARG_MAX)
    # scalar form of ``conductance``: np.exp (not math.exp) keeps g
    # bit-identical to the array path.  math.sinh/math.cosh are not
    # numpy's SIMD kernels, so I can differ from ``rram_current`` in the
    # last bit (under 1e-15 relative)
    g = float(p.g_off * np.exp(p.ln_g_ratio * min(max(x, 0.0), 1.0)))
    i = g * p.v0 * math.sinh(arg)
    di_dv = g * math.cosh(arg)
    di_dx = p.ln_g_ratio * i if 0.0 <= x <= 1.0 else 0.0
    return i, di_dv, di_dx


def state_rate(p: RramParams, v: float, x: float) -> float:
    """dX/dt: positive bias drives X toward 1, negative toward 0.

    dX/dt = k_set  * sinh(V/vc_set)   * max(1-X, 0)**p   for V >= 0
    dX/dt = k_reset* sinh(V/vc_reset) * max(X, 0)**p     for V <  0
    """
    return state_rate_and_grads(p, v, x)[0]


def state_rate_and_grads(p: RramParams, v: float, x: float):
    """(dX/dt, d(rate)/dV, d(rate)/dX)."""
    if v >= 0.0:
        k, vc = p.k_set, p.vc_set
        base = 1.0 - x
        dbase_dx = -1.0
    else:
        k, vc = p.k_reset, p.vc_reset
        base = x
        dbase_dx = 1.0
    arg = min(max(v / vc, -_SINH_ARG_MAX), _SINH_ARG_MAX)
    w = max(base, 0.0) ** p.p
    rate = k * math.sinh(arg) * w
    dr_dv = k * math.cosh(arg) / vc * w
    if base > 0.0:
        dw_dx = p.p * max(base, 0.0) ** (p.p - 1.0) * dbase_dx
    else:
        dw_dx = 0.0
    dr_dx = k * math.sinh(arg) * dw_dx
    return rate, dr_dv, dr_dx


# ---------------------------------------------------------------------------
# circuit-level harnesses (engine imported lazily because the engine's
# element layer imports this module)

def hysteresis_loop(p: RramParams, v_peak: float = 1.2,
                    period: float = 1e-3, tstep: float = 1e-6,
                    x0: float = 0.0):
    """Bipolar triangular sweep 0 -> +v_peak -> 0 -> -v_peak -> 0.

    Returns (v, i, x) arrays over one period; the drive is built from
    two half-period triangle sources in series.
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
    c.add(RramElement("xr1", "a", "0", model="mem", x0=x0))
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


def pulse_1t1r(p: RramParams, mos_params, v_top: float, v_gate: float,
               width: float = 10e-6, x0: float = 0.0,
               steps: int = 500) -> float:
    """One programming pulse on a 1T1R cell starting from state x0.

    Positive v_top SETs toward the transistor's compliance ceiling;
    negative v_top (gate driven hard) RESETs.  Returns the final
    filament state.
    """
    from .engine import AnalysisSpec, transient

    c = _build_1t1r(p, mos_params, v_top, v_gate)
    c.state["xr1"] = float(x0)
    transient(c, AnalysisSpec(kind="tran", tstep=width / steps,
                              tstop=width))
    return float(c.state["xr1"])


def set_1t1r(p: RramParams, mos_params, v_pgm: float,
             v_set: float = 1.0, width: float = 10e-6,
             tstep: float = 20e-9) -> float:
    """SET a fresh 1T1R cell with the access gate at v_pgm; returns the
    final filament state X (compliance-limited by the transistor)."""
    return pulse_1t1r(p, mos_params, v_set, v_pgm, width=width, x0=0.0,
                      steps=max(int(round(width / tstep)), 1))


def _op_1t1r(p: RramParams, mos_params, v_top: float, x: float,
             v_gate: float = 1.5):
    """DC operating point of a 1T1R cell with the filament frozen at x
    (nodes ``top`` and ``mid`` bracket the RRAM)."""
    from .engine import AnalysisSpec, operating_point

    c = _build_1t1r(p, mos_params, v_top, v_gate)
    c.state["xr1"] = float(x)
    return operating_point(c, AnalysisSpec(kind="op"))


def read_1t1r(p: RramParams, mos_params, x: float, v_read: float = 0.1,
              v_gate: float = 1.5) -> float:
    """DC read current of a 1T1R cell at the given filament state; the
    access gate is driven hard so the cell, not the switch, dominates."""
    res = _op_1t1r(p, mos_params, v_read, x, v_gate)
    return float(-res.column("i(vpos)")[0])


def tuning_curve_1t1r(p: RramParams, mos_params, v_pgm_values,
                      v_set: float = 1.0, v_read: float = 0.1,
                      width: float = 10e-6):
    """Compliance-tuning experiment: SET a fresh cell at each gate
    voltage, then read every programmed state at v_read.

    Returns (x_final, i_read) arrays aligned with v_pgm_values.
    """
    xs, reads = [], []
    for v_pgm in v_pgm_values:
        x = set_1t1r(p, mos_params, float(v_pgm), v_set=v_set, width=width)
        xs.append(x)
        reads.append(read_1t1r(p, mos_params, x, v_read=v_read))
    return np.array(xs), np.array(reads)
