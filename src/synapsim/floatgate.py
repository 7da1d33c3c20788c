"""Floating-gate synaptic transistor, composed from existing parts.

The device is a subcircuit: a floating node coupled capacitively to a
synaptic-gate terminal and to two programming terminals, a readout
MOSFET whose gate is the floating node, and Fowler-Nordheim tunnel
current sources between each programming terminal and the floating
node.  This module holds the parameter set and the FN tunnel law; the
subcircuit expansion lives in the engine's element layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mosfet import _ARRAY_OPS, MosParams, _ops


@dataclass(frozen=True)
class FloatingGateParams:
    """Coupling capacitances, tunnel-junction constants, and the readout
    transistor's parameter set.

    The FN constants are chosen so that programming-level fields
    (|V| ~ 10 V across 8 nm) pass appreciable current while read-level
    fields pass essentially none; beta_fn * t_tun = 40 V sets that
    contrast.
    """

    c_sg: float = 1e-16
    c_nfb: float = 1e-16
    c_pfb: float = 1e-16
    t_tun: float = 8e-9
    a_tun: float = 1e-15
    alpha_fn: float = 1e-6
    beta_fn: float = 5e9
    mos: MosParams = field(default_factory=MosParams)

    def __post_init__(self):
        # written so that a NaN or an inf fails it too
        for name in ("c_sg", "c_nfb", "c_pfb", "t_tun", "a_tun",
                     "alpha_fn", "beta_fn"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")

    @property
    def c_total(self) -> float:
        return self.c_sg + self.c_nfb + self.c_pfb


def fn_current(p: FloatingGateParams, v):
    """Fowler-Nordheim tunnel current through one junction.

    I = sign(V) * a_tun * alpha_fn * E**2 * exp(-beta_fn / E) with
    E = |V| / t_tun.  The E -> 0 limit is an exact zero (the exponential
    underflows to 0 before the polynomial factor matters).
    """
    return fn_current_and_grad(p, v)[0]


def fn_current_and_grad(p: FloatingGateParams, v):
    """(I, dI/dV) for a float or an array V; dI/dV is even in V.

    A float runs the array path's operations on floats (``mosfet._ops``),
    bit for bit.  Below E = beta_fn/800 the exponential is exactly 0, so
    flooring E there before the division changes no result and keeps
    0 V from dividing by zero: it gives (0.0, 0.0).
    """
    ops = _ops(v)
    if ops is _ARRAY_OPS:
        v = np.asarray(v, dtype=float)
    e = ops.abs(v) / p.t_tun
    expo = ops.exp(-p.beta_fn / ops.clip(e, p.beta_fn / 800.0, math.inf))
    i = ops.copysign(p.a_tun * p.alpha_fn * e * e * expo, v)
    di_dv = p.a_tun * p.alpha_fn * (2.0 * e + p.beta_fn) * expo / p.t_tun
    if ops is _ARRAY_OPS and v.ndim == 0:
        return float(i), float(di_dv)
    return i, di_dv


# ---------------------------------------------------------------------------
# single-device harnesses (circuit-level; engine imported lazily because the
# engine's element layer imports this module)

@dataclass(frozen=True)
class PulseResult:
    i_before: float
    i_after: float
    q_fg: float

    @property
    def delta_i(self) -> float:
        return self.i_after - self.i_before


# the read conditions: drain bias and synaptic-gate bias (V)
V_READ_FG = 0.6
V_SG_FG = 1.0

# a programming pulse's first trapezoidal step, as a share of its width,
# and the ratio of its successive steps.  The charge moves in the last
# part of the rise ramp and just after it, so the steps start fine and
# grow geometrically, starting again at each corner of the drive
# (``engine.analysis``).  FG_H0 and FG_GROWTH keep every row of the
# default fg-pulse staircase's read current within its error budget with
# a 2x margin, at the trapezoidal order (tests/test_fg_budget.py, the
# README's "fg-pulse budget").
FG_H0 = 1e-3
FG_GROWTH = 1.1


def _fg_circuit(p: FloatingGateParams, q_fg: float, v_d: float, v_sg: float):
    """The cell with drain and synaptic gate at v_d and v_sg and both
    programming terminals at 0 V."""
    from .engine import (Circuit, FloatGateElement, VSource)

    c = Circuit()
    c.add_model("fgm", "fg", p)
    c.add(VSource("vd", "d", "0", dc=v_d))
    c.add(VSource("vsg", "sg", "0", dc=v_sg))
    c.add(VSource("vnfb", "nfb", "0", dc=0.0))
    c.add(VSource("vpfb", "pfb", "0", dc=0.0))
    c.add(FloatGateElement("xf1", "d", "0", "sg", "nfb", "pfb",
                           model="fgm", qfg0=q_fg))
    return c


def fg_read_current(p: FloatingGateParams, q_fg: float,
                    v_read: float = V_READ_FG,
                    v_sg: float = V_SG_FG) -> float:
    """DC drain current of the readout transistor at the given stored
    floating-gate charge."""
    from .engine import AnalysisSpec, operating_point

    c = _fg_circuit(p, q_fg, v_read, v_sg)
    res = operating_point(c, AnalysisSpec(kind="op"))
    return float(-res.column("i(vd)")[0])


def fg_program_pulse(p: FloatingGateParams, q_fg: float, terminal: str,
                     amplitude: float, width: float) -> float:
    """Apply one rectangular pulse to nfb or pfb; returns the new Q_fg.

    Drain, source, and the synaptic gate are grounded while programming
    so both tunnel junctions see the same drive magnitude for a given
    amplitude.  A zero-width pulse is a no-op by definition; a width
    that is not finite and >= 0 raises ValueError.
    """
    if terminal not in ("nfb", "pfb"):
        raise ValueError("terminal must be 'nfb' or 'pfb'")
    # written so that a NaN fails it too
    if not 0.0 <= width < math.inf:
        raise ValueError(f"width must be finite and >= 0, not {width!r}")
    if width == 0.0:
        return q_fg
    from .engine import transient

    c, spec = _fg_pulse_cell(p, q_fg, terminal, amplitude, width)
    transient(c, spec)
    return float(c.state["xf1"])


def _fg_pulse_cell(p: FloatingGateParams, q_fg: float, terminal: str,
                   amplitude: float, width: float):
    """(circuit, spec) of one programming pulse: ramps of a fiftieth of
    the width, integrated by the trapezoidal rule on steps that start at
    ``FG_H0`` of the width and grow by ``FG_GROWTH``."""
    from .engine import AnalysisSpec, PulseSpec

    rise = width / 50.0
    c = _fg_circuit(p, q_fg, v_d=0.0, v_sg=0.0)
    src = c.element("v" + terminal)
    src.dc = None
    src.pulse = PulseSpec(v1=0.0, v2=amplitude, td=0.0, tr=rise, tf=rise,
                          pw=width, per=10.0 * (width + 2.0 * rise))
    return c, AnalysisSpec(kind="tran", tstep=FG_H0 * width,
                           tstop=width + 4.0 * rise, growth=FG_GROWTH,
                           integrator="trap")


def program_pulse(p: FloatingGateParams, q_fg: float, terminal: str,
                  amplitude: float, width: float,
                  v_read: float = V_READ_FG,
                  v_sg: float = V_SG_FG) -> PulseResult:
    """Pulse-then-read harness: returns read currents around the pulse
    and the updated stored charge."""
    i0 = fg_read_current(p, q_fg, v_read, v_sg)
    q1 = fg_program_pulse(p, q_fg, terminal, amplitude, width)
    i1 = fg_read_current(p, q1, v_read, v_sg)
    return PulseResult(i_before=i0, i_after=i1, q_fg=q1)
