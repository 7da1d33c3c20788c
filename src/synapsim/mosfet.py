"""Unified charge model for a long-channel symmetric multi-gate MOSFET.

The mobile sheet charge Q_i (C/m^2, magnitude of the electron charge per
gate) at a channel position with quasi-Fermi potential V_ch satisfies the
implicit equation

    F(Q_i) = V_g - V_fb - V_ch - (Q_i + Q_B)/C_ox
             - V_t * ln[ Q_i (Q_i + Q_B + 5 V_t C_si) / Q_ref^2 ] = 0

with Q_ref^2 = q (n_i^2 / N_A) T_si (Q_B + 5 V_t C_si).  F is strictly
decreasing in Q_i for Q_i > 0, so the root is unique at any bias.  Two
solvers are provided:

* ``solve_charge_reference`` -- bisection on a logarithmic charge grid
  followed by safeguarded Newton, iterated to |F| < 1e-12 V.  Scalar,
  correctness-first; used as the ground truth.
* ``solve_charge_householder`` -- an explicit path: blended asymptotic
  initial guess plus exactly two third-order Householder corrections.
  Fixed operation count, numpy-vectorized over arrays; Python-float
  inputs (the circuit engine's per-element stamps) run the same formulas
  on floats, bit-identical to the array path.

Drain current integrates the drift-diffusion sheet charge along the
channel; the integral has the closed form

    I_d = mu_eff (W / L_eff) [ B(Q_is) - B(Q_id) ]
    B(Q) = Q^2/(2 C_ox) + 2 V_t Q - V_t (Q_B + 5 V_t C_si) ln(Q + Q_B + 5 V_t C_si)

Terminal charges use Ward-Dutton partitioning.  Current continuity turns
the position integrals into charge integrals, which are evaluated by
16-node Gauss-Legendre quadrature in the log-charge variable
w = log1p(Q/(Q_B + 5 V_t C_si)); there every integrand is a low-degree
polynomial in e^w (plus one term linear in w), and the rule agrees with
a 100-digit oracle to about 2e-15 at every corner of the validity box,
small drain-source splits included; equal end charges take the exact
symmetric (V_ds = 0) limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .constants import EPS_OX, EPS_SI, Q_E, thermal_voltage

__all__ = [
    "MosParams",
    "ChargeSolution",
    "TerminalCharges",
    "ChargeSolveError",
    "implicit_residual",
    "solve_charge_reference",
    "solve_charge_reference_grid",
    "solve_charge_householder",
    "SOLVERS",
    "charge_solution",
    "drain_current",
    "current_from_charges",
    "drain_current_and_grads",
    "terminal_charges",
    "terminal_charges_grid",
    "gummel_current",
    "effective_mobility",
    "effective_length",
]

# Smoothing of |V_ds| in the velocity-saturation wrapper.  Keeps the
# wrapper an even, infinitely differentiable function of V_ds so that
# source-drain symmetry of the core is preserved.
VDS_SMOOTHING = 1e-3  # V

# Newton/bisection budget and residual target of the reference solver.
_REF_TOL = 1e-12      # V, |F| at the accepted root
_REF_MAX_ITER = 200

# Gauss-Legendre rule of the Ward-Dutton partition in the log-charge
# variable; t_n = h (1 - x_n) is the node's distance from the source end.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_1MX = 1.0 - _GL_X
_GL_BLOCK = 1024      # bias points per pass of the rule

# The elementwise operations of the model formulas, picked once per call
# by ``_ops``.  Python floats (np.float64 among them) run the exact or
# correctly rounded operations as builtins or conditional expressions and
# the exp/log family as the same numpy ufuncs converted back with float();
# that is several times cheaper than numpy's 0-d array round trip and
# bit-identical to the array path (math.exp/math.log are not: their last
# bit differs from numpy's on some inputs).  clip, minimum and maximum
# return what min(max(x, lo), hi), min and max return, signed zeros and
# NaN included (a NaN fails every comparison), at a third of the
# builtins' cost; where is an if.  sinh and cosh, which only the RRAM
# model uses, are math's on floats, as its one-device stamp always ran
# them, and can differ from numpy's in the last bit (under 1e-15
# relative).  Float division raises on a zero divisor where numpy returns
# inf; no divisor of these formulas comes near zero (the Householder
# denominator measured above 0.8 from -100 V to 2e4 V).
_ARRAY_OPS = SimpleNamespace(
    exp=np.exp, log=np.log, log1p=np.log1p, logaddexp=np.logaddexp,
    sqrt=np.sqrt, clip=np.clip, minimum=np.minimum, maximum=np.maximum,
    abs=np.abs, copysign=np.copysign, sinh=np.sinh, cosh=np.cosh,
    where=np.where)
_FLOAT_OPS = SimpleNamespace(
    exp=lambda x: float(np.exp(x)),
    log=lambda x: float(np.log(x)),
    log1p=lambda x: float(np.log1p(x)),
    logaddexp=lambda x, y: float(np.logaddexp(x, y)),
    sqrt=math.sqrt,
    clip=lambda x, lo, hi: lo if x < lo else (hi if x > hi else x),
    minimum=lambda a, b: b if b < a else a,
    maximum=lambda a, b: b if b > a else a,
    abs=abs, copysign=math.copysign,
    sinh=math.sinh, cosh=math.cosh,
    where=lambda cond, a, b: a if cond else b)


def _ops(*values):
    """Float operations when every value is a Python float, else numpy's."""
    for v in values:
        if not isinstance(v, float):
            return _ARRAY_OPS
    return _FLOAT_OPS


class ChargeSolveError(RuntimeError):
    """Raised when the reference charge solver cannot converge."""


@dataclass(frozen=True)
class MosParams:
    """Geometry, doping and transport parameters of the MOSFET core.

    All quantities are SI.  The init fields are the model parameters;
    derived quantities (V_t, C_ox, C_si, Q_B, phi_B and the normalization
    Q_ref^2) are not settable and are computed once in __post_init__.
    """

    l: float = 30e-9          # channel length, m
    w: float = 40e-9          # effective width (all gates), m
    t_si: float = 10e-9       # body (fin) thickness, m
    eot: float = 1e-9         # equivalent oxide thickness, m
    n_a: float = 1e23         # body acceptor doping, 1/m^3
    n_i: float = 1.45e16      # intrinsic carrier density, 1/m^3
    mu0: float = 0.03         # low-field mobility, m^2/(V s)
    v_fb: float = -0.5        # flat-band voltage, V
    temp: float = 300.0       # lattice temperature, K
    eps_si: float = EPS_SI    # body permittivity, F/m
    eps_ox: float = EPS_OX    # gate dielectric permittivity, F/m
    e_mob: float = 5e8        # mobility-degradation critical field, V/m
    v_sat: float = 1e5        # saturation velocity, m/s
    mob_degradation: bool = False
    vel_saturation: bool = False

    # derived, filled by __post_init__
    v_t: float = field(init=False, repr=False)
    c_ox: float = field(init=False, repr=False)
    c_si: float = field(init=False, repr=False)
    q_b: float = field(init=False, repr=False)
    phi_b: float = field(init=False, repr=False)
    qb5: float = field(init=False, repr=False)        # Q_B + 5 V_t C_si
    q_ref_sq: float = field(init=False, repr=False)
    ln_q_ref_sq: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("l", "w", "t_si", "eot", "n_a", "n_i", "mu0", "temp",
                     "eps_si", "eps_ox", "e_mob", "v_sat"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"MosParams.{name} must be positive")
        if self.n_a < self.n_i:
            raise ValueError("MosParams requires N_A >= n_i")
        set_ = object.__setattr__
        v_t = thermal_voltage(self.temp)
        c_ox = self.eps_ox / self.eot
        c_si = self.eps_si / self.t_si
        q_b = Q_E * self.n_a * self.t_si / 2.0
        qb5 = q_b + 5.0 * v_t * c_si
        q_ref_sq = Q_E * (self.n_i ** 2 / self.n_a) * self.t_si * qb5
        set_(self, "v_t", v_t)
        set_(self, "c_ox", c_ox)
        set_(self, "c_si", c_si)
        set_(self, "q_b", q_b)
        set_(self, "phi_b", v_t * math.log(self.n_a / self.n_i))
        set_(self, "qb5", qb5)
        set_(self, "q_ref_sq", q_ref_sq)
        set_(self, "ln_q_ref_sq", math.log(q_ref_sq))


@dataclass(frozen=True)
class ChargeSolution:
    """Charge densities and surface potentials at both channel ends."""

    q_is: float
    q_id: float
    psi_ss: float
    psi_sd: float
    residual: float  # max |F| over the two ends, V


@dataclass(frozen=True)
class TerminalCharges:
    """Ward-Dutton partitioned terminal charges, coulombs."""

    q_g: float
    q_d: float
    q_s: float
    q_bulk: float

    @property
    def total(self) -> float:
        return self.q_g + self.q_d + self.q_s + self.q_bulk


def implicit_residual(p: MosParams, q_i, v_g, v_ch=0.0):
    """F(Q_i) in volts; zero at the model's charge solution."""
    q_i = np.asarray(q_i, dtype=float)
    return (v_g - p.v_fb - v_ch - (q_i + p.q_b) / p.c_ox
            - p.v_t * (np.log(q_i) + np.log(q_i + p.qb5) - p.ln_q_ref_sq))


# ---------------------------------------------------------------------------
# reference solver


def solve_charge_reference(p: MosParams, v_g: float, v_ch: float = 0.0) -> float:
    """Unique root of F(Q_i) by log-grid bisection plus safeguarded Newton.

    Iterates until |F| < 1e-12 V; raises ChargeSolveError if the bracket
    cannot be established or the iteration budget is exhausted.
    """
    k = v_g - p.v_fb - v_ch - p.q_b / p.c_ox + p.v_t * p.ln_q_ref_sq
    v_t, c_ox, qb5 = p.v_t, p.c_ox, p.qb5

    def f(u: float) -> float:
        q = math.exp(u)
        return k - q / c_ox - v_t * (u + math.log(q + qb5))

    u_lo, u_hi = -640.0, 5.0
    f_lo, f_hi = f(u_lo), f(u_hi)
    if not (f_lo > 0.0 and f_hi < 0.0):
        raise ChargeSolveError(
            f"no sign change on the global charge bracket (V_g={v_g}, V_ch={v_ch})")

    # Bisection until the interval is narrow enough for Newton.
    it = 0
    while u_hi - u_lo > 0.25:
        it += 1
        if it > _REF_MAX_ITER:
            raise ChargeSolveError("bisection budget exhausted")
        u_mid = 0.5 * (u_lo + u_hi)
        if f(u_mid) > 0.0:
            u_lo = u_mid
        else:
            u_hi = u_mid

    # Newton in log-charge space; dF/du = -(Q/C_ox + V_t + V_t Q/(Q+QB5))
    # is bounded away from zero, and the bracket guards each step.
    u = 0.5 * (u_lo + u_hi)
    for _ in range(_REF_MAX_ITER):
        q = math.exp(u)
        fu = k - q / c_ox - v_t * (u + math.log(q + qb5))
        if abs(fu) < _REF_TOL:
            return q
        if fu > 0.0:
            u_lo = u
        else:
            u_hi = u
        du = fu / (q / c_ox + v_t + v_t * q / (q + qb5))
        u_new = u + du
        if not (u_lo < u_new < u_hi):
            u_new = 0.5 * (u_lo + u_hi)
        u = u_new
    raise ChargeSolveError(
        f"Newton refinement did not reach |F| < {_REF_TOL} (V_g={v_g}, V_ch={v_ch})")


def solve_charge_reference_grid(p: MosParams, v_g, v_ch) -> np.ndarray:
    """Reference solve over broadcast bias arrays (python loop per point)."""
    v_g, v_ch = np.broadcast_arrays(np.asarray(v_g, float), np.asarray(v_ch, float))
    out = np.empty(v_g.shape, dtype=float)
    flat_g, flat_c, flat_o = v_g.ravel(), v_ch.ravel(), out.ravel()
    for i in range(flat_g.size):
        flat_o[i] = solve_charge_reference(p, flat_g[i], flat_c[i])
    return out


# ---------------------------------------------------------------------------
# explicit (Householder) solver


def _householder_step(ops, u, k, c_ox, v_t, qb5):
    """One third-order Householder update of G(u) = F(exp(u)) in log space."""
    q = ops.exp(u)
    qq = q + qb5
    g0 = k - q / c_ox - v_t * (u + ops.log(qq))
    g1 = -(q / c_ox + v_t + v_t * q / qq)
    g2 = -(q / c_ox + v_t * q * qb5 / (qq * qq))
    g3 = -(q / c_ox + v_t * q * qb5 * (qb5 - q) / (qq * qq * qq))
    t = g0 / g1
    a = g2 / g1
    b = g3 / g1
    du = -t * (1.0 - 0.5 * t * a) / (1.0 - t * a + t * t * b / 6.0)
    return u + ops.clip(du, -50.0, 50.0)


def solve_charge_householder(p: MosParams, v_g, v_ch=0.0):
    """Explicit charge solution: blended asymptotic seed + two fixed
    third-order Householder corrections in log-charge space.

    No convergence loop; the operation count is identical for every bias
    point.  Accepts scalars or broadcastable arrays and returns the same
    shape; scalar inputs return a float.
    """
    ops = _ops(v_g, v_ch)
    if ops is _ARRAY_OPS:
        v_g = np.asarray(v_g, dtype=float)
        v_ch = np.asarray(v_ch, dtype=float)
    scalar = ops is _FLOAT_OPS or (v_g.ndim == 0 and v_ch.ndim == 0)

    v_t, c_ox, qb5 = p.v_t, p.c_ox, p.qb5
    ln_qb5 = math.log(qb5)
    v_ov = v_g - p.v_fb - v_ch - p.q_b / c_ox
    y = v_ov / v_t

    # Subthreshold asymptote in log space: Q -> (Q_ref^2/QB5) e^(v_ov/V_t).
    u_sub = p.ln_q_ref_sq - ln_qb5 + y

    # Strong-inversion asymptote: two fixed refinements of
    # Q = C_ox (v_ov - V_t ln(Q (Q+QB5)/Q_ref^2)), softplus-limited so the
    # estimate stays positive below threshold (where it is discarded by
    # the blend anyway).
    q_est = c_ox * v_t * 2.0 * ops.logaddexp(0.0, 0.5 * y)
    for _ in range(2):
        y_corr = y - (ops.log(q_est) + ops.log(q_est + qb5) - p.ln_q_ref_sq)
        q_est = c_ox * v_t * 2.0 * ops.logaddexp(0.0, 0.5 * y_corr)
    u_inv = ops.log(q_est)

    # Smooth minimum of the asymptotes, width 2 in log-charge units
    # (equivalently 2 V_t on the gate axis in subthreshold).
    width = 2.0
    u0 = ops.minimum(u_sub, u_inv) - width * ops.log1p(
        ops.exp(-ops.abs(u_sub - u_inv) / width))

    k = v_ov + v_t * p.ln_q_ref_sq
    u1 = _householder_step(ops, ops.clip(u0, -700.0, 6.0), k, c_ox, v_t, qb5)
    u2 = _householder_step(ops, ops.clip(u1, -700.0, 6.0), k, c_ox, v_t, qb5)
    q = ops.exp(ops.clip(u2, -745.0, 6.0))
    return float(q) if scalar else q


def charge_solution(p: MosParams, v_g: float, v_ds: float) -> ChargeSolution:
    """Solve both channel ends and report surface potentials.

    psi_s follows from Q_i = C_ox (V_g - V_fb - psi_s) - Q_B.
    """
    q_is = float(solve_charge_householder(p, v_g, 0.0))
    q_id = float(solve_charge_householder(p, v_g, v_ds))
    psi_ss = v_g - p.v_fb - (q_is + p.q_b) / p.c_ox
    psi_sd = v_g - p.v_fb - (q_id + p.q_b) / p.c_ox
    res = max(abs(float(implicit_residual(p, q_is, v_g, 0.0))),
              abs(float(implicit_residual(p, q_id, v_g, v_ds))))
    return ChargeSolution(q_is=q_is, q_id=q_id, psi_ss=psi_ss,
                          psi_sd=psi_sd, residual=res)


# the charge solvers by name; both accept scalars or broadcast arrays
SOLVERS = {
    "reference": solve_charge_reference_grid,
    "householder": solve_charge_householder,
}


def _pick_solver(method: str):
    """Charge solver by name (``SOLVERS``)."""
    try:
        return SOLVERS[method]
    except KeyError:
        raise ValueError(f"unknown charge solver '{method}'") from None


# ---------------------------------------------------------------------------
# drain current


def _bracket_diff(p: MosParams, q_hi, q_lo):
    """B(q_hi) - B(q_lo) in a cancellation-safe difference form."""
    dq = q_hi - q_lo
    return dq * ((q_hi + q_lo) / (2.0 * p.c_ox) + 2.0 * p.v_t) \
        - p.v_t * p.qb5 * _ops(q_hi, q_lo).log1p(dq / (q_lo + p.qb5))


def effective_mobility(p: MosParams, q_avg):
    """Vertical-field mobility degradation mu0 / (1 + E_eff/E_mob).

    E_eff is the average-charge field proxy (Q_B + q_avg)/eps_si with
    q_avg = (Q_is + Q_id)/2, which is invariant under source-drain
    reflection, so the wrapper preserves Gummel symmetry.
    """
    if not p.mob_degradation:
        return p.mu0 if np.isscalar(q_avg) else np.full_like(np.asarray(q_avg, float), p.mu0)
    e_eff = (p.q_b + q_avg) / p.eps_si
    return p.mu0 / (1.0 + e_eff / p.e_mob)


def effective_length(p: MosParams, mu, v_ds):
    """Velocity-saturation channel-length stretch.

    L_eff = L + mu sqrt(V_ds^2 + delta^2) / (2 v_sat); the smoothed |V_ds|
    keeps L_eff even and smooth through V_ds = 0.
    """
    if not p.vel_saturation:
        return p.l
    ops = _ops(v_ds)
    if ops is _ARRAY_OPS:
        v_ds = np.asarray(v_ds, dtype=float)
    return p.l + mu * ops.sqrt(v_ds * v_ds + VDS_SMOOTHING ** 2) / (2.0 * p.v_sat)


def drain_current(p: MosParams, v_gs, v_ds, method: str = "householder"):
    """Drain current, source reference; antisymmetric under terminal swap.

    With both effect wrappers disabled this is exactly
    mu0 (W/L) [B(Q_is) - B(Q_id)].
    """
    solve = _pick_solver(method)
    return current_from_charges(p, solve(p, v_gs, 0.0), solve(p, v_gs, v_ds),
                                v_ds)


def current_from_charges(p: MosParams, q_is, q_id, v_ds):
    """Drain current from already-solved source/drain end charges."""
    delta_b = _bracket_diff(p, q_is, q_id)
    mu = effective_mobility(p, 0.5 * (q_is + q_id)) if p.mob_degradation else p.mu0
    l_eff = effective_length(p, mu, v_ds)
    i_d = mu * (p.w / l_eff) * delta_b
    if np.ndim(i_d) == 0:
        return float(i_d)
    return i_d


def _charge_slope(p: MosParams, q):
    """-dF/dQ = 1/C_ox + V_t/Q + V_t/(Q + QB5); dQ/dV_g = 1/this."""
    return 1.0 / p.c_ox + p.v_t / q + p.v_t / (q + p.qb5)


def drain_current_and_grads(p: MosParams, v_gs, v_ds):
    """(I_d, dI_d/dV_gs, dI_d/dV_ds) with analytic chain-rule derivatives.

    Accepts scalars or broadcastable arrays.  Along the implicit solution
    dB(Q)/dV = Q, so d[B(Q_is) - B(Q_id)]/dV_gs = Q_is - Q_id and
    d[...]/dV_ds = Q_id; the effect wrappers add I_d (mu'/mu - L_eff'/L_eff).
    """
    q_is = solve_charge_householder(p, v_gs, 0.0)
    q_id = solve_charge_householder(p, v_gs, v_ds)
    i_d = current_from_charges(p, q_is, q_id, v_ds)
    mu, l_eff = p.mu0, p.l
    rel_gs = rel_ds = 0.0
    if p.mob_degradation or p.vel_saturation:
        dqis_dvgs = 1.0 / _charge_slope(p, q_is)
        dqid_dv = 1.0 / _charge_slope(p, q_id)   # d q_id / d(V_gs - V_ds)
        mu = effective_mobility(p, 0.5 * (q_is + q_id))
        dmu_dvgs = dmu_dvds = 0.0
        if p.mob_degradation:
            dmu_dqavg = -mu * mu / (p.mu0 * p.eps_si * p.e_mob)
            dmu_dvgs = dmu_dqavg * 0.5 * (dqis_dvgs + dqid_dv)
            dmu_dvds = -dmu_dqavg * 0.5 * dqid_dv
        l_eff = effective_length(p, mu, v_ds)
        dleff_dvgs = dleff_dvds = 0.0
        if p.vel_saturation:
            s = _ops(v_ds).sqrt(v_ds * v_ds + VDS_SMOOTHING ** 2)
            dleff_dvgs = dmu_dvgs * s / (2.0 * p.v_sat)
            dleff_dvds = (dmu_dvds * s + mu * v_ds / s) / (2.0 * p.v_sat)
        rel_gs = dmu_dvgs / mu - dleff_dvgs / l_eff
        rel_ds = dmu_dvds / mu - dleff_dvds / l_eff
    di_dvgs = i_d * rel_gs + p.w * (mu * (q_is - q_id) / l_eff)
    di_dvds = i_d * rel_ds + p.w * (mu * q_id / l_eff)
    return i_d, di_dvgs, di_dvds


def gummel_current(p: MosParams, v_g, v_x, method: str = "householder"):
    """Drain current of the symmetry harness V_d = +V_x/2, V_s = -V_x/2.

    The gate is held at v_g against the midpoint, so V_gs = v_g + v_x/2
    and V_ds = v_x.  For a symmetric core this is an odd function of v_x.
    """
    return drain_current(p, v_g + 0.5 * v_x, v_x, method=method)


def gummel_diagnostics(p: MosParams, v_g: float, h: float = 0.05) -> dict:
    """Finite-difference symmetry diagnostics of I(V_x) on a +-4h grid.

    Returns raw central stencils for the odd derivatives (orders 1 and 3)
    and the even ones (orders 0 and 2, the latter at spacings h and 2h),
    plus ``even_to_odd``: the largest even-stencil magnitude relative to
    the odd-stencil scale in the same units (amps).  An exactly odd I(V_x)
    drives the ratio to rounding noise.
    """
    ks = np.arange(-4, 5)
    v_x = ks * h
    i = gummel_current(p, v_g, v_x)
    at = {int(k): val for k, val in zip(ks, i)}
    odd1 = (at[1] - at[-1]) / 2.0
    odd3 = (at[2] - 2.0 * at[1] + 2.0 * at[-1] - at[-2]) / 2.0
    even0 = at[0]
    even2_h = at[1] - 2.0 * at[0] + at[-1]
    even2_2h = at[2] - 2.0 * at[0] + at[-2]
    odd_scale = max(abs(odd1), abs(odd3), abs(at[2] - at[-2]) / 2.0)
    even_worst = max(abs(even0), abs(even2_h), abs(even2_2h))
    return {
        "v_x": v_x,
        "current": i,
        "d1": odd1 / h,
        "d3": odd3 / h ** 3,
        "even0": even0,
        "even2_h": even2_h,
        "even2_2h": even2_2h,
        "odd_scale": odd_scale,
        "even_to_odd": even_worst / odd_scale,
    }


# ---------------------------------------------------------------------------
# Ward-Dutton terminal charges


def _channel_weight(p: MosParams, q):
    """g(Q) = Q (dy/dQ) kernel: Q/C_ox + V_t + V_t Q/(Q + QB5)."""
    return q / p.c_ox + p.v_t + p.v_t * q / (q + p.qb5)


def _partition_series(p: MosParams, q_is: float, q_id: float):
    """(channel-average Q, drain-weighted Q) by second-order expansion
    around the symmetric point; valid for nearly equal end charges.

    The near-symmetric reference the tests compare the quadrature with;
    the model itself does not call it.
    """
    qm = 0.5 * (q_is + q_id)
    h = 0.5 * (q_is - q_id)
    g0 = _channel_weight(p, qm)
    g1 = 1.0 / p.c_ox + p.v_t * p.qb5 / (qm + p.qb5) ** 2
    avg = qm + g1 * h * h / (3.0 * g0)
    drain = 0.5 * qm - h / 6.0 + g1 * h * h / (6.0 * g0)
    return avg, drain


def _partition_quadrature(p: MosParams, q_is, q_id):
    """(channel-average Q, drain-weighted Q) by Gauss-Legendre quadrature
    in w = log1p(Q/a), a = Q_B + 5 V_t C_si, over [w_d, w_s].

    dQ/dw = Q + a, so the integrands Q g dQ (the average) and
    [B(q_s) - B(Q)] Q g dQ (the drain share) become polynomials in e^w
    plus one term linear in w.  Differences are formed without
    cancellation: the half-width h from log1p, the node offsets
    t_n = w_s - w_n = h (1 - x_n) directly, and q_s - Q_n as
    -(q_s + a) expm1(-t_n).  Where B(q_s) - B(q_d) is zero, at equal end
    charges, the limit is returned: average q_s, drain share q_s / 2.
    Accepts scalars or arrays.
    """
    a = p.qb5
    shape = np.broadcast_shapes(np.shape(q_is), np.shape(q_id))
    q_is = np.broadcast_to(np.asarray(q_is, dtype=float), shape).ravel()
    q_id = np.broadcast_to(np.asarray(q_id, dtype=float), shape).ravel()
    h = 0.5 * np.log1p((q_is - q_id) / (q_id + a))
    i_w, i_y = np.empty_like(h), np.empty_like(h)
    # blocks keep the (points x nodes) temporaries in cache
    for k in range(0, h.size, _GL_BLOCK):
        blk = slice(k, k + _GL_BLOCK)
        q_s = q_is[blk, None]
        t = h[blk, None] * _GL_1MX
        dq = -(q_s + a) * np.expm1(-t)                     # q_s - Q_n
        q = q_s - dq
        kernel = q * (q * (q + a) / p.c_ox + p.v_t * (2.0 * q + a))  # Q g dQ/dw
        b_diff = (dq * ((q_s + q) / (2.0 * p.c_ox) + 2.0 * p.v_t)
                  - p.v_t * a * t)                         # B(q_s) - B(Q_n)
        i_w[blk] = h[blk] * (kernel @ _GL_W)
        i_y[blk] = h[blk] * ((b_diff * kernel) @ _GL_W)
    d = _bracket_diff(p, q_is, q_id)
    sym = d == 0.0
    d = np.where(sym, 1.0, d)
    avg = np.where(sym, q_is, i_w / d)
    drain = np.where(sym, 0.5 * q_is, i_y / (d * d))
    return avg.reshape(shape), drain.reshape(shape)


def terminal_charges(p: MosParams, v_g, v_ds, method: str = "householder",
                     q_is=None, q_id=None) -> TerminalCharges:
    """Quasi-static terminal charges by Ward-Dutton partitioning.

    Position integrals are transformed to charge integrals via current
    continuity and evaluated by 16-node Gauss-Legendre quadrature in the
    log-charge variable (``_partition_quadrature``), within about 2e-15 of
    a 100-digit oracle at any drain-source split; equal end charges split
    the channel charge evenly between drain and source.  Accepts scalars
    or broadcast arrays; an element with V_ds < 0 is evaluated as the
    swapped device and relabeled.  Pre-solved end charges can be passed
    to avoid re-solving.
    """
    v_g = np.asarray(v_g, dtype=float)
    v_ds = np.asarray(v_ds, dtype=float)
    rev = v_ds < 0.0
    if q_is is None or q_id is None:
        solve = _pick_solver(method)
        v_g_fwd = np.where(rev, v_g - v_ds, v_g)
        end_s = solve(p, v_g_fwd, 0.0)
        end_d = solve(p, v_g_fwd, np.abs(v_ds))
    else:
        end_s = np.where(rev, q_id, q_is)
        end_d = np.where(rev, q_is, q_id)
    area = p.w * p.l
    avg, drain = _partition_quadrature(p, end_s, end_d)
    q_d = -area * drain
    q_s = -area * avg - q_d
    q_g = area * (avg + p.q_b)
    q_bulk = np.full_like(q_g, -area * p.q_b)
    q_d, q_s = np.where(rev, q_s, q_d), np.where(rev, q_d, q_s)
    if q_g.ndim == 0:
        return TerminalCharges(q_g=float(q_g), q_d=float(q_d),
                               q_s=float(q_s), q_bulk=float(q_bulk))
    return TerminalCharges(q_g=q_g, q_d=q_d, q_s=q_s, q_bulk=q_bulk)


# Array name kept for callers that evaluate whole bias grids.
terminal_charges_grid = terminal_charges
