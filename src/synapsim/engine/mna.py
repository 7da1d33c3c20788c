"""Modified nodal analysis: system assembly, Newton solve, homotopy.

Unknown vector layout: node voltages for nodes 1..N-1 (ground dropped),
then one branch current per independent voltage source.  Each KCL row
carries the sum of currents leaving its node; voltage-source rows carry
the branch voltage constraint in volts; device state rows (RRAM filament
state, floating-gate charge constraint) are normalized to volt-like
units so one set of tolerances covers them.

Element numerics live in one table, ``_KINDS``, with one entry per
element class.  Adding an element kind means one dataclass in
``circuit`` plus one entry here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..floatgate import fn_current_and_grad
from ..mosfet import drain_current_and_grads
from ..rram import rram_current_and_grads, state_rate_and_grads
from .circuit import (Capacitor, Circuit, FloatGateElement, ISource,
                      Mosfet, Resistor, RramElement, VSource)

# convergence: row residuals must reach their absolute tolerance, with a
# floating-point floor of _RESID_FLOOR times the row's contribution scale
_RESID_FLOOR = 5e-15


class ConvergenceError(Exception):
    def __init__(self, message: str, worst_row: str = ""):
        super().__init__(message)
        self.worst_row = worst_row


@dataclass
class Tolerances:
    reltol: float = 1e-6
    vabstol: float = 1e-9
    iabstol: float = 1e-12
    max_iter: int = 100
    gmin: float = 0.0
    vlimit: float = 0.3


@dataclass
class EvalContext:
    """Everything an element stamp needs beyond the unknown vector."""

    mode: str                    # "dc" | "tran"
    time: float = 0.0
    h: float = 0.0
    integrator: str = "be"       # "be" | "trap"
    x_prev: Optional[np.ndarray] = None
    aux_prev: dict = field(default_factory=dict)
    sfactor: float = 1.0
    gmin: float = 0.0
    src_override: dict = field(default_factory=dict)


class SystemLayout:
    """Index bookkeeping for one circuit's MNA system."""

    def __init__(self, circuit: Circuit):
        circuit.resolve()
        self.circuit = circuit
        self.n_nodes = len(circuit.nodes)
        self.vsrc = circuit.vsources()
        self.branch: dict[str, int] = {
            e.name: self.n_nodes - 1 + j for j, e in enumerate(self.vsrc)}
        self.size = self.n_nodes - 1 + len(self.vsrc)
        index_to_name = {i: n for n, i in circuit.nodes.items()}
        self.node_names = [index_to_name[i] for i in range(self.n_nodes)]
        # row kinds drive gmin application and tolerances: "kcl", "vsrc",
        # "state" (RRAM filament state) and "fg" (a floating gate: KCL in
        # transient, the stored-charge constraint in DC)
        self.row_kind = ["kcl"] * (self.n_nodes - 1) + ["vsrc"] * len(self.vsrc)
        # (element, row) of each internal node
        self.internal = [(e, circuit.nodes[e.internal_node] - 1)
                         for e in circuit.elements if e.internal_node]
        for e, row in self.internal:
            self.row_kind[row] = _KINDS[type(e)].row

    def row_name(self, row: int) -> str:
        if row < self.n_nodes - 1:
            return self.node_names[row + 1]
        return "i(" + self.vsrc[row - (self.n_nodes - 1)].name + ")"

    def column_names(self) -> list[str]:
        return (["v(%s)" % n for n in self.node_names[1:]] +
                ["i(%s)" % e.name for e in self.vsrc])

    def initial_vector(self) -> np.ndarray:
        """All-zero start, except carried device state."""
        x = np.zeros(self.size)
        for e, row in self.internal:
            x[row] = _KINDS[type(e)].seed(e, self.circuit.state[e.name])
        return x

    def store_state(self, x: np.ndarray) -> None:
        """Write each device's state at solution x back to the circuit."""
        for e, _ in self.internal:
            self.circuit.state[e.name] = float(
                _KINDS[type(e)].state(e, x, self.circuit.nodes))


def _v(x: np.ndarray, idx: int) -> float:
    return 0.0 if idx == 0 else x[idx - 1]


def _companion(ctx: EvalContext, name: str, value: float, x: np.ndarray,
               n1: int, n2: int):
    """Companion current n1 -> n2 and conductance of capacitor ``name``."""
    dv = _v(x, n1) - _v(x, n2)
    dv_prev = _v(ctx.x_prev, n1) - _v(ctx.x_prev, n2)
    if ctx.integrator == "trap" and name in ctx.aux_prev:
        geq = 2.0 * value / ctx.h
        return geq * (dv - dv_prev) - ctx.aux_prev[name], geq
    geq = value / ctx.h
    return geq * (dv - dv_prev), geq


def _fg_couplings(e: FloatGateElement):
    """(history key, capacitance, node) of each floating-gate coupling."""
    p = e.params
    return ((e.name + "#csg", p.c_sg, e.nsg),
            (e.name + "#cnfb", p.c_nfb, e.nnfb),
            (e.name + "#cpfb", p.c_pfb, e.npfb))


def _fg_charge(e: FloatGateElement, x: np.ndarray, nodes: dict) -> float:
    """Stored charge sum C_i * (V_fg - V_i) over the couplings."""
    v_fg = _v(x, nodes[e.internal_node])
    q = 0.0
    for _, cap, node in _fg_couplings(e):
        q += cap * (v_fg - _v(x, nodes[node]))
    return q


class Assembler:
    """Builds residual, Jacobian, and per-row scale at a given point."""

    def __init__(self, layout: SystemLayout, ctx: EvalContext):
        self.layout = layout
        self.ctx = ctx
        self.f = np.zeros(layout.size)
        self.J = np.zeros((layout.size, layout.size))
        self.scale = np.zeros(layout.size)

    def _current(self, n1: int, n2: int, i: float, *grads):
        """Current i flows out of node n1 into node n2; grads are
        (k, di/dx[k - 1]) pairs, k numbered like nodes so that ground
        (k = 0) entries drop out."""
        f, J, scale = self.f, self.J, self.scale
        grads = [(k - 1, g) for k, g in grads if k != 0]
        if n1 != 0:
            f[n1 - 1] += i
            scale[n1 - 1] += abs(i)
            for col, g in grads:
                J[n1 - 1, col] += g
        if n2 != 0:
            f[n2 - 1] -= i
            scale[n2 - 1] += abs(i)
            for col, g in grads:
                J[n2 - 1, col] -= g

    def _two_node(self, n1: int, n2: int, i: float, g: float):
        self._current(n1, n2, i, (n1, g), (n2, -g))

    def _row(self, row: int, *grads):
        """Add (k, d f[row]/dx[k - 1]) pairs to a Jacobian row; k = 0
        (ground) entries drop out."""
        for k, g in grads:
            if k != 0:
                self.J[row, k - 1] += g

    def assemble(self, x: np.ndarray):
        nodes = self.layout.circuit.nodes
        for e in self.layout.circuit.elements:
            _KINDS[type(e)].stamp(self, e, x, nodes)
        self._apply_gmin(x)
        return self.f, self.J, self.scale

    # -- element stamps: (self, element, x, nodes) ------------------------
    def _resistor(self, e, x, nodes):
        n1, n2 = nodes[e.n1], nodes[e.n2]
        g = 1.0 / e.value
        self._two_node(n1, n2, g * (_v(x, n1) - _v(x, n2)), g)

    def _capacitor(self, e, x, nodes):
        if self.ctx.mode == "tran":
            n1, n2 = nodes[e.n1], nodes[e.n2]
            self._two_node(n1, n2, *_companion(self.ctx, e.name, e.value,
                                               x, n1, n2))

    def _vsource(self, e, x, nodes):
        ctx = self.ctx
        np_, nn = nodes[e.npos], nodes[e.nneg]
        if e.name in ctx.src_override:
            target = ctx.src_override[e.name]
        elif ctx.mode == "tran":
            target = e.value_at(ctx.time)
        else:
            target = e.dc_value()
        target *= ctx.sfactor
        row = self.layout.branch[e.name]
        self._current(np_, nn, x[row], (row + 1, 1.0))
        self.f[row] = _v(x, np_) - _v(x, nn) - target
        self.scale[row] = abs(_v(x, np_)) + abs(_v(x, nn)) + abs(target)
        self._row(row, (np_, 1.0), (nn, -1.0))

    def _isource(self, e, x, nodes):
        self._current(nodes[e.npos], nodes[e.nneg], e.dc * self.ctx.sfactor)

    def _mosfet(self, e, x, nodes):
        self._drain(e.params, nodes[e.nd], nodes[e.ng], nodes[e.ns], x)

    def _drain(self, params, d, g, s, x):
        v_gs = _v(x, g) - _v(x, s)
        v_ds = _v(x, d) - _v(x, s)
        i, gm, gds = drain_current_and_grads(params, v_gs, v_ds)
        self._current(d, s, i, (d, gds), (g, gm), (s, -(gm + gds)))

    def _rram(self, e, x, nodes):
        ctx = self.ctx
        np_, nn = nodes[e.npos], nodes[e.nneg]
        xrow = nodes[e.internal_node] - 1
        state = x[xrow]
        vpn = _v(x, np_) - _v(x, nn)
        i, di_dv, di_dx = rram_current_and_grads(e.params, vpn, state)
        self._current(np_, nn, i, (xrow + 1, di_dx), (np_, di_dv),
                      (nn, -di_dv))

        f, J, scale = self.f, self.J, self.scale
        if ctx.mode == "dc":
            held = self.layout.circuit.state[e.name]
            f[xrow] += state - held
            J[xrow, xrow] += 1.0
            scale[xrow] += abs(state) + abs(held)
            return
        x_prev = ctx.x_prev[xrow]
        rate, dr_dv, dr_dx = state_rate_and_grads(e.params, vpn, state)
        if ctx.integrator == "trap" and e.name in ctx.aux_prev:
            w = 0.5 * ctx.h
            resid = state - x_prev - w * (rate + ctx.aux_prev[e.name])
        else:
            w = ctx.h
            resid = state - x_prev - w * rate
        f[xrow] += resid
        self._row(xrow, (xrow + 1, 1.0 - w * dr_dx), (np_, -w * dr_dv),
                  (nn, w * dr_dv))
        scale[xrow] += abs(state) + abs(x_prev) + abs(w * rate)

    def _floatgate(self, e, x, nodes):
        ctx = self.ctx
        p = e.params
        fg = nodes[e.internal_node]
        self._drain(p.mos, nodes[e.nd], fg, nodes[e.ns], x)
        if ctx.mode == "dc":
            # charge constraint replaces the floating node's KCL row
            row = fg - 1
            q_held = self.layout.circuit.state[e.name]
            q = _fg_charge(e, x, nodes)
            self._row(row, (fg, 1.0), *((nodes[node], -cap / p.c_total)
                                        for _, cap, node in _fg_couplings(e)))
            self.f[row] += (q - q_held) / p.c_total
            self.scale[row] += (abs(q) + abs(q_held)) / p.c_total
            return
        for name, cap, node in _fg_couplings(e):
            n = nodes[node]
            self._two_node(n, fg, *_companion(ctx, name, cap, x, n, fg))
        for term in (e.nnfb, e.npfb):
            n = nodes[term]
            v_t = _v(x, n) - _v(x, fg)
            i, di = fn_current_and_grad(p, v_t)
            self._current(n, fg, i, (fg, -di), (n, di))

    def _apply_gmin(self, x):
        if self.ctx.gmin == 0.0:
            return
        kcl = ("kcl", "fg") if self.ctx.mode == "tran" else ("kcl",)
        for row in range(self.layout.n_nodes - 1):
            if self.layout.row_kind[row] in kcl:
                self.f[row] += self.ctx.gmin * x[row]
                self.J[row, row] += self.ctx.gmin


# -- at an accepted step, record trapezoidal history into aux
def _capacitor_accept(ctx, e, x, nodes, aux):
    aux[e.name] = _companion(ctx, e.name, e.value, x, nodes[e.n1],
                             nodes[e.n2])[0]


def _rram_accept(ctx, e, x, nodes, aux):
    # the filament state leaves [0, 1] only by Newton overshoot
    row = nodes[e.internal_node] - 1
    x[row] = state = min(max(x[row], 0.0), 1.0)
    vpn = _v(x, nodes[e.npos]) - _v(x, nodes[e.nneg])
    aux[e.name] = state_rate_and_grads(e.params, vpn, state)[0]


def _floatgate_accept(ctx, e, x, nodes, aux):
    fg = nodes[e.internal_node]
    for name, cap, node in _fg_couplings(e):
        aux[name] = _companion(ctx, name, cap, x, nodes[node], fg)[0]


class _Kind(NamedTuple):
    """One element kind's numerics; row, seed and state only for a kind
    with an internal node (its row kind, start value and carried state)."""

    stamp: Callable                      # (asm, e, x, nodes)
    accept: Optional[Callable] = None    # (ctx, e, x, nodes, aux)
    row: str = ""
    seed: Optional[Callable] = None      # (e, carried) -> row value
    state: Optional[Callable] = None     # (e, x, nodes) -> carried


_KINDS = {
    Resistor: _Kind(Assembler._resistor),
    Capacitor: _Kind(Assembler._capacitor, _capacitor_accept),
    VSource: _Kind(Assembler._vsource),
    ISource: _Kind(Assembler._isource),
    Mosfet: _Kind(Assembler._mosfet),
    RramElement: _Kind(
        Assembler._rram, _rram_accept, row="state",
        seed=lambda e, x_held: x_held,
        state=lambda e, x, nodes: _v(x, nodes[e.internal_node])),
    FloatGateElement: _Kind(
        Assembler._floatgate, _floatgate_accept, row="fg",
        seed=lambda e, q_held: q_held / e.params.c_total, state=_fg_charge),
}


def _residual_ok(layout: SystemLayout, f, scale, tol: Tolerances) -> bool:
    for row in range(layout.size):
        abstol = tol.vabstol if layout.row_kind[row] in ("vsrc", "state") \
            else tol.iabstol
        if abs(f[row]) > max(abstol, _RESID_FLOOR * scale[row]):
            return False
    return True


def _dx_ok(layout: SystemLayout, dx, x, tol: Tolerances) -> bool:
    nv = layout.n_nodes - 1
    for i in range(layout.size):
        abstol = tol.vabstol if i < nv else tol.iabstol
        if abs(dx[i]) > abstol + tol.reltol * abs(x[i]):
            return False
    return True


def newton_solve(layout: SystemLayout, ctx: EvalContext, x0: np.ndarray,
                 tol: Tolerances):
    """Damped Newton iteration; returns (x, converged, worst_row)."""
    x = x0.copy()
    dx_ok = False
    worst = ""
    for _ in range(tol.max_iter):
        asm = Assembler(layout, ctx)
        f, J, scale = asm.assemble(x)
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(J))):
            return x, False, "non-finite residual"
        if dx_ok and _residual_ok(layout, f, scale, tol):
            return x, True, ""
        worst = layout.row_name(int(np.argmax(np.abs(f))))
        try:
            dx = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            return x, False, "singular matrix at " + worst
        if not np.all(np.isfinite(dx)):
            return x, False, "non-finite update at " + worst
        vmax = np.max(np.abs(dx[:layout.n_nodes - 1])) \
            if layout.n_nodes > 1 else 0.0
        s = 1.0 if vmax <= tol.vlimit else tol.vlimit / vmax
        x = x + s * dx
        dx_ok = (s == 1.0) and _dx_ok(layout, dx, x, tol)
    return x, False, worst


_GMIN_LADDER = [10.0 ** (-k) for k in range(3, 13)]


def solve_dc(layout: SystemLayout, tol: Tolerances,
             x0: Optional[np.ndarray] = None,
             src_override: Optional[dict] = None) -> np.ndarray:
    """Operating point with gmin-stepping and source-stepping fallbacks."""
    override = src_override or {}

    def attempt(xstart, sfactor=1.0, gmin=None):
        ctx = EvalContext(mode="dc", sfactor=sfactor,
                          gmin=tol.gmin if gmin is None else gmin,
                          src_override=override)
        return newton_solve(layout, ctx, xstart, tol)

    start = layout.initial_vector() if x0 is None else x0
    x, ok, worst = attempt(start)
    if ok:
        return x

    # gmin stepping: relax every KCL row, tighten by decades, then re-solve
    # at the target gmin
    x = start
    ladder_ok = True
    for gmin in _GMIN_LADDER:
        x, ok, _ = attempt(x, gmin=gmin)
        if not ok:
            ladder_ok = False
            break
    if ladder_ok:
        x, ok, _ = attempt(x)
        if ok:
            return x

    # source stepping from the dead circuit
    x = layout.initial_vector()
    lam, step = 0.0, 0.25
    while lam < 1.0:
        target = min(1.0, lam + step)
        xs, ok, worst = attempt(x, sfactor=target)
        if ok:
            lam, x = target, xs
            step = min(0.25, step * 2.0)
        else:
            step *= 0.5
            if step < 1.0 / 1024.0:
                raise ConvergenceError(
                    "operating point failed (source stepping stalled at "
                    f"{lam:.4f}); worst residual row: {worst}", worst)
    return x


def post_step_aux(layout: SystemLayout, ctx: EvalContext,
                  x: np.ndarray) -> dict:
    """Accept the step just solved at x: clamp each RRAM state into
    [0, 1] in place and return the companion-model history (capacitor
    currents, RRAM state rates) the next trapezoidal step needs."""
    aux = {}
    for e in layout.circuit.elements:
        accept = _KINDS[type(e)].accept
        if accept is not None:
            accept(ctx, e, x, layout.circuit.nodes, aux)
    return aux
