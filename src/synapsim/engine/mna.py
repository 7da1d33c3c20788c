"""Modified nodal analysis: compiled assembly, condensed Newton solve, homotopy.

Unknown layout (the vector x that analyses see and report): node voltages
for nodes 1..N-1 (ground dropped), then one branch current per
independent voltage source.  Device state rides along on internal nodes:
each RRAM element's filament state X and each floating gate's voltage.
Each KCL row carries the sum of currents leaving its node; voltage-source
rows carry the branch voltage constraint in volts; an RRAM state row is
its state equation (pinned to the carried state in DC, the integrated
rate law in transient); a floating-gate row is its KCL in transient and
its stored-charge constraint, in volts, in DC.  One set of tolerances
covers every row.

Solved system: the RRAM state unknowns are eliminated before the linear
solve, the standard SPICE treatment of device-internal unknowns.  A
state row couples only to its own state and its device's two terminals,
so the state block of the Jacobian is diagonal: the Newton step solves
the Schur complement over the remaining unknowns and back-substitutes
each state update.  In DC the diagonal is 1 and the update pins the
state to its carried value; in transient each state adds a 1x1
complement term onto its device's terminals.  A 32x16 crossbar has 1152
unknowns and solves 128.  The floating-gate voltage is coupled to four
or more nodes and stays an ordinary solved unknown.

Compiled form: ``SystemLayout(circuit)`` compiles a circuit once and
caches the result on it until an element or model is added.  Elements
compile into primitive stamps (conductance, companion capacitor, voltage
and current source, drain current, RRAM, tunnel junction, floating-gate
charge row), each one set of index arrays over every element that uses
it; per analysis mode the layout compiles the COO pattern of every
residual, scale and Jacobian contribution and the scatter of the
condensed system.  An assembly gathers terminal voltages, calls each
device model once per element, and scatters everything in one
``np.bincount``.

Element numerics live in one table, ``_KINDS``, with one entry per
element class: the primitive stamps the element compiles into, and for a
kind with an internal node its row kind, start value and carried state.
Adding an element kind means one dataclass in ``circuit`` plus one entry
here, and a primitive stamp class if no existing one fits.
"""

from __future__ import annotations

import functools
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

# padded vectors put ground at index 0, so node k is entry k and unknown
# i is entry i + 1; ground entries are dropped by the compiled scatter


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

    def check(self) -> None:
        """Raise ValueError unless the convergence tolerances are positive."""
        for name in ("reltol", "vabstol", "iabstol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


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


def _ints(values) -> np.ndarray:
    return np.array(values, dtype=np.intp)


def _companion(cap: float, key: str, dv: float, dv_prev: float, h: float,
               hist: dict):
    """Companion current and conductance of a capacitor across dv; a
    trapezoidal step where ``hist`` holds the key's history."""
    if key in hist:
        geq = 2.0 * cap / h
        return geq * (dv - dv_prev) - hist[key], geq
    geq = cap / h
    return geq * (dv - dv_prev), geq


def _trap_history(ctx: EvalContext) -> dict:
    return ctx.aux_prev if ctx.integrator == "trap" else {}


# -- primitive stamps ---------------------------------------------------
#
# A primitive stamp is compiled over every element that uses it, from one
# record per element.  ``blocks(mode)`` gives the index structure of its
# contributions, as tuples of padded indices with one entry per element:
#   ("cur", a, b, cols): current i from node a into node b, then dI/dx
#       along each column in cols;
#   ("row", r, cols): residual f of row r, its scale, then df/dx along
#       each column in cols.
# ``values(asm, v, out)`` appends, element by element, the values of
# those slots in the same order (v holds the padded unknowns as floats).
# ``accept(ctx, v, x, aux)``, where present, records the history the
# next trapezoidal step needs.  A stamp takes part only in its ``modes``.


class _Stamp:
    accept = None
    modes = ("dc", "tran")

    def __init__(self, recs):
        self.recs = recs
        self.n = len(recs)

    def column(self, k) -> tuple:
        return tuple(r[k] for r in self.recs)


class _Conductance(_Stamp):
    # record: (n1, n2, g)
    def blocks(self, mode):
        n1, n2 = self.column(0), self.column(1)
        return [("cur", n1, n2, (n1, n2))]

    def values(self, asm, v, out):
        for n1, n2, g in self.recs:
            out += (g * (v[n1] - v[n2]), g, -g)


class _Companion(_Stamp):
    """Capacitor companion model; it conducts only in transient."""

    modes = ("tran",)

    # record: (n1, n2, capacitance, history key)
    def blocks(self, mode):
        n1, n2 = self.column(0), self.column(1)
        return [("cur", n1, n2, (n1, n2))]

    def values(self, asm, v, out):
        ctx = asm.ctx
        vp, hist = asm.v_prev(), _trap_history(ctx)
        for n1, n2, cap, key in self.recs:
            i, geq = _companion(cap, key, v[n1] - v[n2], vp[n1] - vp[n2],
                                ctx.h, hist)
            out += (i, geq, -geq)

    def accept(self, ctx, v, x, aux):
        vp, hist = [0.0] + ctx.x_prev.tolist(), _trap_history(ctx)
        for n1, n2, cap, key in self.recs:
            aux[key] = _companion(cap, key, v[n1] - v[n2], vp[n1] - vp[n2],
                                  ctx.h, hist)[0]


class _VSource(_Stamp):
    # record: (element, npos, nneg, branch)
    def blocks(self, mode):
        npos, nneg, branch = self.column(1), self.column(2), self.column(3)
        return [("cur", npos, nneg, (branch,)),
                ("row", branch, (npos, nneg))]

    def values(self, asm, v, out):
        ctx = asm.ctx
        over, tran = ctx.src_override, ctx.mode == "tran"
        for e, npos, nneg, branch in self.recs:
            if e.name in over:
                target = over[e.name]
            elif tran:
                target = e.value_at(ctx.time)
            else:
                target = e.dc_value()
            target *= ctx.sfactor
            vp, vn = v[npos], v[nneg]
            out += (v[branch], 1.0,
                    vp - vn - target, abs(vp) + abs(vn) + abs(target),
                    1.0, -1.0)


class _ISource(_Stamp):
    # record: (element, npos, nneg)
    def blocks(self, mode):
        return [("cur", self.column(1), self.column(2), ())]

    def values(self, asm, v, out):
        out += (e.dc * asm.ctx.sfactor for e, _, _ in self.recs)


class _Drain(_Stamp):
    """MOSFET drain current, one model call per element."""

    # record: (drain, gate, source, MosParams)
    def blocks(self, mode):
        d, g, s = self.column(0), self.column(1), self.column(2)
        return [("cur", d, s, (d, g, s))]

    def values(self, asm, v, out):
        for d, g, s, params in self.recs:
            i, gm, gds = drain_current_and_grads(params, v[g] - v[s],
                                                 v[d] - v[s])
            out += (i, gds, gm, -(gm + gds))


class _Rram(_Stamp):
    """RRAM conduction plus its state row, one model call per element."""

    # record: (name, RramParams, npos, nneg, state)
    def blocks(self, mode):
        npos, nneg, state = self.column(2), self.column(3), self.column(4)
        cur = ("cur", npos, nneg, (state, npos, nneg))
        if mode == "dc":
            return [cur, ("row", state, (state,))]
        return [cur, ("row", state, (state, npos, nneg))]

    def values(self, asm, v, out):
        ctx = asm.ctx
        if ctx.mode == "dc":
            carried = asm.layout.circuit.state
            for name, params, npos, nneg, state in self.recs:
                s = v[state]
                i, di_dv, di_dx = rram_current_and_grads(
                    params, v[npos] - v[nneg], s)
                held = carried[name]
                out += (i, di_dx, di_dv, -di_dv,
                        s - held, abs(s) + abs(held), 1.0)
            return
        vp, hist, h = asm.v_prev(), _trap_history(ctx), ctx.h
        for name, params, npos, nneg, state in self.recs:
            s, s_prev, vpn = v[state], vp[state], v[npos] - v[nneg]
            i, di_dv, di_dx = rram_current_and_grads(params, vpn, s)
            rate, dr_dv, dr_dx = state_rate_and_grads(params, vpn, s)
            if name in hist:
                w = 0.5 * h
                resid = s - s_prev - w * (rate + hist[name])
            else:
                w = h
                resid = s - s_prev - w * rate
            out += (i, di_dx, di_dv, -di_dv,
                    resid, abs(s) + abs(s_prev) + abs(w * rate),
                    1.0 - w * dr_dx, -w * dr_dv, w * dr_dv)

    def accept(self, ctx, v, x, aux):
        # the filament state leaves [0, 1] only by Newton overshoot
        for name, params, npos, nneg, state in self.recs:
            x[state - 1] = v[state] = s = min(max(v[state], 0.0), 1.0)
            aux[name] = state_rate_and_grads(params, v[npos] - v[nneg], s)[0]


class _Tunnel(_Stamp):
    """Fowler-Nordheim junction from a node into a floating gate; it
    conducts only in transient (DC holds the stored charge instead)."""

    modes = ("tran",)

    # record: (node, floating gate, FloatingGateParams)
    def blocks(self, mode):
        node, fg = self.column(0), self.column(1)
        return [("cur", node, fg, (fg, node))]

    def values(self, asm, v, out):
        for node, fg, params in self.recs:
            i, di = fn_current_and_grad(params, v[node] - v[fg])
            out += (i, -di, di)


class _ChargeRow(_Stamp):
    """Floating-gate stored-charge constraint, in volts; in DC it
    replaces the floating node's KCL row."""

    modes = ("dc",)

    # record: (name, floating gate, (sg, nfb, pfb), FloatingGateParams)
    def blocks(self, mode):
        fg = self.column(1)
        return [("row", fg, (fg, *zip(*self.column(2))))]

    def values(self, asm, v, out):
        carried = asm.layout.circuit.state
        for name, fg, (sg, nfb, pfb), p in self.recs:
            v_fg, c = v[fg], p.c_total
            q = (p.c_sg * (v_fg - v[sg]) + p.c_nfb * (v_fg - v[nfb])
                 + p.c_pfb * (v_fg - v[pfb]))
            held = carried[name]
            out += ((q - held) / c, (abs(q) + abs(held)) / c,
                    1.0, -p.c_sg / c, -p.c_nfb / c, -p.c_pfb / c)


# stamp order within an assembly
_PRIMITIVES = (_VSource, _ISource, _Conductance, _Companion, _Drain, _Rram,
               _Tunnel, _ChargeRow)


def _v(x: np.ndarray, idx: int) -> float:
    return 0.0 if idx == 0 else x[idx - 1]


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


def _floatgate_parts(e: FloatGateElement, n: dict, layout):
    fg = n[e.internal_node]
    parts = [(_Drain, (n[e.nd], fg, n[e.ns], e.params.mos))]
    parts += [(_Companion, (n[node], fg, cap, key))
              for key, cap, node in _fg_couplings(e)]
    parts += [(_Tunnel, (n[term], fg, e.params)) for term in (e.nnfb, e.npfb)]
    parts.append((_ChargeRow, (e.name, fg, (n[e.nsg], n[e.nnfb], n[e.npfb]),
                               e.params)))
    return parts


class _Kind(NamedTuple):
    """One element kind's numerics: the (primitive, record) pairs the
    element compiles into; row, seed and state only for a kind with an
    internal node (its row kind, start value and carried state)."""

    parts: Callable                      # (e, nodes, layout) -> [(P, rec)]
    row: str = ""
    seed: Optional[Callable] = None      # (e, carried) -> row value
    state: Optional[Callable] = None     # (e, x, nodes) -> carried


_KINDS = {
    Resistor: _Kind(lambda e, n, lay: [
        (_Conductance, (n[e.n1], n[e.n2], 1.0 / e.value))]),
    Capacitor: _Kind(lambda e, n, lay: [
        (_Companion, (n[e.n1], n[e.n2], e.value, e.name))]),
    VSource: _Kind(lambda e, n, lay: [
        (_VSource, (e, n[e.npos], n[e.nneg], lay.branch[e.name] + 1))]),
    ISource: _Kind(lambda e, n, lay: [
        (_ISource, (e, n[e.npos], n[e.nneg]))]),
    Mosfet: _Kind(lambda e, n, lay: [
        (_Drain, (n[e.nd], n[e.ng], n[e.ns], e.params))]),
    RramElement: _Kind(
        lambda e, n, lay: [(_Rram, (e.name, e.params, n[e.npos], n[e.nneg],
                                    n[e.internal_node]))],
        row="state", seed=lambda e, x_held: x_held,
        state=lambda e, x, nodes: _v(x, nodes[e.internal_node])),
    FloatGateElement: _Kind(
        _floatgate_parts, row="fg",
        seed=lambda e, q_held: q_held / e.params.c_total, state=_fg_charge),
}


class SystemLayout:
    """Compiled index form of one circuit's MNA system.

    ``SystemLayout(circuit)`` returns the form cached on the circuit and
    compiles it only when there is none; ``Circuit.add`` and
    ``Circuit.add_model`` drop the cache.  Everything but source values
    and carried state is read from the elements at compile time.
    ``size`` is the length of the unknown vector x, ``solved_size`` that
    of the condensed system the Newton step solves.
    """

    def __new__(cls, circuit: Circuit):
        layout = circuit._layout
        if layout is None:
            layout = super().__new__(cls)
            layout._compile(circuit)
            circuit._layout = layout
        return layout

    def _compile(self, circuit: Circuit) -> None:
        circuit.resolve()
        self.circuit = circuit
        nodes = circuit.nodes
        self.n_nodes = len(nodes)
        self.vsrc = circuit.vsources()
        self.branch: dict[str, int] = {
            e.name: self.n_nodes - 1 + j for j, e in enumerate(self.vsrc)}
        self.size = self.n_nodes - 1 + len(self.vsrc)
        index_to_name = {i: n for n, i in nodes.items()}
        self.node_names = [index_to_name[i] for i in range(self.n_nodes)]
        self._columns = (["v(%s)" % n for n in self.node_names[1:]] +
                         ["i(%s)" % e.name for e in self.vsrc])
        # row kinds drive gmin application and tolerances: "kcl", "vsrc",
        # "state" (RRAM filament state) and "fg" (a floating gate: KCL in
        # transient, the stored-charge constraint in DC)
        self.row_kind = ["kcl"] * (self.n_nodes - 1) + ["vsrc"] * len(self.vsrc)
        # (element, row) of each internal node
        self.internal = [(e, nodes[e.internal_node] - 1)
                         for e in circuit.elements if e.internal_node]
        for e, row in self.internal:
            self.row_kind[row] = _KINDS[type(e)].row

        records: dict = {}
        for e in circuit.elements:
            for prim, rec in _KINDS[type(e)].parts(e, nodes, self):
                records.setdefault(prim, []).append(rec)
        stamps = [prim(records[prim]) for prim in _PRIMITIVES
                  if prim in records]
        # mode -> the stamps that take part in it
        self.stamps = {mode: [st for st in stamps if mode in st.modes]
                       for mode in ("dc", "tran")}
        # RRAM states that no element uses as a terminal are condensed
        terminals = {nodes[t] for e in circuit.elements for t in e.terminals}
        self.condensed = tuple(nodes[e.internal_node]
                               for e, _ in self.internal
                               if type(e) is RramElement
                               and nodes[e.internal_node] not in terminals)
        # length of the condensed system the Newton step solves
        self.solved_size = self.size - len(self.condensed)
        self._patterns: dict = {}
        self._abstols: dict = {}

    def pattern(self, mode: str, gmin: bool) -> "_Pattern":
        """Compiled contribution pattern of one mode, with or without the
        gmin rows."""
        key = (mode, gmin)
        pat = self._patterns.get(key)
        if pat is None:
            groups = [(st.n, tuple(st.blocks(mode)))
                      for st in self.stamps[mode]]
            gmin_rows = None
            if gmin:
                kcl = ("kcl", "fg") if mode == "tran" else ("kcl",)
                gmin_rows = tuple(r + 1 for r in range(self.n_nodes - 1)
                                  if self.row_kind[r] in kcl)
                groups.append((len(gmin_rows),
                               (("row", gmin_rows, (gmin_rows,)),)))
            pat = self._patterns[key] = _compiled_pattern(
                self.size, self.condensed, tuple(groups), gmin_rows)
        return pat

    def abstols(self, tol: Tolerances):
        """(per-row residual abstol, per-unknown update abstol)."""
        key = (tol.vabstol, tol.iabstol)
        out = self._abstols.get(key)
        if out is None:
            volts = [k in ("vsrc", "state") for k in self.row_kind]
            f_tol = np.where(volts, tol.vabstol, tol.iabstol)
            x_tol = np.where(np.arange(self.size) < self.n_nodes - 1,
                             tol.vabstol, tol.iabstol)
            out = self._abstols[key] = (f_tol, x_tol)
        return out

    def row_name(self, row: int) -> str:
        if row < self.n_nodes - 1:
            return self.node_names[row + 1]
        return "i(" + self.vsrc[row - (self.n_nodes - 1)].name + ")"

    def column_names(self) -> list[str]:
        return list(self._columns)

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


def _coo(groups):
    """Slot layout of the stamps' values and the COO entries they feed.

    ``groups`` holds (element count, blocks) per stamp, whose values run
    element by element.  Returns, in padded indices, the residual
    entries (row, slot, sign), the scale slot of each residual entry
    (same row, absolute value taken), the Jacobian entries (row, col,
    slot, sign) and the number of slots.
    """
    f_rows, f_slot, f_sign, s_slot = [], [], [], []
    j_rows, j_cols, j_slot, j_sign = [], [], [], []
    off = 0
    for n, blocks in groups:
        width = sum((1 if b[0] == "cur" else 2) + len(b[-1]) for b in blocks)
        slot = off + width * np.arange(n)
        off += width * n
        for blk in blocks:
            cols = [_ints(c) for c in blk[-1]]
            if blk[0] == "cur":              # i leaves a and enters b
                a, b = _ints(blk[1]), _ints(blk[2])
                sides = ((a, 1.0), (b, -1.0))
                scale, grads = slot, slot + 1
            else:                            # f, then its scale
                sides = ((_ints(blk[1]), 1.0),)
                scale, grads = slot + 1, slot + 2
            for rows, sign in sides:
                f_rows.append(rows)
                f_slot.append(slot)
                f_sign.append(np.full(n, sign))
                s_slot.append(scale)
            for k, col in enumerate(cols):
                for rows, sign in sides:
                    j_rows.append(rows)
                    j_cols.append(col)
                    j_slot.append(grads + k)
                    j_sign.append(np.full(n, sign))
            slot = grads + len(cols)

    def cat(parts, dtype):
        return np.concatenate(parts) if parts else np.zeros(0, dtype)

    return (cat(f_rows, np.intp), cat(f_slot, np.intp), cat(f_sign, float),
            cat(s_slot, np.intp), cat(j_rows, np.intp), cat(j_cols, np.intp),
            cat(j_slot, np.intp), cat(j_sign, float), off)


class _Pattern:
    """One mode's compiled scatter.

    The stamps' values are concatenated into one array, ``raw`` (slots
    as laid out by ``_coo``).  One bincount over values gathered from
    ``raw`` fills four regions: the full residual, the full scale, the
    condensed residual and the condensed Jacobian (dense, padded).
    Condensing state x with diagonal a_x, residual f_x, column entries
    J[r, x] and row entries J[x, c] adds -J[r, x] f_x / a_x to the
    condensed residual of r and the fill -J[r, x] J[x, c] / a_x to the
    condensed J[r, c].  Contributions to ground, and condensed
    contributions to a state row or column, are dropped here, once.
    """

    def __init__(self, size: int, condensed: tuple, groups, gmin_rows):
        (f_rows, f_slot, f_sign, s_slot, j_rows, j_cols, j_slot, j_sign,
         self.n_raw) = _coo(groups)
        self.gmin_rows = gmin_rows
        self.j_rows, self.j_cols, self.j_slot, self.j_sign = (
            j_rows, j_cols, j_slot, j_sign)

        # condensed index of each padded unknown: 0 for ground and states
        n1 = size + 1
        xs = _ints(condensed)
        nx = len(xs)
        is_x = np.zeros(n1, bool)
        is_x[xs] = True
        x_id = np.full(n1, -1)
        x_id[xs] = np.arange(nx)
        self.solved = np.flatnonzero(~is_x[1:]) + 1
        m1 = len(self.solved) + 1
        cpos = np.zeros(n1, np.intp)
        cpos[self.solved] = np.arange(1, m1)
        self.n1, self.m1, self.nx, self.x_rows = n1, m1, nx, xs

        # a state row holds its own residual and diagonal once, and it
        # couples to other unknowns only through its device's terminals
        diag = np.flatnonzero(is_x[j_rows] & (j_rows == j_cols))
        fx = np.flatnonzero(is_x[f_rows])
        col = np.flatnonzero(is_x[j_cols] & (j_rows != j_cols))
        row = np.flatnonzero(is_x[j_rows] & (j_rows != j_cols))
        assert np.array_equal(np.sort(x_id[j_rows[diag]]), np.arange(nx))
        assert np.array_equal(np.sort(x_id[f_rows[fx]]), np.arange(nx))
        assert np.all(j_sign[diag] == 1.0) and np.all(f_sign[fx] == 1.0)
        assert not is_x[j_rows[col]].any() and not is_x[j_cols[row]].any()
        self.a_slot = np.empty(nx, np.intp)
        self.a_slot[x_id[j_rows[diag]]] = j_slot[diag]
        self.fx_slot = np.empty(nx, np.intp)
        self.fx_slot[x_id[f_rows[fx]]] = f_slot[fx]
        # the J[x, c] entries, for back-substitution
        self.r_slot, self.r_sign = j_slot[row], j_sign[row]
        self.r_x, self.r_col = x_id[j_rows[row]], j_cols[row]
        # fill pairs: each J[r, x] with each J[x, c] of the same state
        by_x = [[] for _ in range(nx)]
        for k, xi in enumerate(self.r_x):
            by_x[xi].append(k)
        pairs = [(c, k) for c in col for k in by_x[x_id[j_cols[c]]]]
        pc = _ints([c for c, _ in pairs])
        pk = _ints([k for _, k in pairs])

        # bins: full f | full scale | condensed f | condensed J
        s_base, c_base, j_base = n1, 2 * n1, 2 * n1 + m1
        self.n_bins = j_base + m1 * m1
        f_keep = f_rows != 0
        fc_keep = cpos[f_rows] != 0
        j_keep = (cpos[j_rows] != 0) & (cpos[j_cols] != 0)
        col = col[cpos[j_rows[col]] != 0]
        fill_rows, fill_cols = cpos[j_rows[pc]], cpos[self.r_col[pk]]
        fill = (fill_rows != 0) & (fill_cols != 0)
        pc, pk = pc[fill], pk[fill]
        # condensation terms raw[L] * raw[R] / a: -J[r, x] f_x / a_x for
        # each column entry, -J[r, x] J[x, c] / a_x for each fill pair
        col_x, pair_x = x_id[j_cols[col]], x_id[j_cols[pc]]
        self.t_left = np.concatenate((j_slot[col], j_slot[pc]))
        self.t_right = np.concatenate((self.fx_slot[col_x], self.r_slot[pk]))
        self.t_diag = self.a_slot[np.concatenate((col_x, pair_x))]
        # the weights are (raw | |raw| | terms)[slot] * sign
        n_raw, n_terms = self.n_raw, len(self.t_left)
        self.slot = np.concatenate((
            f_slot[f_keep], n_raw + s_slot[f_keep], f_slot[fc_keep],
            2 * n_raw + np.arange(len(col)), j_slot[j_keep],
            2 * n_raw + np.arange(len(col), n_terms)))
        self.sign = np.concatenate((
            f_sign[f_keep], np.ones(f_keep.sum()), f_sign[fc_keep],
            -j_sign[col], j_sign[j_keep], -j_sign[pc] * self.r_sign[pk]))
        self.bins = np.concatenate((
            f_rows[f_keep], s_base + f_rows[f_keep],
            c_base + cpos[f_rows[fc_keep]], c_base + cpos[j_rows[col]],
            j_base + cpos[j_rows[j_keep]] * m1 + cpos[j_cols[j_keep]],
            j_base + fill_rows[fill] * m1 + fill_cols[fill]))

    def scatter(self, raw: np.ndarray):
        """(f, jacobian, scale) from the stamps' concatenated values."""
        assert len(raw) == self.n_raw
        ext = [raw, np.abs(raw)]
        if len(self.t_left):
            ext.append(raw[self.t_left] * raw[self.t_right]
                       / raw[self.t_diag])
        ext = np.concatenate(ext)
        out = np.bincount(self.bins, ext[self.slot] * self.sign, self.n_bins)
        jac = _Jacobian(self, raw, out)
        return jac.f, jac, out[self.n1 + 1:2 * self.n1]


@functools.lru_cache(maxsize=64)
def _compiled_pattern(size: int, condensed: tuple, groups: tuple,
                      gmin_rows: Optional[tuple]) -> _Pattern:
    """The pattern of one index structure (all arguments are index
    tuples, so circuits of the same topology share it: the one-device
    circuits of a write-verify loop compile once)."""
    return _Pattern(size, condensed, groups, gmin_rows)


class _Jacobian:
    """One assembly's Jacobian: the full matrix as values on the compiled
    COO pattern, and the condensed system the Newton step solves."""

    def __init__(self, pattern: _Pattern, raw, out):
        self.pattern, self.raw = pattern, raw
        n1, m1 = pattern.n1, pattern.m1
        self.f = out[1:n1]
        self.fc = out[2 * n1 + 1:2 * n1 + m1]
        self.jc = out[2 * n1 + m1:].reshape(m1, m1)[1:, 1:]
        self.finite = bool(np.isfinite(out).all())

    def dense(self) -> np.ndarray:
        """The full size x size Jacobian."""
        p = self.pattern
        vals = self.raw[p.j_slot] * p.j_sign
        full = np.bincount(p.j_rows * p.n1 + p.j_cols, vals, p.n1 * p.n1)
        return full.reshape(p.n1, p.n1)[1:, 1:]

    def newton_step(self) -> np.ndarray:
        """The Newton update -J^-1 f: solve the condensed system, then
        back-substitute each condensed state,
        dx_x = -(f_x + sum_c J[x, c] dx_c) / a_x."""
        p, raw = self.pattern, self.raw
        dx = np.zeros(p.n1)
        dx[p.solved] = np.linalg.solve(self.jc, -self.fc)
        if p.nx:
            rhs = raw[p.fx_slot]
            if len(p.r_slot):
                rhs = rhs + np.bincount(p.r_x, p.r_sign * raw[p.r_slot]
                                        * dx[p.r_col], p.nx)
            dx[p.x_rows] = -rhs / raw[p.a_slot]
        return dx[1:]


class Assembler:
    """Builds residual, Jacobian, and per-row scale at a given point."""

    def __init__(self, layout: SystemLayout, ctx: EvalContext):
        self.layout = layout
        self.ctx = ctx
        self._v_prev = None

    def v_prev(self) -> list:
        """Padded previous-step solution, as floats."""
        if self._v_prev is None:
            self._v_prev = [0.0] + self.ctx.x_prev.tolist()
        return self._v_prev

    def assemble(self, x: np.ndarray):
        """(f, jacobian, scale) at x; the jacobian's ``newton_step()``
        solves the condensed system and ``dense()`` gives the full J."""
        ctx = self.ctx
        pat = self.layout.pattern(ctx.mode, ctx.gmin != 0.0)
        v = [0.0] + x.tolist()
        out: list = []
        for st in self.layout.stamps[ctx.mode]:
            st.values(self, v, out)
        if pat.gmin_rows is not None:
            gmin = ctx.gmin
            for r in pat.gmin_rows:
                out += (gmin * v[r], 0.0, gmin)
        return pat.scatter(np.array(out, dtype=float))


def _residual_ok(layout: SystemLayout, f, scale, tol: Tolerances) -> bool:
    f_tol = layout.abstols(tol)[0]
    return bool((np.abs(f) <= np.maximum(f_tol, _RESID_FLOOR * scale)).all())


def _dx_ok(layout: SystemLayout, dx, x, tol: Tolerances) -> bool:
    x_tol = layout.abstols(tol)[1]
    return bool((np.abs(dx) <= x_tol + tol.reltol * np.abs(x)).all())


def newton_solve(layout: SystemLayout, ctx: EvalContext, x0: np.ndarray,
                 tol: Tolerances):
    """Damped Newton iteration; returns (x, converged, worst_row)."""
    x = x0.copy()
    dx_ok = False
    f = None
    nv = layout.n_nodes - 1

    def worst():
        return "" if f is None else layout.row_name(int(np.argmax(np.abs(f))))

    for _ in range(tol.max_iter):
        asm = Assembler(layout, ctx)
        f_new, jac, scale = asm.assemble(x)
        if not jac.finite:
            return x, False, "non-finite residual"
        if dx_ok and _residual_ok(layout, f_new, scale, tol):
            return x, True, ""
        f = f_new
        try:
            dx = jac.newton_step()
        except np.linalg.LinAlgError:
            return x, False, "singular matrix at " + worst()
        if not np.isfinite(dx).all():
            return x, False, "non-finite update at " + worst()
        vmax = np.abs(dx[:nv]).max() if nv > 0 else 0.0
        s = 1.0 if vmax <= tol.vlimit else tol.vlimit / vmax
        x = x + s * dx
        dx_ok = (s == 1.0) and _dx_ok(layout, dx, x, tol)
    return x, False, worst()


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
    v = [0.0] + x.tolist()
    for st in layout.stamps["tran"]:
        if st.accept is not None:
            st.accept(ctx, v, x, aux)
    return aux
