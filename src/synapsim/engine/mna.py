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

Solved system: two kinds of unknowns are eliminated before the linear
solve.  The RRAM states, the standard SPICE treatment of device-internal
unknowns: a state row couples only to its own state and its device's
two terminals, so the state block of the Jacobian is diagonal; the
Newton step solves the Schur complement over the remaining unknowns and
back-substitutes each state update.  In DC the diagonal is 1 and the
update pins the state to its carried value; in transient each state
adds a 1x1 complement term onto its device's terminals.  And the node
and branch current of each pinned source, a voltage source from ground
to a node that no other grounded source holds: its row has one entry,
so it gives the node's update before the solve, and its branch current
appears only in that node's KCL row, which gives the current's update
after it (the Jacobian is block lower triangular after a permutation,
and these are the singletons a sparse solver takes out before it
factors).  A 32x16 crossbar has 1152 unknowns and solves none: every
node is held by a word-line driver or a bit-line clamp, and the solve
runs on an empty system.  Sources between two nodes stay solved, and so
does the floating-gate voltage, coupled to four or more nodes.

Compiled form: ``SystemLayout(circuit)`` compiles a circuit once and
caches the result on it until an element or model is added.  Elements
compile into primitive stamps (conductance, companion capacitor, voltage
and current source, drain current, RRAM, tunnel junction, floating-gate
charge row), each one set of index arrays over every element that uses
it; per analysis mode the layout compiles the COO pattern of every
residual, scale and Jacobian contribution and the scatter of the
condensed system.  An assembly gathers terminal voltages, calls each
device model once per element, except the RRAM model, which it calls
once per stamp on arrays when the stamp has many elements (on Python
floats per element when it has few), and scatters everything in one
``np.bincount``.

Lockstep Newton loop: ``newton_solve_batch`` iterates K circuits that
share one compiled pattern, each with its own ``EvalContext``.  Each
iteration, every active circuit's stamps append their slot values (on
floats, as for one circuit); then one ``np.bincount`` over index arrays
stacked per circuit (``_Stack``, compiled once per pattern and K), one
stacked ``np.linalg.solve`` and one stacked back-substitution serve all
K.  Damping, the residual and update tests and the iteration cap stay
per circuit, reductions run over the whole batch first and per circuit
only when one fails, and a circuit that converges or fails leaves the
active set, so each circuit runs exactly the iterates, and gets exactly
the bits, it gets alone.  ``newton_solve`` is the K = 1 case of the same
loop; its solve is the plain 2-D one.

Element numerics live in one table, ``_KINDS``, with one entry per
element class: the primitive stamps the element compiles into, and for a
kind with an internal node its row kind, start value and carried state.
Adding an element kind means one dataclass in ``circuit`` plus one entry
here, and a primitive stamp class if no existing one fits.
"""

from __future__ import annotations

import functools
import operator
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

# whole-array and per-row reductions, called on the ufuncs: the ndarray
# methods add a Python frame per call, a measurable share of a
# one-device Newton iteration
_all, _max = np.logical_and.reduce, np.maximum.reduce

# the fewest RRAM elements a stamp evaluates as one array call: the call
# costs about 20 us more per assembly than one float call, a float call
# about 2 us per element, and the two were measured equal at 16 elements
_VECTOR_MIN = 16


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
    # DC: the carried device state as seeded into x (``initial_vector``),
    # filled on first use when the analysis does not pass it
    seed: Optional[np.ndarray] = None
    # the assemblies the last Newton solve in this context ran
    iterations: int = 0


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
# those slots in the same order (v holds the padded unknowns as floats);
# a ``vector`` stamp instead writes them all at once with ``fill``.
# ``accept(ctx, v, x, aux)``, where present, records in aux the history
# the next trapezoidal step needs (aux is None when no step will read
# it) and clamps what must be clamped.  A stamp takes part only in its
# ``modes``.


class _Stamp:
    accept = None
    modes = ("dc", "tran")
    vector = False

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
        if aux is None:
            return
        vp, hist = [0.0] + ctx.x_prev.tolist(), _trap_history(ctx)
        for n1, n2, cap, key in self.recs:
            aux[key] = _companion(cap, key, v[n1] - v[n2], vp[n1] - vp[n2],
                                  ctx.h, hist)[0]


class _VSource(_Stamp):
    """Independent voltage sources.  Their targets depend on the context
    only, so an assembler computes them once per Newton solve
    (``targets``); a stamp of at least ``_VECTOR_MIN`` sources writes
    its slots from arrays through compiled indices (``vector``).  The
    entries of a source's row and of its branch column are the
    constants +-1, which the Newton step's elimination of pinned
    sources relies on (``_Pattern``)."""

    def __init__(self, recs):
        super().__init__(recs)
        self.elements = self.column(0)
        # overrides name their source in any case
        self.keys = [e.name.lower() for e in self.elements]
        self.vector = self.n >= _VECTOR_MIN
        if self.vector:
            self.npos, self.nneg, self.branch = (
                _ints(self.column(k)) for k in (1, 2, 3))

    # record: (element, npos, nneg, branch)
    def blocks(self, mode):
        npos, nneg, branch = self.column(1), self.column(2), self.column(3)
        return [("cur", npos, nneg, (branch,)),
                ("row", branch, (npos, nneg))]

    def targets(self, ctx):
        """Each source's value in ``ctx``, scaled by its source factor:
        a list of floats, an array for a vector stamp."""
        over, t, scale = ctx.src_override, ctx.time, ctx.sfactor
        if over:
            over = {name.lower(): v for name, v in over.items()}
        if ctx.mode == "tran":
            out = [(over[key] if key in over else e.value_at(t)) * scale
                   for e, key in zip(self.elements, self.keys)]
        else:
            out = [(over[key] if key in over else e.dc_value()) * scale
                   for e, key in zip(self.elements, self.keys)]
        return np.array(out) if self.vector else out

    def values(self, asm, v, out):
        for (_, npos, nneg, branch), target in zip(self.recs, asm.targets):
            vp, vn = v[npos], v[nneg]
            out += (v[branch], 1.0,
                    vp - vn - target, abs(vp) + abs(vn) + abs(target),
                    1.0, -1.0)

    def fill(self, asm, xp, blk):
        target = asm.targets
        vp, vn = xp[self.npos], xp[self.nneg]
        blk[0] = xp[self.branch]
        blk[1] = 1.0
        blk[2] = vp - vn - target
        blk[3] = abs(vp) + abs(vn) + abs(target)
        blk[4] = 1.0
        blk[5] = -1.0


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
    """RRAM conduction plus its state row.

    A stamp of at least ``_VECTOR_MIN`` elements of one model card calls
    the model once on arrays gathered through compiled indices
    (``vector``), and ``fill`` writes its slots in place of ``values``;
    a smaller one, or one of several cards, calls it per element on
    Python floats.
    """

    def __init__(self, recs):
        super().__init__(recs)
        models = {r[1] for r in recs}
        self.vector = self.n >= _VECTOR_MIN and len(models) == 1
        if self.vector:
            (self.params,) = models
            self.npos, self.nneg, self.state = (
                _ints(self.column(k)) for k in (2, 3, 4))

    # record: (name, RramParams, npos, nneg, state)
    def blocks(self, mode):
        npos, nneg, state = self.column(2), self.column(3), self.column(4)
        cur = ("cur", npos, nneg, (state, npos, nneg))
        if mode == "dc":
            return [cur, ("row", state, (state,))]
        return [cur, ("row", state, (state, npos, nneg))]

    @staticmethod
    def _slots(ctx, key, p, vpn, s, held):
        """Slot values of elements at terminal voltage vpn and state s, on
        floats or arrays alike; ``held`` is the carried state in DC and
        the previous step's in transient, ``key`` the trapezoidal
        history's."""
        i, di_dv, di_dx = rram_current_and_grads(p, vpn, s)
        if ctx.mode == "dc":
            return (i, di_dx, di_dv, -di_dv, s - held, abs(s) + abs(held), 1.0)
        rate, dr_dv, dr_dx = state_rate_and_grads(p, vpn, s)
        hist, h = _trap_history(ctx), ctx.h
        if key in hist:
            w = 0.5 * h
            resid = s - held - w * (rate + hist[key])
        else:
            w = h
            resid = s - held - w * rate
        return (i, di_dx, di_dv, -di_dv,
                resid, abs(s) + abs(held) + abs(w * rate),
                1.0 - w * dr_dx, -w * dr_dv, w * dr_dv)

    def values(self, asm, v, out):
        ctx = asm.ctx
        dc = ctx.mode == "dc"
        held = asm.layout.circuit.state if dc else asm.v_prev()
        for name, params, npos, nneg, state in self.recs:
            out += self._slots(ctx, name, params, v[npos] - v[nneg], v[state],
                               held[name if dc else state])

    def fill(self, asm, xp, blk):
        """Write the slots, one row of ``blk`` per slot, from the padded
        unknowns xp."""
        ctx, rows = asm.ctx, self.state - 1
        held = (asm.seed() if ctx.mode == "dc" else ctx.x_prev)[rows]
        for k, value in enumerate(self._slots(
                ctx, self, self.params, xp[self.npos] - xp[self.nneg],
                xp[self.state], held)):
            blk[k] = value

    def accept(self, ctx, v, x, aux):
        # the filament state leaves [0, 1] only by Newton overshoot
        if self.vector:
            rows = self.state - 1
            x[rows] = np.clip(x[rows], 0.0, 1.0)
            if aux is not None:
                xp = np.concatenate(([0.0], x))
                aux[self] = state_rate_and_grads(
                    self.params, xp[self.npos] - xp[self.nneg],
                    xp[self.state])[0]
            return
        for name, params, npos, nneg, state in self.recs:
            x[state - 1] = v[state] = s = min(max(v[state], 0.0), 1.0)
            if aux is not None:
                aux[name] = state_rate_and_grads(params, v[npos] - v[nneg],
                                                 s)[0]


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
    internal node (its row kind, start value and carried state).  A kind
    without a seed starts its row at the carried state itself."""

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
        (_VSource, (e, n[e.npos], n[e.nneg],
                    lay.branch[e.name.lower()] + 1))]),
    ISource: _Kind(lambda e, n, lay: [
        (_ISource, (e, n[e.npos], n[e.nneg]))]),
    Mosfet: _Kind(lambda e, n, lay: [
        (_Drain, (n[e.nd], n[e.ng], n[e.ns], e.params))]),
    RramElement: _Kind(
        lambda e, n, lay: [(_Rram, (e.name, e.params, n[e.npos], n[e.nneg],
                                    n[e.internal_node]))],
        row="state", state=lambda e, x, nodes: _v(x, nodes[e.internal_node])),
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
        # lower-cased source name -> row of its branch current
        self.branch: dict[str, int] = {
            e.name.lower(): self.n_nodes - 1 + j
            for j, e in enumerate(self.vsrc)}
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
        # mode -> the stamps that take part in it; the assembly loops over
        # the per-element ones and fills the vector ones
        self.stamps = {mode: [st for st in stamps if mode in st.modes]
                       for mode in ("dc", "tran")}
        self.scalar = {mode: [st for st in sts if not st.vector]
                       for mode, sts in self.stamps.items()}
        self.vector = {mode: [st for st in sts if st.vector]
                       for mode, sts in self.stamps.items()}
        self.sources = next((st for st in stamps if type(st) is _VSource),
                            None)
        # rows that start at the carried state itself, gathered in one call
        direct = [(e.name, row) for e, row in self.internal
                  if _KINDS[type(e)].seed is None]
        self._seeded = [(e, row) for e, row in self.internal
                        if _KINDS[type(e)].seed is not None]
        self._direct_rows = _ints([row for _, row in direct])
        self._direct_state = (operator.itemgetter(*(n for n, _ in direct))
                              if direct else None)
        # RRAM states that no element uses as a terminal are condensed
        terminals = {nodes[t] for e in circuit.elements for t in e.terminals}
        self.condensed = tuple(nodes[e.internal_node]
                               for e, _ in self.internal
                               if type(e) is RramElement
                               and nodes[e.internal_node] not in terminals)
        # (node, branch, sign) of each pinned source: a source from ground
        # to a KCL node that no other grounded source holds, in padded
        # indices; sign is +1 when the node is the source's npos
        grounded: dict = {}
        for j, e in enumerate(self.vsrc):
            a, b = nodes[e.npos], nodes[e.nneg]
            if (a == 0) != (b == 0):
                grounded.setdefault(a or b, []).append(
                    (a or b, self.n_nodes + j, 1 if a else -1))
        self.pinned = tuple(
            held[0] for node, held in grounded.items()
            if len(held) == 1 and self.row_kind[node - 1] == "kcl")
        # length of the system the Newton step solves: the states and
        # the pinned nodes and branches are eliminated
        self.solved_size = (self.size - len(self.condensed)
                            - 2 * len(self.pinned))
        self._patterns: dict = {}
        self._abstols: dict = {}
        self._results: dict = {}

    def pattern(self, mode: str, gmin: bool) -> "_Pattern":
        """Compiled contribution pattern of one mode, with or without the
        gmin rows."""
        key = (mode, gmin)
        pat = self._patterns.get(key)
        if pat is None:
            groups = [(st.n, tuple(st.blocks(mode)), st.vector)
                      for st in self.stamps[mode]]
            gmin_rows = None
            if gmin:
                kcl = ("kcl", "fg") if mode == "tran" else ("kcl",)
                gmin_rows = tuple(r + 1 for r in range(self.n_nodes - 1)
                                  if self.row_kind[r] in kcl)
                groups.append((len(gmin_rows),
                               (("row", gmin_rows, (gmin_rows,)),), False))
            pat = self._patterns[key] = _compiled_pattern(
                self.size, self.condensed, self.pinned, tuple(groups),
                gmin_rows)
        return pat

    def abstols(self, tol: Tolerances):
        """(per-row residual abstol, per-unknown update abstol, padded
        with a 0 for ground), each one row of a 2-D array: the Newton
        loop compares them with one row per circuit, and at one circuit
        equal shapes skip numpy's broadcasting, a measurable share of a
        one-device iteration."""
        key = (tol.vabstol, tol.iabstol)
        out = self._abstols.get(key)
        if out is None:
            volts = [k in ("vsrc", "state") for k in self.row_kind]
            f_tol = np.where(volts, tol.vabstol, tol.iabstol)
            x_tol = np.where(np.arange(self.size) < self.n_nodes - 1,
                             tol.vabstol, tol.iabstol)
            x_tol = np.concatenate(([0.0], x_tol))
            out = self._abstols[key] = (f_tol[None], x_tol[None])
        return out

    def row_name(self, row: int) -> str:
        if row < self.n_nodes - 1:
            return self.node_names[row + 1]
        return "i(" + self.vsrc[row - (self.n_nodes - 1)].name + ")"

    def columns(self, lead: tuple = ()) -> tuple[list, dict]:
        """Column names of a result whose rows are the ``lead`` values and
        then x, and its lower-cased name -> index map (the first match
        wins), compiled once per lead."""
        out = self._results.get(lead)
        if out is None:
            names = [*lead, *self._columns]
            index: dict = {}
            for i, name in enumerate(names):
                index.setdefault(name.lower(), i)
            out = self._results[lead] = (names, index)
        return list(out[0]), out[1]

    def initial_vector(self) -> np.ndarray:
        """All-zero start, except carried device state."""
        x = np.zeros(self.size)
        state = self.circuit.state
        if self._direct_state is not None:
            x[self._direct_rows] = self._direct_state(state)
        for e, row in self._seeded:
            x[row] = _KINDS[type(e)].seed(e, state[e.name])
        return x

    def store_state(self, x: np.ndarray) -> None:
        """Write each device's state at solution x back to the circuit."""
        for e, _ in self.internal:
            self.circuit.state[e.name] = float(
                _KINDS[type(e)].state(e, x, self.circuit.nodes))


def _coo(groups):
    """Slot layout of the stamps' values and the COO entries they feed.

    ``groups`` holds (element count, blocks, vector) per stamp, whose
    values run element by element.  Returns, in padded indices, the
    residual entries (row, slot, sign), the scale slot of each residual
    entry (same row, absolute value taken), the Jacobian entries (row,
    col, slot, sign), the number of slots and each group's (first slot,
    slots per element).
    """
    f_rows, f_slot, f_sign, s_slot = [], [], [], []
    j_rows, j_cols, j_slot, j_sign = [], [], [], []
    spans = []
    off = 0
    for n, blocks, _ in groups:
        width = sum((1 if b[0] == "cur" else 2) + len(b[-1]) for b in blocks)
        slot = off + width * np.arange(n)
        spans.append((off, width))
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
            cat(j_slot, np.intp), cat(j_sign, float), off, spans)


class _Pattern:
    """One mode's compiled scatter and Newton step.

    The stamps' values are concatenated into one array, ``raw`` (slots
    as laid out by ``_coo``): each vector stamp fills its ``views``
    block, and the per-element stamps' list goes to ``scalar_slots``
    (every slot when no stamp is a vector one).

    The Newton step solves a dense system over the unknowns R: every
    unknown but ground, the condensed states and the node e and branch b
    of each pinned source (``SystemLayout``).  The others are eliminated
    around that solve, in the order of a block lower triangular
    Jacobian:
      - each pinned node first: its source's row s has the one entry
        J[s, e], so dx_e = -f_s / J[s, e];
      - then R, with the states condensed out: condensing state x with
        diagonal a_x, residual f_x, column entries J[r, x] and row
        entries J[x, c] adds -J[r, x] f_x / a_x to the residual of r and
        the fill -J[r, x] J[x, c] / a_x to J[r, c]; an R row's condensed
        entry in a pinned node's column moves to its right-hand side,
        times dx_e;
      - then, in one back-substitution, each state from its own row,
        dx_x = -(f_x + sum_c J[x, c] dx_c) / a_x, and each pinned branch
        current from its node's KCL row, the only row it appears in,
        with the states condensed out of that row as out of R's:
        dx_b = -(f_e + sum_c J[e, c] dx_c) / J[e, b] over c in R and the
        pinned nodes.
    The values the step reads are ``ext``: raw, |raw|, the condensation
    terms (products of raw values) and a constant 1.  One bincount over
    values gathered from ``ext`` fills the bins: the full residual, the
    full scale, R's right-hand side (the negated condensed residual) and
    R's condensed Jacobian (dense), and dx (each pinned node's dx_e);
    the back-substitution gathers its own.  Contributions to ground are
    dropped here, once.  ``stack(k)`` runs all this for k circuits at
    once.
    """

    def __init__(self, size: int, condensed: tuple, pinned: tuple, groups,
                 gmin_rows):
        (f_rows, f_slot, f_sign, s_slot, j_rows, j_cols, j_slot, j_sign,
         self.n_raw, spans) = _coo(groups)
        n_raw = self.n_raw
        self.gmin_rows = gmin_rows
        self._stacks: dict = {}
        # (first slot, end, slots per element) of each vector stamp, and
        # the slots of the others, which run in assembly order
        self.vector = tuple((off, off + width * n, width) for (off, width),
                            (n, _, vector) in zip(spans, groups) if vector)
        # a basic slice when every slot is a per-element one: assigning
        # through it costs less than through an index array
        self.scalar_slots = slice(None)
        if self.vector:
            scalar = np.ones(n_raw, bool)
            for lo, hi, _ in self.vector:
                scalar[lo:hi] = False
            self.scalar_slots = np.flatnonzero(scalar)
        self.j_rows, self.j_cols, self.j_slot, self.j_sign = (
            j_rows, j_cols, j_slot, j_sign)

        n1 = size + 1
        xs = _ints(condensed)
        nx = len(xs)
        is_x = np.zeros(n1, bool)
        is_x[xs] = True
        x_id = np.full(n1, -1)
        x_id[xs] = np.arange(nx)
        pin_e, pin_b, pin_sign = _ints(pinned).reshape(-1, 3).T
        npin = len(pin_e)
        # the pin of each padded node e and of each branch b, -1 elsewhere
        e_id, b_id = np.full(n1, -1), np.full(n1, -1)
        e_id[pin_e] = b_id[pin_b] = np.arange(npin)
        is_e = e_id >= 0
        # condensed index of each unknown of R, 1-based; 0 elsewhere
        in_r = ~(is_x | is_e | (b_id >= 0))
        in_r[0] = False
        self.solved = np.flatnonzero(in_r)
        m = len(self.solved)
        cpos = np.zeros(n1, np.intp)
        cpos[self.solved] = np.arange(1, m + 1)
        self.n, self.n1, self.m, self.nx = size, n1, m, nx
        self.nt = nx + npin

        # a state row holds its own residual and diagonal once, and it
        # couples to other unknowns only through its device's terminals,
        # with entries of sign +1
        diag = np.flatnonzero(is_x[j_rows] & (j_rows == j_cols))
        fx = np.flatnonzero(is_x[f_rows])
        col = np.flatnonzero(is_x[j_cols] & (j_rows != j_cols))
        row = np.flatnonzero(is_x[j_rows] & (j_rows != j_cols))
        assert np.array_equal(np.sort(x_id[j_rows[diag]]), np.arange(nx))
        assert np.array_equal(np.sort(x_id[f_rows[fx]]), np.arange(nx))
        assert np.all(j_sign[diag] == 1.0) and np.all(f_sign[fx] == 1.0)
        assert not is_x[j_rows[col]].any() and not is_x[j_cols[row]].any()
        assert np.all(j_sign[row] == 1.0)
        a_slot = np.empty(nx, np.intp)
        a_slot[x_id[j_rows[diag]]] = j_slot[diag]
        fx_slot = np.empty(nx, np.intp)
        fx_slot[x_id[f_rows[fx]]] = f_slot[fx]
        # a pinned source's row (numbered as its branch b) holds one
        # residual, f_s, and one entry, J[s, e], both of sign +1, and its
        # branch column one entry, J[e, b], of the pin's sign; the source
        # stamp writes J[s, e] as the pin's sign and J[e, b] as 1, so the
        # divisions by them are exact
        fs = np.flatnonzero(b_id[f_rows] >= 0)
        se = np.flatnonzero((b_id[j_rows] >= 0) & (j_cols != 0))
        eb = np.flatnonzero((b_id[j_cols] >= 0) & (j_rows != 0))
        for ends, other in ((b_id[j_rows], j_cols), (b_id[j_cols], j_rows)):
            on = ends >= 0
            assert np.all((other[on] == 0) | (other[on] == pin_e[ends[on]]))
        assert len(fs) == len(se) == len(eb) == npin
        assert np.all(f_sign[fs] == 1.0) and np.all(j_sign[se] == 1.0)
        assert np.array_equal(j_sign[eb], pin_sign[b_id[j_cols[eb]]])
        fs_slot = np.empty(npin, np.intp)
        fs_slot[b_id[f_rows[fs]]] = f_slot[fs]
        se_slot = np.empty(npin, np.intp)
        se_slot[b_id[j_rows[se]]] = j_slot[se]
        eb_slot = np.empty(npin, np.intp)
        eb_slot[b_id[j_cols[eb]]] = j_slot[eb]

        # what the states condense out of: the rows of R and the pinned
        # nodes' KCL rows, in R's and the pinned nodes' columns; the fill
        # pairs join each J[r, x] with each J[x, c] of the same state
        kept = in_r | is_e
        col = col[kept[j_rows[col]]]
        by_x = [[] for _ in range(nx)]
        for k in row[kept[j_cols[row]]]:
            by_x[x_id[j_rows[k]]].append(k)
        pairs = [(c, k) for c in col for k in by_x[x_id[j_cols[c]]]]
        pc = _ints([c for c, _ in pairs])
        pk = _ints([k for _, k in pairs])
        # R's direct entries in pinned columns
        direct = np.flatnonzero(in_r[j_rows] & is_e[j_cols])
        de = e_id[j_cols[direct]]

        # terms raw[L] * raw[R] / raw[D]: J[r, x] f_x / a_x of each column
        # entry, J[r, x] J[x, c] / a_x of each fill pair, and
        # J[r, e] f_s / J[s, e] of each direct entry; then products
        # term * raw[F]: each fill pair of an R row and a pinned column
        # times its f_s
        col_x, pair_x = x_id[j_cols[col]], x_id[j_cols[pc]]
        self.t_left = np.concatenate((j_slot[col], j_slot[pc],
                                      j_slot[direct]))
        self.t_right = np.concatenate((fx_slot[col_x], j_slot[pk],
                                       fs_slot[de]))
        self.t_diag = np.concatenate((a_slot[col_x], a_slot[pair_x],
                                      se_slot[de]))
        n_col, n_terms = len(col), len(self.t_left)
        fill_rows, fill_cols = j_rows[pc], j_cols[pk]
        fp = np.flatnonzero(in_r[fill_rows] & is_e[fill_cols])
        fp_pin = e_id[fill_cols[fp]]
        self.p_term, self.p_raw = n_col + fp, fs_slot[fp_pin]
        # ext = raw | |raw| | terms | products | 1
        t_base, p_base = 2 * n_raw, 2 * n_raw + n_terms
        one = p_base + len(fp)
        self.parts = (n_raw, n_raw, n_terms, len(fp), 0)

        # the binned weights, ext[slot] * sign, ground dropped: full f
        # (size) | full scale (size) | R's right-hand side (m) | R's
        # condensed J (m x m, row-major) | dx (size + 1, padded: each
        # pinned node's dx_e, 0 elsewhere, and 1 in a last, spare
        # column); a padded unknown r is bin r - 1 of the full parts, a
        # condensed one c bin c - 1 of R's parts
        f_keep = np.flatnonzero(f_rows != 0)
        f_r = np.flatnonzero(in_r[f_rows])
        r_j = np.flatnonzero(in_r[j_rows] & in_r[j_cols])
        r_col = np.flatnonzero(in_r[j_rows[col]])
        r_fill = np.flatnonzero(in_r[fill_rows] & in_r[fill_cols])
        r_dir = np.arange(len(direct))
        c_base = 2 * size - 1
        self.d_base = 2 * size + m + m * m
        self.n_bins = self.d_base + n1 + 1
        parts = (
            # the full residual and scale
            (f_slot[f_keep], f_sign[f_keep], f_rows[f_keep] - 1),
            (n_raw + s_slot[f_keep], np.ones(len(f_keep)),
             size - 1 + f_rows[f_keep]),
            # R's right-hand side: -f_r, then the state terms, the direct
            # pinned terms and the fill products; each is minus its term
            # of the condensed residual
            (f_slot[f_r], -f_sign[f_r], c_base + cpos[f_rows[f_r]]),
            (j_slot[r_j], j_sign[r_j],
             c_base + cpos[j_rows[r_j]] * m + cpos[j_cols[r_j]]),
            (t_base + r_col, j_sign[col[r_col]],
             c_base + cpos[j_rows[col[r_col]]]),
            (t_base + n_col + r_fill, -j_sign[pc[r_fill]],
             c_base + cpos[fill_rows[r_fill]] * m + cpos[fill_cols[r_fill]]),
            (t_base + n_col + len(pc) + r_dir, j_sign[direct],
             c_base + cpos[j_rows[direct]]),
            (p_base + np.arange(len(fp)), -j_sign[pc[fp]] * pin_sign[fp_pin],
             c_base + cpos[fill_rows[fp]]),
            # dx: each pinned node's -f_s / J[s, e], and the spare 1
            (fs_slot, -pin_sign, self.d_base + pin_e),
            (_ints([one]), np.ones(1), _ints([self.d_base + n1])))
        self.slot, self.sign, self.bins = (np.concatenate(a)
                                           for a in zip(*parts))

        # the back-substitution: target t (each state, then each pinned
        # branch) is the sum of its entries ext[src] * sign * dx[col],
        # over its pivot; a residual entry's column is the spare one
        self.t_pos = np.concatenate((xs, pin_b))
        self.t_piv = np.concatenate((a_slot, eb_slot))
        st_row = np.flatnonzero(is_x[j_rows] & (j_rows != j_cols))
        pin_j = np.flatnonzero(is_e[j_rows] & kept[j_cols])
        pin_f = np.flatnonzero(is_e[f_rows])
        p_col = np.flatnonzero(is_e[j_rows[col]])
        p_fill = np.flatnonzero(is_e[fill_rows])
        pin_of = [e_id[r] for r in (j_rows[pin_j], fill_rows[p_fill],
                                    f_rows[pin_f], j_rows[col[p_col]])]
        entries = (
            # a state's J[x, c] (its column 0 entries add 0), then its f_x
            (j_slot[st_row], -j_sign[st_row], x_id[j_rows[st_row]],
             j_cols[st_row]),
            (fx_slot, -np.ones(nx), np.arange(nx), np.full(nx, n1)),
            # a pinned KCL row: its entries, the fills, its residual and
            # the column terms, each over J[e, b], the pin's sign
            (j_slot[pin_j], -j_sign[pin_j] * pin_sign[pin_of[0]],
             nx + pin_of[0], j_cols[pin_j]),
            (t_base + n_col + p_fill, j_sign[pc[p_fill]] * pin_sign[pin_of[1]],
             nx + pin_of[1], fill_cols[p_fill]),
            (f_slot[pin_f], -f_sign[pin_f] * pin_sign[pin_of[2]],
             nx + pin_of[2], np.full(len(pin_f), n1)),
            (t_base + p_col, j_sign[col[p_col]] * pin_sign[pin_of[3]],
             nx + pin_of[3], np.full(len(p_col), n1)))
        self.b_src, self.b_sign, self.b_t, self.b_col = (
            np.concatenate(a) for a in zip(*entries))

    def views(self, raw: np.ndarray, off: int) -> list:
        """Each vector stamp's block of the circuit whose values start at
        ``off`` in ``raw``, one row per slot of an element and one column
        per element."""
        return [raw[off + lo:off + hi].reshape(-1, width).T
                for lo, hi, width in self.vector]

    def stack(self, k: int) -> "_Stack":
        """The scatter and Newton step of k circuits at once, compiled on
        first use."""
        st = self._stacks.get(k)
        if st is None:
            st = self._stacks[k] = _Stack(self, k)
        return st


@functools.lru_cache(maxsize=64)
def _compiled_pattern(size: int, condensed: tuple, pinned: tuple,
                      groups: tuple, gmin_rows: Optional[tuple]) -> _Pattern:
    """The pattern of one index structure (all arguments are index
    tuples, so circuits of the same topology share it: the one-device
    circuits of a write-verify loop compile once)."""
    return _Pattern(size, condensed, pinned, groups, gmin_rows)


_ONE = np.ones(1)


class _Stack:
    """A pattern's scatter and Newton step over k circuits at once.

    The circuits' values lie one after another in ``raw`` (k blocks of
    ``n_raw``), and each part of ``ext`` holds the k circuits' blocks
    one after another.  Every compiled index of the pattern is repeated
    per circuit with that circuit's offsets, into flat 1-D arrays: one
    bincount fills k blocks of bins, one stacked solve factors k
    condensed matrices, and one bincount back-substitutes k circuits'
    states and pinned branch currents.  Each bin sums its contributions
    in a lone circuit's order and LAPACK solves each matrix of a stack
    on its own, so every circuit's numbers are bit for bit those it has
    alone.  For k = 1 the solve is the plain 2-D one.
    """

    def __init__(self, p: _Pattern, k: int):
        self.p, self.k = p, k
        n_raw, n_terms = p.n_raw, len(p.t_left)
        # a row of dx: the padded unknowns and the spare column
        w1 = p.n1 + 1
        off = np.arange(k)[:, None]

        def rep(idx, step):
            # one circuit uses the pattern's own arrays
            return idx if k == 1 else (idx + step * off).ravel()

        sizes = _ints(p.parts)
        starts = np.cumsum(sizes) - sizes

        def rep_ext(idx):
            # ext indices: part q starts where the k blocks of the parts
            # before it end (the 1 is one entry for all circuits)
            part = np.searchsorted(starts, idx, side="right") - 1
            return rep(idx + (k - 1) * starts[part], sizes[part])

        self.t_left, self.t_right, self.t_diag, self.p_raw = (
            rep(a, n_raw) for a in (p.t_left, p.t_right, p.t_diag, p.p_raw))
        self.p_term = rep(p.p_term, n_terms)
        self.slot, self.b_src, self.t_piv = (
            rep_ext(a) for a in (p.slot, p.b_src, p.t_piv))
        self.sign, self.b_sign = rep(p.sign, 0), rep(p.b_sign, 0)
        self.bins = rep(p.bins, p.n_bins)
        self.n_bins = k * p.n_bins
        self.b_t = rep(p.b_t, p.nt)
        self.b_col, self.t_pos, self.solved = (
            rep(a, w1) for a in (p.b_col, p.t_pos, p.solved))
        self.scalar_slots = (rep(p.scalar_slots, n_raw) if p.vector
                             else p.scalar_slots)

    def values(self, raw: np.ndarray) -> np.ndarray:
        """``ext`` of the k circuits (``_Pattern``)."""
        ext = [raw, np.abs(raw)]
        if len(self.t_left):
            terms = raw[self.t_left] * raw[self.t_right] / raw[self.t_diag]
            ext.append(terms)
            if len(self.p_term):
                ext.append(terms[self.p_term] * raw[self.p_raw])
        ext.append(_ONE)
        return np.concatenate(ext)

    def scatter(self, ext: np.ndarray) -> np.ndarray:
        """The bins of each circuit, one row per circuit (``_Pattern``)."""
        out = np.bincount(self.bins, ext[self.slot] * self.sign, self.n_bins)
        return out.reshape(self.k, -1)

    def step(self, ext: np.ndarray, out: np.ndarray):
        """(dx, singular): the Newton updates -J^-1 f of the k circuits,
        padded, one row per circuit, and the rows whose condensed matrix
        is singular (their update is NaN).  The pinned nodes' updates
        come from the scatter, R's dense solve runs even when R is
        empty, and one bincount back-substitutes the rest
        (``_Pattern``)."""
        p, k = self.p, self.k
        c0, j0, m = 2 * p.n, 2 * p.n + p.m, p.m
        dx = out[:, p.d_base:].copy()
        flat = dx.reshape(-1)
        singular = []
        try:
            if k == 1:
                sol = np.linalg.solve(out[0, j0:j0 + m * m].reshape(m, m),
                                      out[0, c0:j0])
            else:
                sol = np.linalg.solve(out[:, j0:j0 + m * m].reshape(k, m, m),
                                      out[:, c0:j0, None]).reshape(-1)
        except np.linalg.LinAlgError:
            jc, rhs = out[:, j0:j0 + m * m].reshape(k, m, m), out[:, c0:j0]
            sol = np.empty((k, m))
            for row in range(k):
                try:
                    sol[row] = np.linalg.solve(jc[row], rhs[row])
                except np.linalg.LinAlgError:
                    sol[row] = np.nan
                    singular.append(row)
            sol = sol.reshape(-1)
        flat[self.solved] = sol
        if p.nt:
            t = np.bincount(self.b_t,
                            ext[self.b_src] * self.b_sign * flat[self.b_col],
                            k * p.nt)
            if p.nx:        # without states every pivot is a 1
                t = t / ext[self.t_piv]
            flat[self.t_pos] = t
        return dx[:, :-1], singular


class _Jacobian:
    """One circuit's assembled system outside the Newton loop: the full
    matrix as values on the compiled COO pattern, and the condensed
    system the Newton step solves."""

    def __init__(self, pattern: _Pattern, raw: np.ndarray):
        self.pattern, self.raw = pattern, raw
        self.stack = pattern.stack(1)
        self.ext = self.stack.values(raw)
        self.out = self.stack.scatter(self.ext)
        n = pattern.n
        self.f = self.out[0, :n]
        self.scale = self.out[0, n:2 * n]

    def dense(self) -> np.ndarray:
        """The full size x size Jacobian."""
        p = self.pattern
        vals = self.raw[p.j_slot] * p.j_sign
        full = np.bincount(p.j_rows * p.n1 + p.j_cols, vals, p.n1 * p.n1)
        return full.reshape(p.n1, p.n1)[1:, 1:]

    def newton_step(self) -> np.ndarray:
        """The Newton update -J^-1 f."""
        dx, singular = self.stack.step(self.ext, self.out)
        if singular:
            raise np.linalg.LinAlgError("Singular matrix")
        return dx[0, 1:]


class Assembler:
    """Evaluates one circuit's stamps at a given point."""

    def __init__(self, layout: SystemLayout, ctx: EvalContext):
        self.layout = layout
        self.ctx = ctx
        self.pattern = layout.pattern(ctx.mode, ctx.gmin != 0.0)
        self._v_prev = None
        # the voltage sources' targets, once per context
        self.targets = (None if layout.sources is None
                        else layout.sources.targets(ctx))

    def v_prev(self) -> list:
        """Padded previous-step solution, as floats."""
        if self._v_prev is None:
            self._v_prev = [0.0] + self.ctx.x_prev.tolist()
        return self._v_prev

    def seed(self) -> np.ndarray:
        """The DC carried-state vector, read once per context."""
        if self.ctx.seed is None:
            self.ctx.seed = self.layout.initial_vector()
        return self.ctx.seed

    def assemble(self, x: np.ndarray, out: Optional[list] = None,
                 raw: Optional[np.ndarray] = None, off: int = 0):
        """(f, jacobian, scale) at x; the jacobian's ``newton_step()``
        solves the condensed system and ``dense()`` gives the full J.

        In the lockstep Newton loop ``out`` is the batch's list of slot
        values, to which the per-element stamps append this circuit's,
        and ``raw`` the batch's value array, whose block from ``off`` its
        vector stamps fill; the loop writes ``out`` into the batch's
        ``scalar_slots`` and scatters the batch, and nothing is returned.
        """
        ctx, layout, pat = self.ctx, self.layout, self.pattern
        alone = out is None
        if alone:
            out, raw = [], np.empty(pat.n_raw)
        scalar = layout.scalar[ctx.mode]
        if scalar or pat.gmin_rows is not None:
            # the per-element stamps read the unknowns as floats
            v = [0.0] + x.tolist()
            for st in scalar:
                st.values(self, v, out)
            if pat.gmin_rows is not None:
                gmin = ctx.gmin
                for r in pat.gmin_rows:
                    out += (gmin * v[r], 0.0, gmin)
        if pat.vector:
            xp = np.concatenate(([0.0], x))
            for st, blk in zip(layout.vector[ctx.mode],
                               pat.views(raw, off)):
                st.fill(self, xp, blk)
        if not alone:
            return None
        raw[pat.scalar_slots] = out
        jac = _Jacobian(pat, raw)
        return jac.f, jac, jac.scale


def newton_solve(layout: SystemLayout, ctx: EvalContext, x0: np.ndarray,
                 tol: Tolerances):
    """Damped Newton iteration; returns (x, converged, worst_row)."""
    return newton_solve_batch((layout,), (ctx,), (x0,), tol)[0]


def newton_solve_batch(layouts, ctxs, x0s, tol: Tolerances) -> list:
    """Damped Newton iteration of circuits that share one compiled
    pattern, in lockstep; returns (x, converged, worst_row) per circuit.

    Each iteration assembles every active circuit, then scatters, solves
    and back-substitutes all of them at once (``_Stack``).  Damping, the
    residual and update tests and the iteration cap are per circuit, and
    a circuit leaves the active set as soon as it converges or fails, so
    each runs exactly the iterates it runs alone.  Each context's
    ``iterations`` is set to the assemblies its circuit ran.  Circuits
    of another pattern or row layout raise ValueError.
    """
    asms = list(map(Assembler, layouts, ctxs))
    layout, pat = layouts[0], asms[0].pattern
    if len(asms) > 1:
        for asm in asms:
            if (asm.pattern is not pat
                    or asm.layout.row_kind != layout.row_kind):
                raise ValueError("circuits of a batch must share one "
                                 "topology and analysis mode")
    f_tol, x_tol = layout.abstols(tol)
    nv, n, n1, n_raw = layout.n_nodes - 1, pat.n, pat.n1, pat.n_raw
    k = len(asms)
    results: list = [None] * k
    live = list(range(k))               # batch position of each row
    # the active circuits' unknowns, one padded row each (ground at 0)
    x = np.zeros((k, n1))
    for row, x0 in enumerate(x0s):
        x[row, 1:] = x0
    dx_ok = [False] * k
    last = None                         # the rows' bins of the last step
    st = pat.stack(k)
    for it in range(1, tol.max_iter + 1):
        out: list = []
        raw = np.empty(k * n_raw)
        for row, i in enumerate(live):
            asms[i].assemble(x[row, 1:], out, raw, row * n_raw)
        raw[st.scalar_slots] = out
        ext = st.values(raw)
        bins = st.scatter(ext)
        # whole-batch tests first; per-row reductions only when one fails
        left: dict = {}
        if not _all(np.isfinite(bins), None):
            for row in np.flatnonzero(~_all(np.isfinite(bins), 1)).tolist():
                left[row] = (x[row, 1:], False, "non-finite residual")
        if True in dx_ok:
            ok = (np.abs(bins[:, :n])
                  <= np.maximum(f_tol, _RESID_FLOOR * bins[:, n:2 * n]))
            rows_ok = [True] * k if _all(ok, None) else _rows_all(ok, k)
            for row in range(k):
                if dx_ok[row] and rows_ok[row]:
                    left.setdefault(row, (x[row, 1:], True, ""))
        if left:
            live, keep = _leave(left, live, results, ctxs, it)
            if not live:
                return results
            x, bins = x[keep], bins[keep]
            raw = raw.reshape(k, n_raw)[keep].ravel()
            k = len(keep)
            st = pat.stack(k)
            ext = st.values(raw)
        last = bins
        dx, singular = st.step(ext, bins)
        # |dx| is finite exactly when its maximum is
        adx = np.abs(dx)
        if singular or not _max(adx, None) < np.inf:
            left = {row: (x[row, 1:], False, "singular matrix at "
                          + _worst(layout, last[row, :n])) for row in singular}
            for row in np.flatnonzero(~(_max(adx, 1) < np.inf)).tolist():
                left.setdefault(row, (x[row, 1:], False,
                                      "non-finite update at "
                                      + _worst(layout, last[row, :n])))
            live, keep = _leave(left, live, results, ctxs, it)
            if not live:
                return results
            x, dx, adx, last = x[keep], dx[keep], adx[keep], last[keep]
            k = len(keep)
            st = pat.stack(k)
        # each row's damping factor, from its largest voltage update
        if nv == 0 or _max(adx[:, 1:nv + 1], None) <= tol.vlimit:
            dx_ok = [True] * k
            x = x + dx
        else:
            vmax = _max(adx[:, 1:nv + 1], 1).tolist()
            s = [1.0 if v <= tol.vlimit else tol.vlimit / v for v in vmax]
            dx_ok = [si == 1.0 for si in s]
            x = x + np.array(s)[:, None] * dx
        if True in dx_ok:
            ok = adx <= x_tol + tol.reltol * np.abs(x)
            if not _all(ok, None):
                dx_ok = [a and b for a, b in zip(dx_ok, _rows_all(ok, k))]
    for row, i in enumerate(live):
        worst = "" if last is None else _worst(layout, last[row, :n])
        results[i] = (x[row, 1:], False, worst)
        ctxs[i].iterations = tol.max_iter
    return results


def _rows_all(ok: np.ndarray, k: int) -> list:
    """Each row's all() of a batch's (k, n) test, once the whole-batch
    all() has failed (so a lone row has failed)."""
    return [False] if k == 1 else _all(ok, 1).tolist()


def _worst(layout: SystemLayout, f: np.ndarray) -> str:
    """Name of the row with the largest residual in f."""
    return layout.row_name(int(np.argmax(np.abs(f))))


def _leave(left: dict, live: list, results: list, ctxs, it: int):
    """Record the result of each row in ``left``, after ``it``
    iterations; returns the batch positions and the rows that stay
    active."""
    for row, res in left.items():
        results[live[row]] = res
        ctxs[live[row]].iterations = it
    keep = [row for row in range(len(live)) if row not in left]
    return [live[row] for row in keep], keep


_GMIN_LADDER = [10.0 ** (-k) for k in range(3, 13)]

# the homotopies of an operating point, weakest first
DC_PATHS = ("newton", "gmin", "source")


def solve_dc(layout: SystemLayout, tol: Tolerances,
             x0: Optional[np.ndarray] = None,
             src_override: Optional[dict] = None,
             stats: Optional[dict] = None) -> np.ndarray:
    """Operating point with gmin-stepping and source-stepping fallbacks.

    ``stats``, when given, receives the Newton iterations of every
    attempt (``newton_iterations``) and the homotopy that reached the
    solution (``path``: one of ``DC_PATHS``)."""
    override = src_override or {}
    seed = layout.initial_vector()
    if stats is None:
        stats = {}
    stats["newton_iterations"] = 0

    def attempt(xstart, sfactor=1.0, gmin=None):
        ctx = EvalContext(mode="dc", sfactor=sfactor,
                          gmin=tol.gmin if gmin is None else gmin,
                          src_override=override, seed=seed)
        out = newton_solve(layout, ctx, xstart, tol)
        stats["newton_iterations"] += ctx.iterations
        return out

    start = seed if x0 is None else x0
    x, ok, worst = attempt(start)
    if ok:
        stats["path"] = "newton"
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
            stats["path"] = "gmin"
            return x

    # source stepping from the dead circuit
    x = seed
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
    stats["path"] = "source"
    return x


def post_step_aux(layout: SystemLayout, ctx: EvalContext,
                  x: np.ndarray, history: bool = True) -> dict:
    """Accept the step just solved at x: clamp each RRAM state into
    [0, 1] in place and return the companion-model history (capacitor
    currents, RRAM state rates) the next trapezoidal step needs.
    Without ``history`` (a backward-Euler run, which never reads it)
    only the clamp runs and the history is empty."""
    aux = {} if history else None
    v = [0.0] + x.tolist()
    for st in layout.stamps["tran"]:
        if st.accept is not None:
            st.accept(ctx, v, x, aux)
    return aux if history else {}
