"""Modified nodal analysis: compiled assembly, condensed Newton solve, homotopy.

Unknown layout (the vector x that analyses see and report): node voltages
for nodes 1..N-1 (ground dropped), then one branch current per
independent voltage source.  Device state rides along on internal nodes:
each RRAM element's filament state X and each floating gate's voltage.

Rows are classed by structure, per analysis mode, once per topology on
the compiled pattern that its circuits share (``_Pattern.kcl``): a
constraint row is one that only the mode's "row" blocks write (a voltage
source's branch voltage, an RRAM state equation, a floating gate's
stored charge in DC), every other row a KCL row, the sum of currents
leaving its node.  gmin is a conductance from each KCL node to ground,
compiled as one more current; a residual meets ``IABSTOL`` on a KCL row
and ``VABSTOL`` on a constraint row, whose residual is in volts or state
(``_Pattern.f_tol`` and ``x_tol``).

Solved system: the Newton step leaves out of its dense solve every
unknown that one structural rule, read off the compiled pattern and
naming no element kind, pivots on (``_Pattern``): row and column
singletons on constant +-1 entries peeled forward and backward, as a
sparse solver peels them before it factors, then the own diagonal of
each constraint row that couples to no other.  Solved sizes in
DC/transient: a 32x16 crossbar 0/0 of 1152 unknowns, a pulse cell 0/0,
the rram-iv drive 0/0, a 1T1R cell 1/1 and a floating-gate cell 0/1.

DC start: each Newton attempt of ``solve_dc`` starts every unknown that
the forward peel takes from a voltage-source row at the source's other
terminal plus or minus its value in that attempt (source stepping's
factor applied), in peel order, so along chains of sources: a 32x16
read converges in 3 assemblies.  The chains are compiled once per
topology, on the DC pattern (``_Pattern.starts``).  A transient step
starts from the previous step's solution, and ``newton_solve`` from x0.

Compiled form: ``SystemLayout(circuit)`` compiles a circuit once, from
frozen element fields and model cards, and caches the result on it
until an element or model is added.  A solve reads each run-time input
one way: source values off their elements (a DC sweep sets its source's
``dc`` and restores it), the held RRAM states by row from
``EvalContext.x_prev`` and a floating gate's stored charge from the
carried state.  Elements compile into primitive stamps (conductance,
companion capacitor, voltage and current source, drain current, RRAM,
tunnel junction, floating-gate charge row), each one set of index
arrays over every element that uses it; per analysis mode the layout
compiles the COO pattern of every residual, scale and Jacobian
contribution, the scatter and the Newton step.  An assembly gathers
terminal voltages, calls each device model once per element, except the
RRAM model, which it calls once per stamp on arrays when the stamp has
many elements (on Python floats per element when it has few), and
scatters everything in one ``np.bincount``.  A MOSFET or tunnel
junction whose biases repeat its last call's bit for bit makes none: its
stamp keeps that call's inputs and slots, and a layout never outlives
the frozen fields it compiled.

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

Element numerics live in one table, ``_KINDS``, which maps each element
class to the primitive stamps it compiles into; a stamp that reads
carried device state also seeds and stores it (``seed``, ``store``), and
one that carries step history records it under itself, in record order
(``accept``; ``EvalContext.aux_prev``), so no element name keys it.
Adding an element kind means one dataclass in ``circuit`` plus one entry
here, and a primitive stamp class (with ``seed`` and ``store`` if it
carries state) when no existing one fits.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..floatgate import fn_current_and_grad
from ..mosfet import drain_current_and_grads, solve_charge_householder
from ..rram import rram_current_and_grads, state_rate_and_grads
from .circuit import (Capacitor, Circuit, FloatGateElement, ISource,
                      Mosfet, Resistor, RramElement, VSource)

# convergence: row residuals must reach their absolute tolerance, with a
# floating-point floor of _RESID_FLOOR times the row's contribution scale
_RESID_FLOOR = 5e-15

# absolute tolerances: a constraint row's residual and a node voltage's
# update meet VABSTOL (V), a KCL row's residual and a branch current's
# update IABSTOL (A); a Newton update whose largest voltage step exceeds
# VLIMIT (V) is scaled down to it
VABSTOL = 1e-9
IABSTOL = 1e-12
VLIMIT = 0.3

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
    """A failed DC solve or transient step: ``worst_row`` is its worst
    residual row, and a timestep underflow's ``circuit`` its circuit's
    position in the batch."""

    def __init__(self, message: str, worst_row: str = "", circuit: int = 0):
        super().__init__(message)
        self.worst_row = worst_row
        self.circuit = circuit


@dataclass
class Tolerances:
    reltol: float = 1e-6
    max_iter: int = 100
    gmin: float = 0.0

    def check(self) -> None:
        """Raise ValueError naming the first setting no solve can run
        with: a reltol that is not positive (NaN included), fewer than
        one Newton iteration, or a negative gmin."""
        if not self.reltol > 0.0:
            raise ValueError("reltol must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")
        if not self.gmin >= 0.0:
            raise ValueError("gmin must not be negative")


@dataclass
class EvalContext:
    """Everything an element stamp needs beyond the unknown vector."""

    mode: str                    # "dc" | "tran"
    time: float = 0.0
    h: float = 0.0
    # held device state by row: the carried state in DC (the assembler
    # reads it when not given), the last step's solution in transient
    x_prev: Optional[np.ndarray] = None
    # trapezoidal history (``post_step_aux``) by stamp, in record order;
    # empty on a backward-Euler step
    aux_prev: dict = field(default_factory=dict)
    sfactor: float = 1.0
    gmin: float = 0.0
    # the voltage sources' targets (``_VSource.targets``), computed by
    # the assembler when the analysis does not pass them
    targets: object = None
    # the assemblies the last Newton solve in this context ran
    iterations: int = 0


def _ints(values) -> np.ndarray:
    return np.array(values, dtype=np.intp)


# -- primitive stamps ---------------------------------------------------
#
# A primitive stamp is compiled over every element that uses it, from one
# record per element.  ``blocks(mode)`` gives the index structure of its
# contributions, as tuples of padded indices with one entry per element:
#   ("cur", a, b, cols, units): current i from node a into node b, then
#       dI/dx along each column in cols;
#   ("row", r, cols, units): residual f of row r, its scale, then df/dx
#       along each column in cols.
# ``units`` holds (cols, value) pairs: a derivative that is the constant
# +1 or -1, which takes no slot.  ``values(asm, v, out)`` appends,
# element by element, the values of the slots in the same order (v holds
# the padded unknowns as floats);
# a ``vector`` stamp instead writes them all at once with ``fill``.
# ``accept(ctx, v, x, aux)``, where present, records in aux[stamp] the
# history the next trapezoidal step needs (aux is None when no step will
# read it) and clamps what must be clamped; ``seed(x, carried)`` and
# ``store(x, carried)`` move carried device state into a start x and back
# from a solution x.  A stamp takes part only in its ``modes``.


class _Stamp:
    accept = seed = store = None
    modes = ("dc", "tran")
    vector = False

    def __init__(self, recs):
        self.recs = recs
        self.n = len(recs)
        self._columns = tuple(zip(*recs))

    def column(self, k) -> tuple:
        return self._columns[k]


class _Conductance(_Stamp):
    # record: (n1, n2, g)
    def blocks(self, mode):
        n1, n2 = self.column(0), self.column(1)
        return [("cur", n1, n2, (n1, n2), ())]

    def values(self, asm, v, out):
        for n1, n2, g in self.recs:
            out += (g * (v[n1] - v[n2]), g, -g)


class _Companion(_Stamp):
    """Capacitor companion model; it conducts only in transient.  Its
    history is each capacitor's current at the last accepted step."""

    modes = ("tran",)

    # record: (n1, n2, capacitance)
    def blocks(self, mode):
        n1, n2 = self.column(0), self.column(1)
        return [("cur", n1, n2, (n1, n2), ())]

    def _slots(self, ctx, v, vp) -> list:
        """The slots at v, vp being the last step's voltages; a
        trapezoidal step when ``ctx.aux_prev`` holds the stamp's history."""
        h, last = ctx.h, ctx.aux_prev.get(self)
        out = []
        for k, (n1, n2, cap) in enumerate(self.recs):
            dv = v[n1] - v[n2] - (vp[n1] - vp[n2])
            # backward Euler, or trapezoidal from the last step's current
            geq = (cap if last is None else 2.0 * cap) / h
            i = geq * dv if last is None else geq * dv - last[k]
            out += (i, geq, -geq)
        return out

    def values(self, asm, v, out):
        out += self._slots(asm.ctx, v, asm.v_prev())

    def accept(self, ctx, v, x, aux):
        if aux is not None:
            aux[self] = self._slots(ctx, v, [0.0] + ctx.x_prev.tolist())[::3]


class _VSource(_Stamp):
    """Independent voltage sources.  Their targets depend on the context
    only, so an assembler computes them once per Newton solve
    (``targets``); a stamp of at least ``_VECTOR_MIN`` sources writes
    its slots from arrays through compiled indices (``vector``).  The
    entries of a source's row and of its branch column are the
    constants +-1 (units)."""

    def __init__(self, recs):
        super().__init__(recs)
        self.elements = self.column(0)
        self.vector = self.n >= _VECTOR_MIN
        if self.vector:
            self.npos, self.nneg, self.branch = (
                _ints(self.column(k)) for k in (1, 2, 3))

    # record: (element, npos, nneg, branch)
    def blocks(self, mode):
        npos, nneg, branch = self.column(1), self.column(2), self.column(3)
        return [("cur", npos, nneg, (), ((branch, 1.0),)),
                ("row", branch, (), ((npos, 1.0), (nneg, -1.0)))]

    def targets(self, ctx):
        """Each source's value in ``ctx``, read off its element and
        scaled by the source factor: a list of floats, an array for a
        vector stamp."""
        t, scale = ctx.time, ctx.sfactor
        if ctx.mode == "tran":
            out = [e.value_at(t) * scale for e in self.elements]
        else:
            out = [e.dc_value() * scale for e in self.elements]
        return np.array(out) if self.vector else out

    @staticmethod
    def _slots(i, vp, vn, target):
        """Slot values of sources with branch current i and terminal
        voltages vp and vn, on floats or arrays alike."""
        return i, vp - vn - target, abs(vp) + abs(vn) + abs(target)

    def values(self, asm, v, out):
        for (_, npos, nneg, branch), target in zip(self.recs, asm.targets):
            out += self._slots(v[branch], v[npos], v[nneg], target)

    def fill(self, asm, xp, blk):
        for k, value in enumerate(self._slots(
                xp[self.branch], xp[self.npos], xp[self.nneg], asm.targets)):
            blk[k] = value


class _ISource(_Stamp):
    # record: (element, npos, nneg)
    def blocks(self, mode):
        return [("cur", self.column(1), self.column(2), (), ())]

    def values(self, asm, v, out):
        out += (e.dc * asm.ctx.sfactor for e, _, _ in self.recs)


def _recall(memo: list, k: int, key: tuple):
    """What ``memo[k]`` holds if ``key`` repeats, bit for bit, the model
    inputs it was stored for, else None.  A key holding 0.0 never does
    (== takes -0.0 for 0.0), nor one holding NaN (its floats are fresh,
    so tuple == compares them by float ==)."""
    old, value = memo[k]
    return value if key == old and all(key) else None


class _Drain(_Stamp):
    """MOSFET drain current, one model call per element whose (V_gs,
    V_ds) are not its last call's (``_recall``); at a repeated V_gs the
    call reuses the source-end charge, which the stamp solves otherwise,
    and at V_ds = 0.0 it reuses that charge as the drain-end one."""

    def __init__(self, recs):
        super().__init__(recs)
        # per element: ((v_gs, v_ds), slots) and ((v_gs,), charge)
        self.last, self.charge = [((), None)] * self.n, [((), None)] * self.n

    # record: (drain, gate, source, MosParams)
    def blocks(self, mode):
        d, g, s = self.column(0), self.column(1), self.column(2)
        return [("cur", d, s, (d, g, s), ())]

    def values(self, asm, v, out):
        last, charge = self.last, self.charge
        for k, (d, g, s, params) in enumerate(self.recs):
            v_gs, v_ds = key = (v[g] - v[s], v[d] - v[s])
            slots = _recall(last, k, key)
            if slots is None:
                q = _recall(charge, k, (v_gs,))
                if q is None:
                    q = solve_charge_householder(params, v_gs, 0.0)
                    charge[k] = ((v_gs,), q)
                # at V_ds = 0.0 the drain-end solve has the source end's
                # inputs, so it takes the source end's charge
                q_d = q if v_ds == 0.0 else None
                i, gm, gds = drain_current_and_grads(params, v_gs, v_ds,
                                                     q_is=q, q_id=q_d)
                slots = (i, gds, gm, -(gm + gds))
                last[k] = (key, slots)
            out += slots


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
        # the state rows, and one call that reads their carried states
        self.rows = _ints(self.column(4)) - 1
        self._held = operator.itemgetter(*self.column(0))
        self.vector = self.n >= _VECTOR_MIN and len(models) == 1
        if self.vector:
            (self.params,) = models
            self.npos, self.nneg, self.state = (
                _ints(self.column(k)) for k in (2, 3, 4))

    # record: (name, RramParams, npos, nneg, state)
    def blocks(self, mode):
        npos, nneg, state = self.column(2), self.column(3), self.column(4)
        cur = ("cur", npos, nneg, (state, npos, nneg), ())
        if mode == "dc":
            return [cur, ("row", state, (), ((state, 1.0),))]
        return [cur, ("row", state, (state, npos, nneg), ())]

    @staticmethod
    def _slots(ctx, last, p, vpn, s, held):
        """Slot values of elements at terminal voltage vpn and state s, on
        floats or arrays alike; ``held`` is the state in ``ctx.x_prev``
        (carried in DC, the previous step's in transient), ``last`` the
        state rate at the last accepted step, None on a backward-Euler
        step."""
        i, di_dv, di_dx = rram_current_and_grads(p, vpn, s)
        if ctx.mode == "dc":
            return i, di_dx, di_dv, -di_dv, s - held, abs(s) + abs(held)
        rate, dr_dv, dr_dx = state_rate_and_grads(p, vpn, s)
        if last is None:
            w = ctx.h
            resid = s - held - w * rate
        else:
            w = 0.5 * ctx.h
            resid = s - held - w * (rate + last)
        return (i, di_dx, di_dv, -di_dv,
                resid, abs(s) + abs(held) + abs(w * rate),
                1.0 - w * dr_dx, -w * dr_dv, w * dr_dv)

    def values(self, asm, v, out):
        ctx, held = asm.ctx, asm.v_prev()
        rates = ctx.aux_prev.get(self)
        for k, (_, params, npos, nneg, state) in enumerate(self.recs):
            out += self._slots(ctx, None if rates is None else rates[k],
                               params, v[npos] - v[nneg], v[state],
                               held[state])

    def fill(self, asm, xp, blk):
        """Write the slots, one row of ``blk`` per slot, from the padded
        unknowns xp."""
        ctx = asm.ctx
        held = ctx.x_prev[self.rows]
        for k, value in enumerate(self._slots(
                ctx, ctx.aux_prev.get(self), self.params,
                xp[self.npos] - xp[self.nneg], xp[self.state], held)):
            blk[k] = value

    def accept(self, ctx, v, x, aux):
        # the filament state leaves [0, 1] only by Newton overshoot
        if self.vector:
            x[self.rows] = np.clip(x[self.rows], 0.0, 1.0)
            if aux is not None:
                xp = np.concatenate(([0.0], x))
                aux[self] = state_rate_and_grads(
                    self.params, xp[self.npos] - xp[self.nneg],
                    xp[self.state])[0]
            return
        if aux is not None:
            aux[self] = rates = []
        for _, params, npos, nneg, state in self.recs:
            x[state - 1] = s = min(max(v[state], 0.0), 1.0)
            if aux is not None:
                rates.append(state_rate_and_grads(params, v[npos] - v[nneg],
                                                  s)[0])

    def seed(self, x, carried):
        x[self.rows] = self._held(carried)

    def store(self, x, carried):
        carried.update(zip(self.column(0), x[self.rows].tolist()))


class _Tunnel(_Stamp):
    """Fowler-Nordheim junction from a node into a floating gate; it
    conducts only in transient (DC holds the stored charge instead).  An
    element whose V repeats its last call's (``_recall``) appends that
    call's slots."""

    modes = ("tran",)

    def __init__(self, recs):
        super().__init__(recs)
        self.last = [((), None)] * self.n       # per element: ((V,), slots)

    # record: (node, floating gate, FloatingGateParams)
    def blocks(self, mode):
        node, fg = self.column(0), self.column(1)
        return [("cur", node, fg, (fg, node), ())]

    def values(self, asm, v, out):
        last = self.last
        for k, (node, fg, params) in enumerate(self.recs):
            key = (v[node] - v[fg],)
            slots = _recall(last, k, key)
            if slots is None:
                i, di = fn_current_and_grad(params, key[0])
                slots = (i, -di, di)
                last[k] = (key, slots)
            out += slots


class _ChargeRow(_Stamp):
    """Floating-gate stored-charge constraint, in volts; in DC it
    replaces the floating node's KCL row."""

    modes = ("dc",)

    # record: (name, floating gate, (sg, nfb, pfb), FloatingGateParams)
    def blocks(self, mode):
        fg = self.column(1)
        return [("row", fg, tuple(zip(*self.column(2))), ((fg, 1.0),))]

    def values(self, asm, v, out):
        carried = asm.layout.circuit.state
        for name, fg, (sg, nfb, pfb), p in self.recs:
            v_fg, c = v[fg], p.c_total
            q = (p.c_sg * (v_fg - v[sg]) + p.c_nfb * (v_fg - v[nfb])
                 + p.c_pfb * (v_fg - v[pfb]))
            held = carried[name]
            out += ((q - held) / c, (abs(q) + abs(held)) / c,
                    -p.c_sg / c, -p.c_nfb / c, -p.c_pfb / c)

    def seed(self, x, carried):
        for name, fg, _, p in self.recs:
            x[fg - 1] = carried[name] / p.c_total

    def store(self, x, carried):
        # the stored charge sum C_i * (V_fg - V_i) over the couplings
        v = [0.0] + x.tolist()
        for name, fg, (sg, nfb, pfb), p in self.recs:
            v_fg = v[fg]
            carried[name] = (0.0 + p.c_sg * (v_fg - v[sg])
                             + p.c_nfb * (v_fg - v[nfb])
                             + p.c_pfb * (v_fg - v[pfb]))


# stamp order within an assembly
_PRIMITIVES = (_VSource, _ISource, _Conductance, _Companion, _Drain, _Rram,
               _Tunnel, _ChargeRow)


def _floatgate_parts(e: FloatGateElement, n: dict, layout):
    fg, p = n[e.internal_node], e.params
    parts = [(_Drain, (n[e.nd], fg, n[e.ns], p.mos))]
    parts += [(_Companion, (n[node], fg, cap))
              for cap, node in ((p.c_sg, e.nsg), (p.c_nfb, e.nnfb),
                                (p.c_pfb, e.npfb))]
    parts += [(_Tunnel, (n[term], fg, p)) for term in (e.nnfb, e.npfb)]
    parts.append((_ChargeRow, (e.name, fg, (n[e.nsg], n[e.nnfb], n[e.npfb]),
                               p)))
    return parts


# element class -> its parts: (e, nodes, layout) -> the (primitive,
# record) pairs the element compiles into
_KINDS = {
    Resistor: lambda e, n, lay: [
        (_Conductance, (n[e.n1], n[e.n2], 1.0 / e.value))],
    Capacitor: lambda e, n, lay: [
        (_Companion, (n[e.n1], n[e.n2], e.value))],
    VSource: lambda e, n, lay: [
        (_VSource, (e, n[e.npos], n[e.nneg],
                    lay.branch[e.name.lower()] + 1))],
    ISource: lambda e, n, lay: [(_ISource, (e, n[e.npos], n[e.nneg]))],
    Mosfet: lambda e, n, lay: [
        (_Drain, (n[e.nd], n[e.ng], n[e.ns], e.params))],
    RramElement: lambda e, n, lay: [
        (_Rram, (e.name, e.params, n[e.npos], n[e.nneg],
                 n[e.internal_node]))],
    FloatGateElement: _floatgate_parts,
}


class SystemLayout:
    """Compiled index form of one circuit's MNA system.

    ``SystemLayout(circuit)`` returns the form cached on the circuit and
    compiles it only when there is none; ``Circuit.add`` and
    ``Circuit.add_model`` drop the cache.  Everything but source values
    and carried state is read from the elements at compile time.
    ``size`` is the length of the unknown vector x; each mode's pattern
    holds the size ``m`` of the system its Newton step solves.
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

        records: dict = {}
        for e in circuit.elements:
            for prim, rec in _KINDS[type(e)](e, nodes, self):
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
        self.stateful = [st for st in stamps if st.store is not None]
        self._patterns: dict = {}
        self._results: dict = {}

    def pattern(self, mode: str, gmin: bool) -> "_Pattern":
        """Compiled contribution pattern of one mode, with or without gmin,
        a conductance from each KCL node of the plain pattern to ground."""
        key = (mode, gmin)
        pat = self._patterns.get(key)
        if pat is None:
            groups = tuple((st.n, tuple(st.blocks(mode)), st.vector)
                           for st in self.stamps[mode])
            gmin_rows = None
            if gmin:
                gmin_rows = tuple(
                    (np.flatnonzero(self.pattern(mode, False).kcl) + 1)
                    .tolist())
                groups += ((len(gmin_rows), (("cur", gmin_rows,
                                              (0,) * len(gmin_rows),
                                              (gmin_rows,), ()),), False),)
            pat = self._patterns[key] = _compiled_pattern(
                self.size, self.n_nodes, groups, gmin_rows)
        return pat

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
        for st in self.stateful:
            st.seed(x, self.circuit.state)
        return x

    def dc_start(self, ctx: EvalContext, x: np.ndarray) -> np.ndarray:
        """A copy of x in which each unknown that the DC pattern's forward
        pivots take from a voltage-source row starts at the source's
        other terminal plus or minus its value in ``ctx``, in pivot order,
        so along chains of sources (``_Pattern.starts``); ``ctx.targets``
        keeps the values for the assembly."""
        if self.sources is None:
            return x.copy()
        ctx.targets = self.sources.targets(ctx)
        target = np.asarray(ctx.targets)
        xp = np.concatenate(([0.0], x))
        for node, other, src, sign in self.pattern("dc",
                                                   ctx.gmin != 0.0).starts:
            xp[node] = xp[other] + sign * target[src]
        return xp[1:]

    def store_state(self, x: np.ndarray) -> None:
        """Write each device's state at solution x back to the circuit."""
        for st in self.stateful:
            st.store(x, self.circuit.state)


def _coo(groups):
    """Slot layout of the stamps' values and the COO entries they feed.

    ``groups`` holds (element count, blocks, vector) per stamp, whose
    values run element by element after slot 0, the constant 1 that the
    units read.  Returns, in padded indices, the residual entries (row,
    slot, sign), the scale slot of each residual entry (same row,
    absolute value taken), the Jacobian entries (row, col, slot, sign),
    the number of slots, each group's (first slot, slots per element)
    and the rows that "cur" blocks write and that "row" blocks write.
    """
    f_rows, f_slot, f_sign, s_slot = [], [], [], []
    j_rows, j_cols, j_slot, j_sign = [], [], [], []
    spans, cur, row = [], [], []
    off = 1
    # the stamps pass one tuple of indices to several ends and columns
    ints = functools.lru_cache(maxsize=None)(_ints)
    for n, blocks, _ in groups:
        width = sum((1 if b[0] == "cur" else 2) + len(b[-2]) for b in blocks)
        slot = off + width * np.arange(n)
        spans.append((off, width))
        off += width * n
        for blk in blocks:
            if blk[0] == "cur":              # i leaves a and enters b
                a, b = ints(blk[1]), ints(blk[2])
                sides = ((a, 1.0), (b, -1.0))
                scale, grads = slot, slot + 1
                cur += [a, b]
            else:                            # f, then its scale
                sides = ((ints(blk[1]), 1.0),)
                scale, grads = slot + 1, slot + 2
                row.append(sides[0][0])
            for rows, sign in sides:
                f_rows.append(rows)
                f_slot.append(slot)
                f_sign.append(np.full(n, sign))
                s_slot.append(scale)
            cols = [(ints(c), grads + k, 1.0) for k, c in enumerate(blk[-2])]
            cols += [(ints(c), np.zeros(n, np.intp), v) for c, v in blk[-1]]
            for col, at, sign in cols:
                for rows, side in sides:
                    j_rows.append(rows)
                    j_cols.append(col)
                    j_slot.append(at)
                    j_sign.append(np.full(n, side * sign))
            slot = grads + len(blk[-2])

    def cat(parts, dtype):
        return np.concatenate(parts) if parts else np.zeros(0, dtype)

    return (cat(f_rows, np.intp), cat(f_slot, np.intp), cat(f_sign, float),
            cat(s_slot, np.intp), cat(j_rows, np.intp), cat(j_cols, np.intp),
            cat(j_slot, np.intp), cat(j_sign, float), off, spans,
            cat(cur, np.intp), cat(row, np.intp))


def _peel(lines, others, ok, live_l, live_o) -> list:
    """Each round's pivots among the distinct entries (line, other): the
    live lines with one live entry left, unless it is not ``ok`` or
    another such line claims its other end.  Clears the live masks."""
    rounds = []
    while True:
        live = np.flatnonzero(live_l[lines] & live_o[others])
        left = np.bincount(lines[live], minlength=len(live_l))
        e = live[left[lines[live]] == 1]
        claims = np.bincount(others[e], minlength=len(live_o))
        e = e[ok[e] & (claims[others[e]] == 1)]
        if not len(e):
            return rounds
        live_l[lines[e]] = live_o[others[e]] = False
        rounds.append(e)


def _expand(rows, reads, entries, pivot, unit):
    """The monomials (row, sign, slots, pivots, column read) of L_r for
    each row r with ``rows[r]`` > 0: its ``entries`` (row, slot, sign,
    column, sorted by row; a residual's column is the last, the constant
    1's) times their columns' updates, read where ``reads[rows[r]]`` is
    true, else substituted, dx_c = -L_p / J[p, c] with c's ``pivot`` (row
    p, slot, sign).  A monomial of depth d has d + 1 slots over d pivots,
    padded with ``unit`` to the deepest one's, its other factors first."""
    e_row, e_slot, e_sign, e_col = entries
    p_row, p_slot, p_sign = pivot
    count = np.bincount(e_row, minlength=len(p_row))
    first = np.cumsum(count) - count
    on = rows[e_row] > 0
    row, sign, col = e_row[on], e_sign[on], e_col[on]
    num, den = e_slot[on][:, None], np.zeros((on.sum(), 0), np.intp)
    levels = []
    while True:
        read = reads[rows[row], col]
        go = np.flatnonzero(~read)
        if not len(go):
            levels.append([row, sign, num, den, col])
            break
        levels.append([a[read] for a in (row, sign, num, den, col)])
        # join each substituted entry with its pivot row's entries
        p = p_row[col[go]]
        n = count[p]
        k = np.repeat(go, n)
        at = np.arange(n.sum()) + np.repeat(first[p] - (np.cumsum(n) - n), n)
        c = col[k]
        row, col = row[k], e_col[at]
        sign = -sign[k] * p_sign[c] * e_sign[at]
        num, den = (np.column_stack((a[k], np.full(len(k), unit)))
                    for a in (num, den))
        # each new factor takes the place of its row's first unit
        for a, f in ((num, e_slot[at]), (den, p_slot[c])):
            i = np.flatnonzero(f != unit)
            a[i, (a[i] != unit).sum(1)] = f[i]
    for d, lv in enumerate(levels[:-1]):
        pad = np.full((len(lv[0]), len(levels) - 1 - d), unit)
        lv[2], lv[3] = np.hstack((lv[2], pad)), np.hstack((lv[3], pad))
    return [np.concatenate(a) for a in zip(*levels)]


def _entries(groups, n1):
    """The residual and scale bins' parts, in stamp order; every entry
    off ground (row, slot, sign, column: n1 for a residual), stably
    sorted by row, residuals first, then column; the number of slots and
    each group's span (``_coo``); and the KCL rows, padded: those that a
    "cur" block writes or that nothing writes."""
    (f_rows, f_slot, f_sign, s_slot, j_rows, j_cols, j_slot, j_sign,
     n_raw, spans, cur, row) = _coo(groups)
    on_f, on_j = f_rows != 0, (j_rows != 0) & (j_cols != 0)
    entries = [np.concatenate((a[on_f], b[on_j])) for a, b in (
        (f_rows, j_rows), (f_slot, j_slot), (f_sign, j_sign),
        (np.full(len(f_rows), n1), j_cols))]
    f_rows = f_rows[on_f]
    resid = ((f_slot[on_f], f_sign[on_f], f_rows - 1),
             (n_raw + s_slot[on_f], np.ones(len(f_rows)), n1 - 2 + f_rows))
    order = np.argsort(entries[0] * n1 + entries[3] % n1, kind="stable")
    kcl = np.ones(n1, bool)
    kcl[row], kcl[cur] = False, True
    return resid, [a[order] for a in entries], n_raw, spans, kcl


def _pivots(entries, kcl, n1):
    """The pivot entries' places, each eliminated column's pivot (row,
    slot, sign) and each pivot row's column, the plain updates, R's rows
    and columns and each forward round's rows, columns, other columns
    (the row's unit columns but the pivot's, or 0) and signs."""
    e_row, e_slot, e_sign, e_col = entries
    # the distinct Jacobian entries, a run of one key each
    key = e_row * n1 + e_col % n1
    start = np.flatnonzero(np.diff(key, prepend=-1))
    count = np.diff(start, append=len(key))
    jac = e_col[start] != n1
    start, count = start[jac], count[jac]
    u_row, u_col, ok = e_row[start], e_col[start], count == 1
    unit = ok & (e_slot[start] == 0)          # slot 0: the constant 1
    # each row's unit columns, summed
    unit_sum = np.bincount(u_row[unit], u_col[unit], n1).astype(np.intp)
    live_r, live_c = np.ones(n1, bool), np.ones(n1, bool)
    live_r[0] = live_c[0] = False
    forward = _peel(u_row, u_col, unit, live_r, live_c)
    backward = _peel(u_col, u_row, unit, live_c, live_r)
    # the constraint rows' own diagonals, coupled to no other one
    diag = np.flatnonzero((u_row == u_col) & ok & live_r[u_row]
                          & live_c[u_col])
    cand = np.zeros(n1, bool)
    cand[u_row[diag]] = True
    cand[kcl] = False
    coupled = cand[u_row] & cand[u_col] & (u_row != u_col)
    cand[u_row[coupled]] = cand[u_col[coupled]] = False
    diag = diag[cand[u_row[diag]]]
    live_r[u_row[diag]] = live_c[u_col[diag]] = False
    pe = start[np.concatenate((*forward, diag, *backward))]
    t_row, t_col = e_row[pe], e_col[pe]
    pivot = tuple(np.zeros(n1, a.dtype) for a in entries[:3])
    for a, v in zip(pivot, entries[:3]):
        a[t_col] = v[pe]
    row_target = np.zeros(n1, np.intp)
    row_target[t_row] = t_col
    # the plain updates, round by round
    plain = np.zeros(n1, bool)
    for e in forward:
        bad = ~(unit & plain[u_col]) & (u_col != row_target[u_row])
        bad = np.bincount(u_row[bad], minlength=n1)[u_row[e]] > 0
        plain[u_col[e][~bad]] = True
    return (pe, pivot, row_target, plain, live_r, live_c,
            [(u_row[e], u_col[e], unit_sum[u_row[e]] - u_col[e],
              e_sign[start[e]]) for e in forward])


def _monomials(rows, reads, entries, pivot, n_raw):
    """The expanded rows' monomials (``_expand``) as (row, sign, column,
    place in ext), and the factors of the distinct deep ones (numerator,
    denominator; one slot array per factor) and their count."""
    one = 0
    row, sign, num, den, col = _expand(rows, reads, entries, pivot, one)
    # ext = raw | |raw| | the monomials of more than one slot
    deep = (num[:, 1:2] != one).any(1) | (den[:, :1] != one).any(1)
    num, den, ext = num[deep], den[deep], num[:, 0]
    wn = max(1, (num != one).sum(1).max(initial=0))
    wd = (den != one).sum(1).max(initial=0)
    # the distinct monomials (a current's derivative feeds two rows), in
    # lexicographic order of their slots
    mono, inv = np.unique(np.hstack((num[:, :wn], den[:, :wd])), axis=0,
                          return_inverse=True)
    ext[deep] = 2 * n_raw + inv.reshape(-1)
    return (row, sign, col, ext,
            (list(np.ascontiguousarray(mono[:, :wn].T)),
             list(np.ascontiguousarray(mono[:, wn:].T))), len(mono))


class _Pattern:
    """One mode's compiled scatter and Newton step.

    The stamps' values are concatenated into one array, ``raw`` (slots
    as laid out by ``_coo``): each vector stamp fills its ``views``
    block, and the per-element stamps' list goes to ``scalar_slots``
    (every slot when no stamp is a vector one).

    Pivots, in this order: 1. forward, repeatedly, each row with one
    unknown left, on a unit, unless another row of the round claims it
    (a node held by two grounded sources stays solved); 2. backward,
    likewise, each column with one row left; 3. the own diagonal of each
    constraint row (one that no "cur" block writes), if one slot writes
    it and the row couples to no other.  A peeled pivot is a unit, never
    a device's derivative, which can vanish or underflow (a drain's gds
    at a node only a MOSFET drain touches), and neither is a condensed
    one a KCL diagonal.  The rest, R, is solved densely.

    Each eliminated update is dx_t = -L_t / J[r, t], L_t being its pivot
    row's residual plus its other entries times their updates, which
    give monomials when substituted (``_expand``).  The scatter bins
    the plain updates (forward pivots in rows of units on plain columns)
    and R's rows, every update substituted; one bincount after R's
    solve gives the other updates, the plain ones and R's read, each
    divided by its pivot.  ``ext`` is raw, |raw| and the monomials; the
    bins are the full residual and scale, R's right-hand side and matrix
    (row-major) and dx (a padded unknown r is bin r - 1 of the full
    parts; a spare last dx column holds the constant's 1).  ``stack(k)``
    runs all this for k circuits at once.
    """

    def __init__(self, size: int, n_nodes: int, groups, gmin_rows):
        n1 = size + 1
        resid, entries, n_raw, spans, kcl = _entries(groups, n1)
        self.gmin_rows, self.n_raw = gmin_rows, n_raw
        # the row classes; each row's residual abstol, by class, and each
        # unknown's update abstol, padded with a 0 for ground, one row of
        # a 2-D array each: the Newton loop compares them with one row per
        # circuit, and at one circuit equal shapes skip numpy's
        # broadcasting, a measurable share of a one-device iteration
        self.kcl = kcl[1:]
        self.f_tol = np.where(self.kcl, IABSTOL, VABSTOL)[None]
        self.x_tol = np.concatenate(([0.0], np.where(
            np.arange(size) < n_nodes - 1, VABSTOL, IABSTOL)))[None]
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
        self.groups = groups      # _coo(groups) gives J's entries again
        self.n, self.n1 = size, n1

        pe, pivot, row_target, plain, live_r, live_c, forward = (
            _pivots(entries, kcl, n1))
        # the DC start (``SystemLayout.dc_start``): per forward round, each
        # pivot on a branch row as (column, other column, source, sign)
        self.starts = []
        for rows, cols, other, sign in forward:
            on = rows >= n_nodes
            if on.any():
                self.starts.append((cols[on], other[on], rows[on] - n_nodes,
                                    sign[on]))
        t_row, t_col = entries[0][pe], entries[3][pe]
        self.solved = np.flatnonzero(live_c)
        self.m = m = len(self.solved)
        # the rows expanded: R's and the plain updates' (1), every update
        # but R's substituted, and the other targets' (2), which read the
        # plain updates too; a row's L leaves out its pivot
        entries = [np.delete(a, pe) for a in entries]
        back = np.zeros(n1, bool)
        back[t_row[~plain[t_col]]] = True
        reads = np.ones((3, n1 + 1), bool)       # the constant's is read
        reads[1:, :n1] = live_c, live_c | plain
        row, sign, col, ext, self.mono, n_mono = _monomials(
            np.where(back, 2, live_r | plain[row_target]), reads, entries,
            pivot, n_raw)
        del entries             # before the bins: the compile's peak
        self.parts = (n_raw, n_raw, n_mono)

        # the binned weights, ext[slot] * sign: full f (size) | full
        # scale (size) | R's right-hand side (m) | R's matrix (m x m) |
        # dx (size + 1 padded, and the spare column)
        c_base, j_base = 2 * size, 2 * size + m
        self.d_base = j_base + m * m
        self.n_bins = self.d_base + n1 + 1
        # each row's and column's place in R
        rpos, cpos = np.cumsum(live_r) - 1, np.cumsum(live_c) - 1
        rhs, mat, lead, b = (np.flatnonzero(a) for a in (
            live_r[row] & (col == n1), live_r[row] & (col != n1),
            plain[row_target[row]], back[row]))
        parts = (
            *resid,
            (ext[rhs], -sign[rhs], c_base + rpos[row[rhs]]),
            (ext[mat], sign[mat],
             j_base + rpos[row[mat]] * m + cpos[col[mat]]),
            (ext[lead], -sign[lead] * pivot[2][row_target[row[lead]]],
             self.d_base + row_target[row[lead]]),
            (_ints([0]), np.ones(1), _ints([self.d_base + n1])))
        self.slot, self.sign, self.bins = (np.concatenate(a)
                                           for a in zip(*parts))
        # the back-substitution: target t is the sum of its monomials
        # ext[src] * sign * dx[col], over its pivot (None: every pivot
        # is a unit)
        self.t_pos = t_col[~plain[t_col]]
        self.nt = len(self.t_pos)
        piv = pivot[1][self.t_pos]
        self.t_piv = None if np.all(piv == 0) else piv
        t_id = np.zeros(n1, np.intp)
        t_id[self.t_pos] = np.arange(self.nt)
        target = row_target[row[b]]
        self.b_src, self.b_col, self.b_t = ext[b], col[b], t_id[target]
        self.b_sign = -sign[b] * pivot[2][target]

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
def _compiled_pattern(size: int, n_nodes: int, groups: tuple,
                      gmin_rows: Optional[tuple]) -> _Pattern:
    """The pattern of one index structure (all arguments are ints and
    index tuples, so circuits of the same topology share it: the
    one-device circuits of a write-verify loop compile once)."""
    return _Pattern(size, n_nodes, groups, gmin_rows)


class _Stack:
    """A pattern's scatter and Newton step over k circuits at once.

    The circuits' values lie one after another in ``raw`` (k blocks of
    ``n_raw``), and each part of ``ext`` holds the k circuits' blocks
    one after another.  Every compiled index of the pattern is repeated
    per circuit with that circuit's offsets, into flat 1-D arrays: one
    bincount fills k blocks of bins, one stacked solve factors k
    matrices of R, and one bincount back-substitutes k circuits'
    eliminated updates.  Each bin sums its contributions in a lone
    circuit's order and LAPACK solves each matrix of a stack on its
    own, so every circuit's numbers are bit for bit those it has alone.
    For k = 1 the solve is the plain 2-D one.
    """

    def __init__(self, p: _Pattern, k: int):
        self.p, self.k = p, k
        n_raw = p.n_raw
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
            # before it end
            part = np.searchsorted(starts, idx, side="right") - 1
            return rep(idx + (k - 1) * starts[part], sizes[part])

        # the monomials' factors, (the first's slots, the others'), or None
        num, den = ([rep(a, n_raw) for a in rows] for rows in p.mono)
        self.num = (num[0], num[1:]) if p.parts[2] else None
        self.den = (den[0], den[1:]) if den else None
        self.slot, self.b_src = rep_ext(p.slot), rep_ext(p.b_src)
        self.t_piv = None if p.t_piv is None else rep(p.t_piv, n_raw)
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
        if self.num is None:
            return np.concatenate((raw, np.abs(raw)))
        first, rest = self.num
        v = raw[first]
        for i in rest:
            v = v * raw[i]
        if self.den is not None:
            first, rest = self.den
            d = raw[first]
            for i in rest:
                d = d * raw[i]
            v = v / d
        return np.concatenate((raw, np.abs(raw), v))

    def scatter(self, ext: np.ndarray) -> np.ndarray:
        """The bins of each circuit, one row per circuit (``_Pattern``)."""
        out = np.bincount(self.bins, ext[self.slot] * self.sign, self.n_bins)
        return out.reshape(self.k, -1)

    def step(self, ext: np.ndarray, out: np.ndarray):
        """(dx, singular): the Newton updates -J^-1 f of the k circuits,
        padded, one row per circuit, and the rows whose matrix of R is
        singular (their update is NaN).  The plain updates come from the
        scatter, R's dense solve runs even when R is empty, and one
        bincount back-substitutes the rest (``_Pattern``).

        The empty solve is kept for the benchmark: its xbar_read
        workload requires ``engine.linsolve`` as a traced boundary, a
        32x16 read solves 0 unknowns, and the benchmark's smoke test
        fails when a required boundary goes idle.  It makes a 50-step
        one-device pulse 1.24 times slower; ROADMAP item 3 drops it
        together with that benchmark change."""
        p, k = self.p, self.k
        c0, j0, m = 2 * p.n, 2 * p.n + p.m, p.m
        # for one circuit a view: nothing reads a circuit's dx bins again
        flat = out[:, p.d_base:].reshape(-1)
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
        if m:
            flat[self.solved] = sol
        if p.nt:
            t = np.bincount(self.b_t,
                            ext[self.b_src] * self.b_sign * flat[self.b_col],
                            k * p.nt)
            if self.t_piv is not None:
                t = t / ext[self.t_piv]
            flat[self.t_pos] = t
        return flat.reshape(k, -1)[:, :-1], singular


class Assembler:
    """Evaluates one circuit's stamps at a given point."""

    def __init__(self, layout: SystemLayout, ctx: EvalContext):
        self.layout = layout
        self.ctx = ctx
        self.pattern = layout.pattern(ctx.mode, ctx.gmin != 0.0)
        self.scalar = layout.scalar[ctx.mode]
        self._v_prev = None
        self.targets = ctx.targets
        if self.targets is None and layout.sources is not None:
            self.targets = layout.sources.targets(ctx)
        if ctx.x_prev is None and ctx.mode == "dc":
            ctx.x_prev = layout.initial_vector()

    def v_prev(self) -> list:
        """Padded ``x_prev``, as floats."""
        if self._v_prev is None:
            self._v_prev = [0.0] + self.ctx.x_prev.tolist()
        return self._v_prev

    def assemble(self, x: np.ndarray, out: list, raw: np.ndarray,
                 off: int = 0) -> None:
        """Evaluate the stamps at x for the lockstep Newton loop: the
        per-element stamps append this circuit's slot values to ``out``,
        the batch's list, after the constant 1 that starts each circuit's
        slots (``_coo``), and the vector stamps fill the block of
        ``raw``, the batch's value array, that starts at ``off``; the loop
        writes ``out`` into the batch's ``scalar_slots`` and scatters."""
        pat = self.pattern
        out.append(1.0)
        if self.scalar or pat.gmin_rows is not None:
            # the per-element stamps read the unknowns as floats
            v = [0.0] + x.tolist()
            for st in self.scalar:
                st.values(self, v, out)
            if pat.gmin_rows is not None:
                gmin = self.ctx.gmin
                for r in pat.gmin_rows:
                    out += (gmin * v[r], gmin)
        if pat.vector:
            xp = np.concatenate(([0.0], x))
            for st, blk in zip(self.layout.vector[self.ctx.mode],
                               pat.views(raw, off)):
                st.fill(self, xp, blk)


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
    of another pattern raise ValueError.
    """
    asms = list(map(Assembler, layouts, ctxs))
    layout, pat = layouts[0], asms[0].pattern
    if any(asm.pattern is not pat for asm in asms):
        raise ValueError("circuits of a batch must share one topology and "
                         "analysis mode")
    f_tol, x_tol = pat.f_tol, pat.x_tol
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
                left[row] = (x[row, 1:], False, "non-finite residual at "
                             + _worst(layout, bins[row, :n]))
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
        if nv == 0 or _max(adx[:, 1:nv + 1], None) <= VLIMIT:
            dx_ok = [True] * k
            x = x + dx
        else:
            vmax = _max(adx[:, 1:nv + 1], 1).tolist()
            s = [1.0 if v <= VLIMIT else VLIMIT / v for v in vmax]
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
             stats: Optional[dict] = None) -> np.ndarray:
    """Operating point with gmin-stepping and source-stepping fallbacks.

    Each Newton attempt starts from its start vector (the carried state,
    ``x0`` or the last attempt's point) with every pinned node set to its
    source's value in that attempt, after the source-stepping factor
    (``SystemLayout.dc_start``): the first assembly linearizes the
    devices at the pinned voltages, not at 0 V.
    ``stats``, when given, receives the Newton iterations of every
    attempt (``newton_iterations``) and the homotopy that reached the
    solution (``path``: one of ``DC_PATHS``)."""
    seed = layout.initial_vector()
    if stats is None:
        stats = {}
    stats["newton_iterations"] = 0

    def attempt(xstart, sfactor=1.0, gmin=None):
        ctx = EvalContext(mode="dc", x_prev=seed, sfactor=sfactor,
                          gmin=tol.gmin if gmin is None else gmin)
        out = newton_solve(layout, ctx, layout.dc_start(ctx, xstart), tol)
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
    [0, 1] in place and return the history the next trapezoidal step
    needs, by stamp (capacitor currents, RRAM state rates).
    Without ``history`` (a backward-Euler run, which never reads it)
    only the clamp runs and the history is empty."""
    aux = {} if history else None
    v = [0.0] + x.tolist()
    for st in layout.stamps["tran"]:
        if st.accept is not None:
            st.accept(ctx, v, x, aux)
    return aux if history else {}
