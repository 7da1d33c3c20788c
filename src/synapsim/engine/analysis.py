"""Analysis drivers: operating point, DC sweep, transient.

Transient integration is backward Euler by default with a trapezoidal
option; the trapezoidal path takes its first step (and the first step
after any history reset) with backward Euler because no companion
history exists yet.  A failed Newton solve halves the step, down to
tstep/1024; accepted steps grow back toward the base step.

``transient_batch`` runs the transients of circuits of one topology in
lockstep: each circuit keeps its own time, step, step halving and
trapezoidal history, and at every step the circuits still running solve
their Newton iterations together (``newton_solve_batch``).  Each
circuit's result is bit for bit the one it gets alone.  ``transient`` is
the one-circuit case, and its steps solve through the same loop.  Each
transient result carries deterministic ``stats``: accepted steps, step
halvings and Newton iterations.  An operating point's or a DC sweep's
``stats`` hold its Newton iterations, summed over every homotopy
attempt, and its ``path``: ``"newton"`` when the plain solve converged,
``"gmin"`` or ``"source"`` when that homotopy rescued it (for a sweep,
the strongest any point needed).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .circuit import Circuit
from .mna import (DC_PATHS, EvalContext, SystemLayout, Tolerances,
                  newton_solve_batch, post_step_aux, solve_dc)

_MIN_STEP_DIV = 1024.0


class TransientError(Exception):
    """A transient that cannot step on; ``circuit`` is the failing
    circuit's position in its batch and ``worst_row`` its worst residual
    row."""

    def __init__(self, message: str, circuit: int = 0, worst_row: str = ""):
        super().__init__(message)
        self.circuit = circuit
        self.worst_row = worst_row


@dataclass(kw_only=True)
class AnalysisSpec(Tolerances):
    """One analysis card plus the Newton tolerances it runs with."""

    kind: str                    # "op" | "dc" | "tran"
    src: str = ""
    start: float = 0.0
    stop: float = 0.0
    step: float = 0.0
    tstep: float = 0.0
    tstop: float = 0.0
    uic: bool = False
    integrator: str = "be"       # "be" | "trap"


@dataclass
class SimResult:
    columns: list[str]
    data: np.ndarray
    metadata: list[str] = field(default_factory=list)
    # lower-cased column name -> index, the first match winning; built
    # from the columns unless given (the analyses pass their layout's)
    index: Optional[dict] = field(default=None, repr=False, compare=False)
    # deterministic counts of the run: a transient's accepted steps,
    # step halvings and Newton iterations; an operating point's or a DC
    # sweep's Newton iterations and homotopy path (``solve_dc``)
    stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.index is None:
            self.index = {}
            for i, c in enumerate(self.columns):
                self.index.setdefault(c.lower(), i)

    def column(self, name: str) -> np.ndarray:
        i = self.index.get(name.lower())
        if i is None:
            raise KeyError(name)
        return self.data[:, i]

    def to_csv(self, path=None) -> Optional[str]:
        buf = io.StringIO()
        for line in self.metadata:
            buf.write("# " + line + "\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.data:
            buf.write(",".join("%.15g" % v for v in row) + "\n")
        text = buf.getvalue()
        if path is None:
            return text
        with open(path, "w") as fh:
            fh.write(text)
        return None


def operating_point(circuit: Circuit, spec: AnalysisSpec) -> SimResult:
    layout = SystemLayout(circuit)
    spec.check()
    stats: dict = {}
    x = solve_dc(layout, spec, stats=stats)
    columns, index = layout.columns()
    return SimResult(columns=columns, data=x.reshape(1, -1).copy(),
                     index=index, stats=stats)


def dc_sweep(circuit: Circuit, spec: AnalysisSpec) -> SimResult:
    if spec.step == 0.0:
        raise ValueError("dc sweep needs a nonzero step")
    layout = SystemLayout(circuit)
    src = spec.src.lower()
    if src not in layout.branch:
        raise ValueError(f"dc sweep source '{spec.src}' not in circuit")
    spec.check()
    n = int(round((spec.stop - spec.start) / spec.step)) + 1
    if n < 1:
        raise ValueError("dc sweep range and step disagree")
    values = spec.start + spec.step * np.arange(n)
    rows = np.empty((n, layout.size + 1))
    x = None
    # the iterations of every point, and the strongest homotopy a point
    # needed
    stats = {"newton_iterations": 0, "path": DC_PATHS[0]}
    point: dict = {}
    for k, val in enumerate(values):
        x = solve_dc(layout, spec, x0=x, src_override={src: float(val)},
                     stats=point)
        stats["newton_iterations"] += point["newton_iterations"]
        stats["path"] = max(stats["path"], point["path"], key=DC_PATHS.index)
        rows[k, 0] = val
        rows[k, 1:] = x
    columns, index = layout.columns((src,))
    return SimResult(columns=columns, data=rows, index=index, stats=stats)


def transient(circuit: Circuit, spec: AnalysisSpec) -> SimResult:
    """Transient analysis of one circuit: ``transient_batch`` with one
    circuit."""
    return transient_batch((circuit,), (spec,))[0]


class _Run:
    """One circuit's stepping state in a lockstep transient."""

    def __init__(self, circuit: Circuit, spec: AnalysisSpec):
        self.spec = spec
        self.layout = layout = SystemLayout(circuit)
        self.x = (layout.initial_vector() if spec.uic
                  else solve_dc(layout, spec))
        self.times, self.rows = [0.0], [self.x]
        self.aux: dict = {}
        self.t, self.h, self.tstep = 0.0, spec.tstep, spec.tstep
        self.h_min = spec.tstep / _MIN_STEP_DIV
        # only a trapezoidal run reads the companion history
        self.trap = spec.integrator == "trap"
        self.end = spec.tstop * (1.0 - 1e-12)
        self.stats = {"steps": 0, "halvings": 0, "newton_iterations": 0}

    def context(self) -> EvalContext:
        """The context of this circuit's next step."""
        h = min(self.h, self.spec.tstop - self.t)
        return EvalContext(mode="tran", time=self.t + h, h=h,
                           integrator=self.spec.integrator, x_prev=self.x,
                           aux_prev=self.aux, gmin=self.spec.gmin)


_TOL_FIELDS = tuple(f.name for f in fields(Tolerances))


def transient_batch(circuits, specs) -> list:
    """Transient analyses of circuits that share one topology, stepped in
    lockstep; returns one SimResult per circuit.

    Each circuit keeps its own time, step, step halving and trapezoidal
    history; at every step the circuits still running solve their
    Newton iterations together (``newton_solve_batch``), so each
    circuit's result is bit for bit the one it has alone.  Each
    result's ``stats`` counts the accepted steps, the halvings and the
    Newton iterations of its stepping loop.  The specs must share their
    tolerances, and the circuits their compiled pattern (ValueError
    otherwise).  A timestep underflow raises TransientError naming the
    circuit's position in the batch, and then no circuit's state is
    written back.
    """
    if len(circuits) != len(specs) or not circuits:
        raise ValueError("transient_batch needs one spec per circuit")
    tol = specs[0]
    for spec in specs:
        if spec.tstep <= 0.0 or spec.tstop <= 0.0:
            raise ValueError("transient needs positive tstep and tstop")
        spec.check()
        if any(getattr(spec, name) != getattr(tol, name)
               for name in _TOL_FIELDS):
            raise ValueError("the circuits of a batch must share their "
                             "tolerances")
    runs = [_Run(c, spec) for c, spec in zip(circuits, specs)]

    # every circuit steps at t = 0, so newton_solve_batch rejects a mixed
    # topology before any state is written
    active = runs
    while active:
        ctxs = [run.context() for run in active]
        steps = zip(active, ctxs, newton_solve_batch(
            [run.layout for run in active], ctxs, [run.x for run in active],
            tol))
        finished = False
        for run, ctx, (x_new, ok, worst) in steps:
            stats = run.stats
            stats["newton_iterations"] += ctx.iterations
            if not ok:
                run.h *= 0.5
                stats["halvings"] += 1
                if run.h < run.h_min:
                    where = (f" in circuit {runs.index(run)} of the batch"
                             if len(runs) > 1 else "")
                    raise TransientError(
                        f"timestep underflow{where} at t={run.t:.6e} s "
                        f"(worst residual row: {worst})",
                        circuit=runs.index(run), worst_row=worst)
                continue
            run.aux = post_step_aux(run.layout, ctx, x_new, run.trap)
            run.t = t = run.t + ctx.h
            run.x = x_new
            run.times.append(t)
            run.rows.append(x_new)
            run.h = min(run.tstep, 2.0 * run.h)
            stats["steps"] += 1
            finished = finished or t >= run.end
        if finished:
            active = [run for run in active if run.t < run.end]

    results = []
    for run in runs:
        run.layout.store_state(run.x)
        data = np.column_stack([np.array(run.times), np.vstack(run.rows)])
        columns, index = run.layout.columns(("time",))
        results.append(SimResult(columns=columns, data=data, index=index,
                                 stats=run.stats))
    return results


def run_analysis(circuit: Circuit, spec: AnalysisSpec) -> SimResult:
    if spec.kind == "op":
        return operating_point(circuit, spec)
    if spec.kind == "dc":
        return dc_sweep(circuit, spec)
    if spec.kind == "tran":
        return transient(circuit, spec)
    raise ValueError(f"unknown analysis kind '{spec.kind}'")
