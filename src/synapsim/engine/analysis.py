"""Analysis drivers: operating point, DC sweep, transient.

Transient integration is backward Euler by default with a trapezoidal
option; the trapezoidal path takes its first step (and the first step
after any history reset) with backward Euler because no companion
history exists yet.  The base step starts at ``tstep`` and is multiplied
by ``growth`` after each accepted step (1.0, the default, keeps a
uniform grid; a larger ratio grows the steps geometrically).  A failed
Newton solve halves the step, down to tstep/1024; accepted steps grow
back toward the base step, and the last step lands on ``tstop``.

A step that would pass a corner of a PULSE source, where its slope
changes, ends exactly on it (SPICE's source breakpoints, Nagel 1975),
and the base step starts again from ``tstep`` there.  A step that ends
within ``_CORNER_TOL`` base steps of a corner's time, either side,
counts as ending on it and is kept as it is, so no step is cut shorter
than the shortest halved step, and a uniform grid whose corners lie on
it keeps its bits though its sum of steps drifts from them in the last
digits.  Each run asks its sources for the next corner only once it
reaches the last one (``PulseSpec.next_corner``).

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
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .circuit import Circuit
from .mna import (DC_PATHS, ConvergenceError, EvalContext, SystemLayout,
                  Tolerances, newton_solve_batch, post_step_aux, solve_dc)

_MIN_STEP_DIV = 1024.0

# how near a step's end, in ``tstep``s, a PULSE corner counts as reached:
# the shortest step halving allows, so no step is cut shorter (a sliver
# step's companion conductance can leave Newton's residual above its
# tolerance on rounding alone), as SPICE merges breakpoints nearer than
# its smallest step; far above the drift of a sum of equal steps from
# their product (rram-iv's 1000 steps of 1 us reach its corners to within
# 1.2e-17 s)
_CORNER_TOL = 1.0 / _MIN_STEP_DIV

# the most base steps a transient may take (``_base_steps``), and the
# most points of a DC sweep, far above any experiment's (rram-iv's loop
# takes 1000): a larger count is taken for a typing slip, such as a step
# in fs for a run in s, and rejected by ``AnalysisSpec.check``
MAX_STEPS = 1_000_000

# the transient integrators: backward Euler and the trapezoidal rule
INTEGRATORS = ("be", "trap")


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
    integrator: str = "be"       # one of INTEGRATORS
    # the ratio of successive base steps of a transient
    growth: float = 1.0

    def check(self) -> None:
        """Raise ValueError naming the first rule of an analysis card
        that the spec breaks; every rule of a card is here.  Each analysis
        calls it before it compiles a layout, the parser on each card."""
        super().check()
        if self.kind not in _BY_KIND:
            raise ValueError(f"unknown analysis kind '{self.kind}'")
        if self.integrator not in INTEGRATORS:
            raise ValueError(
                "integrator must be " + " or ".join(map(repr, INTEGRATORS))
                + f", not {self.integrator!r}")
        # the rules below are written so that a NaN breaks them too
        if self.kind == "tran":
            if not (self.tstep > 0.0 and self.tstop > 0.0):
                raise ValueError("transient needs positive tstep and tstop")
            for name in ("tstep", "tstop"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"{name} must be finite, not "
                                     f"{getattr(self, name)!r}")
            if not 1.0 <= self.growth < math.inf:
                raise ValueError("growth must be finite and at least 1, "
                                 f"not {self.growth!r}")
            if not _base_steps(self) <= MAX_STEPS:
                grows = (f" growing by {self.growth:g}"
                         if self.growth != 1.0 else "")
                raise ValueError(
                    f"transient of tstep {self.tstep:g} s{grows} to tstop "
                    f"{self.tstop:g} s takes more than MAX_STEPS = "
                    f"{MAX_STEPS} steps")
        elif self.kind == "dc":
            if self.step == 0.0:
                raise ValueError("dc sweep needs a nonzero step")
            span = (self.stop - self.start) / self.step
            if not (abs(self.step) < math.inf and span < MAX_STEPS - 0.5):
                raise ValueError(
                    f"dc sweep of start {self.start:g}, stop {self.stop:g} "
                    f"and step {self.step:g} needs a finite step and at "
                    f"most MAX_STEPS = {MAX_STEPS} points")
            if span < -0.5:
                raise ValueError("dc sweep range and step disagree")


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
    spec.check()
    layout = SystemLayout(circuit)
    stats: dict = {}
    x = solve_dc(layout, spec, stats=stats)
    columns, index = layout.columns()
    return SimResult(columns=columns, data=x.reshape(1, -1).copy(),
                     index=index, stats=stats)


def dc_sweep(circuit: Circuit, spec: AnalysisSpec) -> SimResult:
    spec.check()
    layout = SystemLayout(circuit)
    src = spec.src.lower()
    if src not in layout.branch:
        if any(e.name.lower() == src for e in circuit.elements):
            raise ValueError(f"dc sweep source '{spec.src}' is not a "
                             "voltage source")
        raise ValueError(f"dc sweep source '{spec.src}' not in circuit")
    n = int(round((spec.stop - spec.start) / spec.step)) + 1
    values = spec.start + spec.step * np.arange(n)
    rows = np.empty((n, layout.size + 1))
    rows[:, 0] = values
    x = None
    # the iterations of every point, and the strongest homotopy a point
    # needed
    stats = {"newton_iterations": 0, "path": DC_PATHS[0]}
    point: dict = {}
    # each point sets the source's dc; the sweep restores it
    element = circuit.element(src)
    dc = element.dc
    try:
        for k, val in enumerate(values):
            element.dc = float(val)
            x = solve_dc(layout, spec, x0=x, stats=point)
            rows[k, 1:] = x
            stats["newton_iterations"] += point["newton_iterations"]
            stats["path"] = max(stats["path"], point["path"],
                                key=DC_PATHS.index)
    finally:
        element.dc = dc
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
        # the step to try, and the base step it grows back toward
        self.t, self.h, self.tstep = 0.0, spec.tstep, spec.tstep
        self.h_min = spec.tstep / _MIN_STEP_DIV
        self.pulses = [e.pulse for e in layout.vsrc if e.pulse is not None]
        self.tol = _CORNER_TOL * spec.tstep
        self.next_corner()
        # only a trapezoidal run reads the companion history
        self.trap = spec.integrator == "trap"
        self.end = spec.tstop * (1.0 - 1e-12)
        self.stats = {"steps": 0, "halvings": 0, "newton_iterations": 0}

    def next_corner(self) -> None:
        """Take as ``corner`` the first PULSE corner more than ``tol``
        after the run's time and before tstop by as much (else inf); a
        step that ends past ``cut`` is cut to end on it, and one that
        ends past ``reached`` has reached it."""
        tol = self.tol
        corner = min((p.next_corner(self.t + tol) for p in self.pulses),
                     default=math.inf)
        if not corner < self.spec.tstop - tol:
            corner = math.inf
        self.corner, self.cut, self.reached = (corner, corner + tol,
                                               corner - tol)

    def context(self) -> EvalContext:
        """The context of this circuit's next step, which ends on the
        next corner if it would pass it by more than ``tol``."""
        h = min(self.h, self.spec.tstop - self.t)
        if self.t + h > self.cut:
            h = self.corner - self.t
            time = self.corner
        else:
            time = self.t + h
        return EvalContext(mode="tran", time=time, h=h, x_prev=self.x,
                           aux_prev=self.aux, gmin=self.spec.gmin)


_TOL_FIELDS = tuple(f.name for f in fields(Tolerances))


def _base_steps(spec: AnalysisSpec) -> float:
    """The base steps of a transient: tstop / tstep on a uniform grid,
    and on a geometric one the n at which tstep * (1 + g + ... + g**(n-1))
    reaches tstop, for a growth that ``check`` found finite and >= 1."""
    g = spec.growth
    if g > 1.0:
        return (math.log1p(spec.tstop / spec.tstep * (g - 1.0))
                / math.log1p(g - 1.0))
    return spec.tstop / spec.tstep


def _check_corners(circuit: Circuit, spec: AnalysisSpec) -> None:
    """Raise ValueError naming the first PULSE source of the circuit
    whose corners in (0, tstop) would add more than ``MAX_STEPS`` steps,
    one a corner, such as a period in fs for a run in ms."""
    for e in circuit.vsources():
        if e.pulse is not None and not (
                e.pulse.corner_count(spec.tstop) <= MAX_STEPS):
            raise ValueError(
                f"source '{e.name}': its PULSE has more than MAX_STEPS = "
                f"{MAX_STEPS} corners before tstop {spec.tstop:g} s, and "
                "each one ends a step")


def _where(k: int, batch) -> str:
    """Where circuit k of a batch failed, for an error message."""
    return f" in circuit {k} of the batch" if len(batch) > 1 else ""


def transient_batch(circuits, specs) -> list:
    """Transient analyses of circuits that share one topology, stepped in
    lockstep as the module docstring describes; returns one SimResult
    per circuit.  Each spec must pass ``AnalysisSpec.check``, each PULSE
    source may add at most ``MAX_STEPS`` corners (``_check_corners``),
    the specs must share their tolerances and the circuits their
    compiled pattern (ValueError otherwise).  A failed DC start or a
    timestep underflow raises ConvergenceError whose ``circuit`` is the
    failing circuit's position in the batch, and then no circuit's state
    is written back.
    """
    if len(circuits) != len(specs) or not circuits:
        raise ValueError("transient_batch needs one spec per circuit")
    tol = specs[0]
    for circuit, spec in zip(circuits, specs):
        spec.check()
        _check_corners(circuit, spec)
        if any(getattr(spec, name) != getattr(tol, name)
               for name in _TOL_FIELDS):
            raise ValueError("the circuits of a batch must share their "
                             "tolerances")
    runs = []
    for k, (circuit, spec) in enumerate(zip(circuits, specs)):
        try:
            runs.append(_Run(circuit, spec))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"DC start{_where(k, circuits)} failed: {exc}",
                worst_row=exc.worst_row, circuit=k) from exc

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
                    k = runs.index(run)
                    raise ConvergenceError(
                        f"timestep underflow{_where(k, runs)} at "
                        f"t={run.t:.6e} s (worst residual row: {worst})",
                        worst_row=worst, circuit=k)
                continue
            run.aux = post_step_aux(run.layout, ctx, x_new, run.trap)
            run.t = t = ctx.time
            run.x = x_new
            run.times.append(t)
            run.rows.append(x_new)
            if t >= run.reached:
                run.next_corner()
                run.tstep = run.spec.tstep
            else:
                run.tstep *= run.spec.growth
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


_BY_KIND = {"op": operating_point, "dc": dc_sweep, "tran": transient}


def run_analysis(circuit: Circuit, spec: AnalysisSpec) -> SimResult:
    spec.check()
    return _BY_KIND[spec.kind](circuit, spec)
