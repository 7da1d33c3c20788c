"""Analysis drivers: operating point, DC sweep, transient.

Transient integration is backward Euler by default with a trapezoidal
option; the trapezoidal path takes its first step (and the first step
after any history reset) with backward Euler because no companion
history exists yet.  A failed Newton solve halves the step, down to
tstep/1024; accepted steps grow back toward the base step.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuit import Circuit
from .mna import (EvalContext, SystemLayout, Tolerances, newton_solve,
                  post_step_aux, solve_dc)

_MIN_STEP_DIV = 1024.0


class TransientError(Exception):
    pass


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
    x = solve_dc(layout, spec)
    columns, index = layout.columns()
    return SimResult(columns=columns, data=x.reshape(1, -1).copy(),
                     index=index)


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
    for k, val in enumerate(values):
        x = solve_dc(layout, spec, x0=x, src_override={src: float(val)})
        rows[k, 0] = val
        rows[k, 1:] = x
    columns, index = layout.columns((src,))
    return SimResult(columns=columns, data=rows, index=index)


def transient(circuit: Circuit, spec: AnalysisSpec) -> SimResult:
    if spec.tstep <= 0.0 or spec.tstop <= 0.0:
        raise ValueError("transient needs positive tstep and tstop")
    layout = SystemLayout(circuit)
    spec.check()

    if spec.uic:
        x = layout.initial_vector()
    else:
        x = solve_dc(layout, spec)

    times = [0.0]
    rows = [x.copy()]
    aux: dict = {}
    t = 0.0
    h = spec.tstep
    h_min = spec.tstep / _MIN_STEP_DIV
    while t < spec.tstop * (1.0 - 1e-12):
        h_try = min(h, spec.tstop - t)
        ctx = EvalContext(mode="tran", time=t + h_try, h=h_try,
                          integrator=spec.integrator, x_prev=x,
                          aux_prev=aux, gmin=spec.gmin)
        x_new, ok, worst = newton_solve(layout, ctx, x, spec)
        if not ok:
            h *= 0.5
            if h < h_min:
                raise TransientError(
                    f"timestep underflow at t={t:.6e} s (worst residual "
                    f"row: {worst})")
            continue
        aux = post_step_aux(layout, ctx, x_new)
        t += h_try
        x = x_new
        times.append(t)
        rows.append(x.copy())
        h = min(spec.tstep, 2.0 * h)

    layout.store_state(x)
    data = np.column_stack([np.array(times),
                            np.vstack(rows)])
    columns, index = layout.columns(("time",))
    return SimResult(columns=columns, data=data, index=index)


def run_analysis(circuit: Circuit, spec: AnalysisSpec) -> SimResult:
    if spec.kind == "op":
        return operating_point(circuit, spec)
    if spec.kind == "dc":
        return dc_sweep(circuit, spec)
    if spec.kind == "tran":
        return transient(circuit, spec)
    raise ValueError(f"unknown analysis kind '{spec.kind}'")
