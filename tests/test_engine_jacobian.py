"""Analytic MNA Jacobian against central differences of the residual.

One netlist holds every element kind.  The Jacobian is checked at solved
points in DC, in a backward-Euler step, and in a trapezoidal step that
integrates from the history recorded after the backward-Euler step.
"""

import numpy as np
import pytest

from synapsim.engine import SystemLayout, Tolerances, parse_netlist
from synapsim.engine.mna import (Assembler, EvalContext, newton_solve,
                                 post_step_aux, solve_dc)

# every element kind; biases keep the MOSFETs off V_ds = 0, the RRAM off
# V = 0 (where its rate switches branch) and the pfb tunnel junction in
# strong Fowler-Nordheim conduction
NETLIST = """
.model nfet cmg
.model mem rram
.model syn fg c_sg=2e-16 mos=nfet
V1 in 0 DC 0.6 PULSE(0.6 1.0 0 10n 10n 50n 200n)
R1 in a 10k
C1 a 0 1p
XR1 a b model=mem x0=0.4
M1 b g s model=nfet
Rs s 0 200
Vg g 0 DC 0.9
I1 b 0 DC 1u
Vd d 0 DC 0.3
Vpfb pfb 0 DC 3.5
XF1 d s a 0 pfb model=syn qfg0=2e-17
.end
"""
H = 2e-9


def _residual(layout, ctx, x):
    return Assembler(layout, ctx).assemble(x)[0].copy()


def _solved_point(layout, mode):
    """(ctx, x) at a converged point of the given mode."""
    tol = Tolerances()
    x = solve_dc(layout, tol)
    if mode == "dc":
        return EvalContext(mode="dc"), x
    ctx = EvalContext(mode="tran", time=H, h=H, x_prev=x)
    x1, ok, _ = newton_solve(layout, ctx, x, tol)
    assert ok
    if mode == "be":
        return ctx, x1
    aux = post_step_aux(layout, ctx, x1)
    assert {"c1", "xr1", "xf1#csg", "xf1#cnfb", "xf1#cpfb"} <= set(aux)
    ctx = EvalContext(mode="tran", time=2 * H, h=H, integrator="trap",
                      x_prev=x1, aux_prev=aux)
    x2, ok, _ = newton_solve(layout, ctx, x1, tol)
    assert ok
    return ctx, x2


@pytest.mark.parametrize("mode", ["dc", "be", "trap"])
def test_jacobian_matches_central_differences(mode):
    layout = SystemLayout(parse_netlist(NETLIST).circuit)
    ctx, x = _solved_point(layout, mode)
    J = Assembler(layout, ctx).assemble(x)[1].copy()
    J_fd = np.empty_like(J)
    for j in range(layout.size):
        step = 1e-6 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        J_fd[:, j] = ((_residual(layout, ctx, xp) - _residual(layout, ctx, xm))
                      / (xp[j] - xm[j]))
    row_err = np.abs(J - J_fd).max(axis=1) / np.abs(J).max(axis=1)
    assert row_err.max() <= 1e-7, layout.row_name(int(np.argmax(row_err)))
