"""One circuit's assembled MNA system, through the lockstep Newton path.

The engine assembles, scatters and steps circuits only in batches; the
tests that look at one circuit's residual, Jacobian or Newton step run
a batch of one through the same code (``Assembler`` and
``_Pattern.stack(1)``).
"""

from typing import NamedTuple

import numpy as np

from synapsim.engine.mna import Assembler, _coo


class System(NamedTuple):
    f: np.ndarray        # the residual
    J: np.ndarray        # the full Jacobian, dense
    step: np.ndarray     # the Newton update -J^-1 f (NaN where singular)
    raw: np.ndarray      # the stamps' slot values


def system_at(layout, ctx, x) -> System:
    """The system of ``layout`` in ``ctx`` at the unknowns x."""
    asm = Assembler(layout, ctx)
    pat = asm.pattern
    st = pat.stack(1)
    out, raw = [], np.empty(pat.n_raw)
    asm.assemble(x, out, raw)
    raw[st.scalar_slots] = out
    ext = st.values(raw)
    bins = st.scatter(ext)
    dx, _ = st.step(ext, bins)
    j_rows, j_cols, j_slot, j_sign = _coo(pat.groups)[4:8]
    full = np.bincount(j_rows * pat.n1 + j_cols, raw[j_slot] * j_sign,
                       pat.n1 * pat.n1)
    return System(bins[0, :pat.n].copy(),
                  full.reshape(pat.n1, pat.n1)[1:, 1:], dx[0, 1:], raw)
