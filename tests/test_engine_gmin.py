"""Where gmin lands.

gmin is a conductance from each KCL node to ground: with it, the
system at any point differs from the one without it only on the KCL
rows, by gmin on the diagonal of J and gmin * x in f.  The row classes
it follows are the plain pattern's, which must match a walk of the
stamps' blocks made here apart from the compile: a row is a constraint
row when a "row" block writes it and no "cur" block does.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from synapsim.engine import SystemLayout
from synapsim.engine.mna import EvalContext

from mna_helpers import system_at
from test_engine_condensed import H, _random_point, netlists


def _kcl_of_blocks(layout, mode):
    """True on each row that a "cur" block writes or nothing writes."""
    cur, row = [], []
    for stamp in layout.stamps[mode]:
        for blk in stamp.blocks(mode):
            if blk[0] == "cur":
                cur += blk[1] + blk[2]
            else:
                row += blk[1]
    kcl = np.ones(layout.size + 1, bool)
    kcl[row], kcl[cur] = False, True
    return kcl[1:]


@settings(max_examples=60, deadline=None)
@given(circuit=netlists(floating=True), mode=st.sampled_from(["dc", "tran"]),
       gmin=st.sampled_from([1e-6, 1e-3]), seed=st.integers(0, 2 ** 32 - 1))
def test_gmin_is_a_conductance_from_each_kcl_node_to_ground(circuit, mode,
                                                             gmin, seed):
    rng = np.random.default_rng(seed)
    layout = SystemLayout(circuit)
    kcl = layout.pattern(mode, False).kcl
    assert np.array_equal(kcl, _kcl_of_blocks(layout, mode))
    assert np.array_equal(layout.pattern(mode, True).kcl, kcl)
    x = _random_point(layout, rng)
    if mode == "dc":
        ctxs = [EvalContext(mode="dc", gmin=g) for g in (0.0, gmin)]
    else:
        x_prev = _random_point(layout, rng)
        ctxs = [EvalContext(mode="tran", time=H, h=H, x_prev=x_prev, gmin=g)
                for g in (0.0, gmin)]
    plain, with_gmin = (system_at(layout, ctx, x) for ctx in ctxs)
    con = ~kcl
    assert np.array_equal(with_gmin.f[con], plain.f[con])
    assert np.array_equal(with_gmin.J[con], plain.J[con])
    np.testing.assert_allclose(with_gmin.f[kcl], plain.f[kcl] + gmin * x[kcl],
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(with_gmin.J[kcl],
                               plain.J[kcl] + gmin * np.eye(layout.size)[kcl],
                               rtol=1e-12, atol=0.0)
