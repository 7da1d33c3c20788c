"""Richardson's error estimate of an integrator's run, shared by the
step-budget tests (Richardson 1911; Hairer, Norsett & Wanner, Solving
ODEs I, II.4).
"""

import numpy as np

# the global order of each integrator
ORDER = {"be": 1, "trap": 2}


def richardson(y1, y2, y4, order: int, rounding: float = 0.0):
    """(error estimate of y1, observed order), entry by entry, from one
    experiment run at N, 2N and 4N steps of an integrator of the given
    order.

    The step limit is extrapolated from the finest pair,
    y4 + (y4 - y2) / (2**order - 1), and the estimate is y1 less it.  The
    observed order is log2(|y1 - y2| / |y2 - y4|), NaN where the finer
    difference is within ``rounding``, the resolution of the solve.
    """
    y1, y2, y4 = (np.asarray(y, dtype=float) for y in (y1, y2, y4))
    d1, d2 = np.abs(y1 - y2), np.abs(y2 - y4)
    err = (y1 - y2) + (y2 - y4) * 2.0 ** order / (2.0 ** order - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        observed = np.where(d2 > rounding, np.log2(d1 / d2), np.nan)
    return err, observed


def refine(spec, k: int) -> None:
    """Refine a transient's grid k times in place.  A geometric grid's
    step at time t is h0 + (g - 1) t, so a first step h0 / k and a growth
    1 + (g - 1) / k divide its step at every time by k; a uniform grid
    (g = 1) takes k times the steps."""
    spec.tstep /= k
    spec.growth = 1.0 + (spec.growth - 1.0) / k
