"""Write the 100-digit oracle table of the Ward-Dutton charge partition.

For each of the 27 corner parameter sets of the solver validity box
(N_A x T_si x EOT, the sets of ``box_param_sets`` in ``tests/conftest.py``)
and ten seeded bias points, the end charges q_s >= q_d come from the
Householder solver.  They are written as exact doubles and are the
oracle's inputs, so the table checks the partition rule alone:

    avg   = int_{q_d}^{q_s} Q g(Q) dQ / D
    drain = int_{q_d}^{q_s} [B(q_s) - B(Q)] Q g(Q) dQ / D^2
    D     = B(q_s) - B(q_d),   g(Q) = Q/C_ox + V_t + V_t Q/(Q + a)

with a = Q_B + 5 V_t C_si.  The integrals are taken in the charge variable
by mpmath tanh-sinh quadrature at 100 digits, and B(q_s) - B(Q) is written
as (q_s - Q)[(q_s + Q)/(2 C_ox) + 2 V_t] - V_t a log1p((q_s - Q)/(Q + a)),
so no digit is lost to the cancelling a log(Q + a) terms in deep
subthreshold.  Half of the points sit at V_ds in [1e-7, 1e-3], where the
drain-source split is small.

Usage:
    python scripts/partition_oracle.py [--out tests/data/partition_oracle.csv]

Needs mpmath (the ``test`` extra); takes about 15 s.
"""

from __future__ import annotations

import argparse
import os
import sys

import mpmath as mp
import numpy as np

from synapsim.mosfet import MosParams, solve_charge_householder

COLUMNS = ("n_a", "t_si", "eot", "q_s", "q_d", "avg", "drain")
SEED = 1978
DIGITS = 100


def corners():
    return [MosParams(n_a=n_a, t_si=t_si, eot=eot)
            for n_a in (1e21, 1e23, 1e24)
            for t_si in (5e-9, 10e-9, 20e-9)
            for eot in (0.8e-9, 1.2e-9, 2e-9)]


def bias_points(rng):
    """(V_g, V_ds) pairs: both box extremes at V_ds = 1 V, four small
    splits (V_ds log-uniform in [1e-7, 1e-3]) and four large ones."""
    v_g = np.concatenate(([1.5, -0.5], rng.uniform(-0.5, 1.5, 8)))
    v_ds = np.concatenate(([1.0, 1.0], 10.0 ** rng.uniform(-7.0, -3.0, 4),
                           rng.uniform(1e-3, 1.0, 4)))
    return zip(v_g, v_ds)


def partition(p: MosParams, q_s: float, q_d: float):
    """(avg, drain) of the end charges (q_s, q_d) at DIGITS digits."""
    c_ox, v_t, a = mp.mpf(p.c_ox), mp.mpf(p.v_t), mp.mpf(p.qb5)
    qs, qd = mp.mpf(q_s), mp.mpf(q_d)

    def b_diff(q):
        dq = qs - q
        return dq * ((qs + q) / (2 * c_ox) + 2 * v_t) \
            - v_t * a * mp.log1p(dq / (q + a))

    def q_g(q):
        return q * (q / c_ox + v_t + v_t * q / (q + a))

    i_w, err_w = mp.quad(q_g, [qd, qs], error=True)
    i_y, err_y = mp.quad(lambda q: b_diff(q) * q_g(q), [qd, qs], error=True)
    tol = mp.mpf(10) ** -40
    if err_w > tol * abs(i_w) or err_y > tol * abs(i_y):
        raise RuntimeError(f"quadrature did not converge at q_s={q_s!r}, q_d={q_d!r}")
    d = b_diff(qd)
    return float(i_w / d), float(i_y / (d * d))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.normpath(os.path.join(
        os.path.dirname(__file__), "..", "tests", "data", "partition_oracle.csv")))
    args = ap.parse_args(argv)
    mp.mp.dps = DIGITS
    rng = np.random.default_rng(SEED)
    rows = []
    for p in corners():
        for v_g, v_ds in bias_points(rng):
            q_s = solve_charge_householder(p, float(v_g), 0.0)
            q_d = solve_charge_householder(p, float(v_g), float(v_ds))
            if not q_s > q_d:
                raise RuntimeError(f"no split at V_g={v_g}, V_ds={v_ds}")
            rows.append((p.n_a, p.t_si, p.eot, q_s, q_d, *partition(p, q_s, q_d)))
    with open(args.out, "w") as fh:
        fh.write(f"# Ward-Dutton partition oracle: mpmath {mp.__version__}, "
                 f"{DIGITS} digits, seed {SEED}; written by "
                 "scripts/partition_oracle.py\n")
        fh.write(",".join(COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
