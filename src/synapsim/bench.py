"""Throughput benchmark comparing the two charge-solver variants.

A complete model evaluation at one bias point is: solve the end charges
at (V_g, 0) and (V_g, V_ds), form the drain current from them, then form
the terminal charges.  Both variants share the current/charge stage
bit-for-bit; only the solver differs, so the solver-stage timing is the
clean variant comparison while the evaluation timing shows what a full
sweep costs.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from .mosfet import (
    SOLVERS,
    MosParams,
    current_from_charges,
    terminal_charges_grid,
)

__all__ = ["BenchResult", "bench_model_eval", "default_bias_grid"]


@dataclass(frozen=True)
class BenchResult:
    """Median stage timings (seconds) and derived throughput figures."""

    n: int
    reps: int
    solver_s: dict
    eval_s: dict
    evals_per_s: dict
    solver_ratio: float      # reference solver time / householder solver time
    eval_ratio: float        # reference eval time / householder eval time
    solver_spread: dict      # max |t - median| / median across repetitions
    eval_spread: dict
    solver_samples: dict     # per-repetition raw timings, execution order
    eval_samples: dict


def default_bias_grid(n: int, seed: int = 0):
    """Random bias grid over the validity box: V_g in [-0.5, 1.5], V_ds in [0, 1]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 1.5, n), rng.uniform(0.0, 1.0, n)


def _median_and_spread(samples):
    med = float(np.median(samples))
    spread = float(np.max(np.abs(np.asarray(samples) - med))) / med
    return med, spread


def bench_model_eval(p: MosParams | None = None, n: int = 100_000, reps: int = 5,
                     seed: int = 0) -> BenchResult:
    """Time `n` complete model evaluations per solver variant.

    Each repetition times two stages on the same grid: the charge solves
    for both channel ends, then the shared current + terminal-charge
    stage.  One untimed warm-up pass runs per variant before timing.
    Medians over `reps` repetitions are reported; `n >= 1e5` is
    recommended for stable ratios.
    """
    if p is None:
        p = MosParams()
    if n < 1:
        raise ValueError("benchmark grid must contain at least one point")
    if reps < 1:
        raise ValueError("benchmark needs at least one repetition")

    v_g, v_ds = default_bias_grid(n, seed)
    t_solver = {v: [] for v in SOLVERS}
    t_eval = {v: [] for v in SOLVERS}

    def one_pass(variant):
        solve = SOLVERS[variant]
        t0 = time.perf_counter()
        q_is = solve(p, v_g, 0.0)
        q_id = solve(p, v_g, v_ds)
        t1 = time.perf_counter()
        current_from_charges(p, q_is, q_id, v_ds)
        terminal_charges_grid(p, v_g, v_ds, q_is=q_is, q_id=q_id)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t0

    for variant in SOLVERS:        # warm-up passes, untimed
        one_pass(variant)
    # variants interleaved per repetition so slow machine-load drift hits
    # both equally; collector paused across the timed region
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            for variant in SOLVERS:
                ts, te = one_pass(variant)
                t_solver[variant].append(ts)
                t_eval[variant].append(te)
    finally:
        if gc_was_on:
            gc.enable()

    solver_s, eval_s = {}, {}
    solver_spread, eval_spread = {}, {}
    for variant in SOLVERS:
        solver_s[variant], solver_spread[variant] = _median_and_spread(
            t_solver[variant])
        eval_s[variant], eval_spread[variant] = _median_and_spread(
            t_eval[variant])

    evals_per_s = {v: n / eval_s[v] for v in eval_s}
    solver_ratio = solver_s["reference"] / solver_s["householder"]
    eval_ratio = eval_s["reference"] / eval_s["householder"]
    return BenchResult(n=n, reps=reps, solver_s=solver_s, eval_s=eval_s,
                       evals_per_s=evals_per_s, solver_ratio=solver_ratio,
                       eval_ratio=eval_ratio, solver_spread=solver_spread,
                       eval_spread=eval_spread, solver_samples=t_solver,
                       eval_samples=t_eval)
