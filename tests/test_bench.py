"""Benchmark harness sanity (full-size timing runs live in acceptance)."""

import numpy as np
import pytest

from synapsim.bench import bench_model_eval, default_bias_grid


def test_small_grid_report_structure():
    r = bench_model_eval(n=400, reps=2, seed=1)
    assert set(r.solver_s) == {"reference", "householder"}
    for v in r.solver_s.values():
        assert v > 0.0
    assert r.eval_s["reference"] >= r.solver_s["reference"]
    assert r.eval_s["householder"] >= r.solver_s["householder"]
    assert r.evals_per_s["householder"] == pytest.approx(
        400 / r.eval_s["householder"])
    assert r.solver_ratio == pytest.approx(
        r.solver_s["reference"] / r.solver_s["householder"])
    for v in ("reference", "householder"):
        assert len(r.solver_samples[v]) == len(r.eval_samples[v]) == 2
        assert r.solver_s[v] == pytest.approx(np.median(r.solver_samples[v]))


def test_explicit_variant_wins_even_on_small_grids():
    r = bench_model_eval(n=400, reps=2, seed=1)
    assert r.solver_ratio > 1.0


def test_zero_points_rejected():
    with pytest.raises(ValueError, match="at least one point"):
        bench_model_eval(n=0)


def test_zero_reps_rejected():
    with pytest.raises(ValueError, match="repetition"):
        bench_model_eval(n=10, reps=0)


def test_default_grid_bounds_and_determinism():
    v_g, v_ds = default_bias_grid(1000, seed=3)
    assert v_g.min() >= -0.5 and v_g.max() <= 1.5
    assert v_ds.min() >= 0.0 and v_ds.max() <= 1.0
    v_g2, _ = default_bias_grid(1000, seed=3)
    np.testing.assert_array_equal(v_g, v_g2)
