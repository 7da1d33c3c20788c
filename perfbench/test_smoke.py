"""Smoke test of the benchmark at tiny sizes.

Every workload runs untraced and traced, its checks pass, and every
metric named in BENCHMARK.json appears with its unit.  Run from the
repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _units(SPEC["end_to_end"]) == run.END_TO_END
    assert _units(SPEC["per_layer"]) == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_checks_and_reports(name, trace):
    res = run.run_workload(name, seed=1, seconds=0.05, trace=trace,
                           size="tiny")
    assert res["correct"], res["failures"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    block = run.metric_block(res)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in block.items()} == _units(wanted)
    assert all(np.isfinite(v["value"]) for v in block.values())
    if trace:
        assert block["trace.counts_repeat"]["value"] == 1
        assert res["absent"] == [] and res["idle_required"] == []
    else:
        assert all(v["value"] > 0 for v in block.values())


def test_wrong_output_fails_its_check(monkeypatch):
    monkeypatch.setattr(workloads, "read_outputs",
                        lambda circuit, spec, v: np.zeros(spec.n_outputs))
    res = run.run_workload("xbar_read", seed=1, seconds=0.05, trace=False,
                           size="tiny")
    assert not res["correct"]
    assert res["failed"] == res["attempted"]
    assert res["extra"]["max_rel_err"][0] == 1.0


def test_missing_boundary_is_absent_not_an_error(monkeypatch):
    monkeypatch.setitem(tracing.BOUNDARIES, "engine.gone",
                        [("synapsim.engine.mna", "NoSuchAssembler", None)])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "engine.gone" in tracer.absent
    assert "engine.assemble" in tracer.present


def test_tracer_restores_every_wrapped_name():
    import synapsim.engine.mna as mna

    before = (mna.Assembler, mna.np, mna.newton_solve)
    tracer = tracing.Tracer()
    tracer.install()
    assert mna.Assembler is not before[0] and mna.np is not before[1]
    tracer.uninstall()
    assert (mna.Assembler, mna.np, mna.newton_solve) == before


def test_tail_percentile_leaves_ten_ops_beyond():
    assert run.tail_latency(list(range(1, 1001))) == (99, 990)
    assert run.tail_latency(list(range(1, 21))) == (50, 10.5)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (50, 2.0)


def test_times_are_scaled_by_the_reference_loop(monkeypatch):
    monkeypatch.setattr(run.Reference, "timed", lambda self: 2 * run.REF_S)
    wl = workloads.WORKLOADS["xbar_read"](1, **workloads.SIZES["tiny"]
                                          ["xbar_read"])
    wl.setup()
    wl.prepare_oracle()
    tally = run.Tally()
    raw, scaled = run.run_batch(wl, tally, run.Reference())
    assert tally.failed == 0 and raw > 0
    assert scaled == pytest.approx(raw / 2)
    assert tally.scaled == pytest.approx([t / 2 for t in tally.latencies])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mos_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
