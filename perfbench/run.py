"""Layered benchmark of synapsim: four workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload xbar_read --seed 3 --seconds 28 \
        --trace 0
    python3 perfbench/run.py                  # every workload, untraced

Workloads (``workloads.py`` says why each was chosen):

    mos_sweep    vectorized MOSFET evaluation, 16 chunks of 2.5e4 bias points
    xbar_read    8 DC reads of a 32x16 differential RRAM array
    and_train    3 device-in-the-loop AND trainings from a fresh array
    cell_pulses  rram-iv, an 8-point rram-tune and a 6-pulse fg-pulse

Load is one closed-loop caller in this process: each op starts when the
previous one returns.  A run sets up the workload several times (the
median, plus the package import, is the set-up time), then repeats the
workload's fixed batch until ``--seconds`` is spent, checking every op's
output against the workload's oracle.

The end-to-end times are given at reference speed (``Reference``): each
op's latency is divided by the time of a fixed reference loop run just
before it and multiplied by ``REF_S``.  ``setup_s`` is the set-up time so
scaled (each set-up by the reference pass right after it),
``wall_ref_s`` the median batch time, ``op_p50_ref_ms`` and
``op_tail_ref_ms`` the median and tail of the op latencies.  The unscaled
figures (``setup_raw_s``, ``wall_s``, ``op_p50_ms``, ``op_tail_ms``) and
the reference loop's median time are printed and saved beside them.

``--trace 1`` measures untraced for half the time, then runs the batch
twice with every layer boundary wrapped (``tracing.py``), reports the
per-layer metrics, requires the deterministic counts of the two traced
batches to be identical, and writes the spans to ``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give every metric with its unit and the machine facts.  The exit status
is 0 when every check passed, 1 when any failed, and 2 when the package
or the arguments are missing.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is a single closed-loop caller, the dense
# solves stay deterministic, and the timings do not depend on a second
# core being idle.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 5
MIN_BATCHES = 3
TRACED_BATCHES = 2

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "op_p50_ref_ms": "ms",
    "op_tail_ref_ms": "ms",
    "peak_rss_mb": "MB",
}

# Time of one pass of the reference loop at reference speed: a round
# figure within its 3 to 5.5 ms on the 2-vCPU 2.1 GHz Xeon VM the
# benchmark was tuned on.
REF_S = 4e-3

# boundary -> per-layer metrics taken from its spans
_CALLS = ["mosfet.solve", "mosfet.stamp", "rram.stamp", "floatgate.stamp",
          "engine.layout", "engine.assemble", "engine.linsolve",
          "engine.newton", "engine.op", "engine.tran", "neuro.read",
          "neuro.program"]
_TOTAL_S = ["mosfet.solve", "mosfet.current", "mosfet.partition",
            "mosfet.stamp", "rram.stamp", "floatgate.stamp", "engine.layout",
            "engine.linsolve", "engine.op", "engine.tran", "neuro.read",
            "neuro.program"]
_SELF_S = ["engine.assemble"]
# counts read off return values by the tracer's hooks
_HOOK_COUNTS = ["engine.unknowns_max", "engine.newton_failed",
                "engine.tran_steps", "neuro.pulses", "neuro.epochs"]

PER_LAYER = {
    **{f"{b}_calls": "count" for b in _CALLS},
    **{f"{b}_s": "s" for b in _TOTAL_S},
    **{f"{b}_self_s": "s" for b in _SELF_S},
    **{c: "count" for c in _HOOK_COUNTS},
    "engine.newton_ok_ratio": "ratio",
    "neuro.converged_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.absent": "count",
    "trace.idle_required": "count",
    "trace.counts_repeat": "count",
}
TIMES = [f"{b}_s" for b in _TOTAL_S] + [f"{b}_self_s" for b in _SELF_S]
# simulation counts that a change to speed alone must leave identical
DETERMINISTIC = [m for m, u in PER_LAYER.items()
                 if u == "count" and not m.startswith("trace.")]


def _import_package() -> float:
    """Put the checkout's ``src`` on the path and import the package and
    the workloads; returns the import time, numpy's own import excluded."""
    src = ROOT / "src"
    if not (src / "synapsim" / "__init__.py").is_file():
        raise ImportError(f"no synapsim package under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import workloads  # noqa: F401
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# measurement

class Reference:
    """A fixed loop of interpreter, vector and LAPACK work, the three kinds
    the workloads mix, timed just before every op.

    On a shared host the same code runs up to 1.7 times slower for
    minutes at a time; no choice of statistic within a half-minute run
    removes that.  An op's latency divided by the reference loop's time
    next to it stays put across such stretches, because both slow down
    together.  The loop uses numpy and the interpreter only, so a change
    to the package moves the scaled times as much as the raw ones.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.vec = rng.uniform(size=20_000)
        self.mat = rng.uniform(size=(160, 160)) + 160.0 * np.eye(160)
        self.rhs = rng.uniform(size=160)

    def timed(self) -> float:
        """Run the loop once; returns its time in seconds."""
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(15_000):
            acc += (i * 0.5) % 7.0
        x = self.vec
        for _ in range(10):
            x = np.sqrt(x * x + 1.0) - np.exp(-x)
        for _ in range(4):
            np.linalg.solve(self.mat, self.rhs)
        return time.perf_counter() - t0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    latencies: list = field(default_factory=list)   # seconds
    scaled: list = field(default_factory=list)      # seconds at REF_S
    refs: list = field(default_factory=list)        # reference loop, s
    failures: list = field(default_factory=list)

    def record(self, dt: float, ref: float) -> float:
        """Keep one op latency and the reference time next to it; returns
        the latency at reference speed."""
        self.latencies.append(dt)
        self.refs.append(ref)
        self.scaled.append(dt * REF_S / ref)
        return self.scaled[-1]

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{label}: {message}")


def run_batch(wl, tally: Tally, ref: Reference,
              tracer=None) -> tuple[float, float]:
    """Run one batch; returns its time in seconds, raw and at reference
    speed."""
    from workloads import CheckFailed

    raw = scaled = 0.0
    for op in wl.batch():
        ref_s = ref.timed()
        if tracer is not None:
            tracer.op_id = tally.attempted
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:   # any raise is a failed op; keep measuring
            dt = time.perf_counter() - t0
            raw += dt
            scaled += tally.record(dt, ref_s)
            tally.fail(op.label, traceback.format_exc(limit=-2).strip())
            continue
        dt = time.perf_counter() - t0
        raw += dt
        scaled += tally.record(dt, ref_s)
        try:
            err = op.check(out)
        except CheckFailed as exc:
            err = exc.rel_err
            tally.fail(op.label, str(exc))
        except Exception:
            err = 1.0
            tally.fail(op.label, traceback.format_exc(limit=-2).strip())
        tally.max_rel_err = max(tally.max_rel_err, err)
    return raw, scaled


def timed_batches(wl, tally: Tally, ref: Reference,
                  seconds: float) -> list[tuple[float, float]]:
    """Repeat the batch until another would overrun ``seconds``; returns
    each batch's (raw, scaled) time."""
    t0 = time.perf_counter()
    batches = []
    while True:
        gc.collect()
        batches.append(run_batch(wl, tally, ref))
        spent = time.perf_counter() - t0
        if (len(batches) >= MIN_BATCHES
                and spent * (1 + 1 / len(batches)) > seconds):
            return batches


def tail_latency(latencies: list[float]):
    """(percentile, value): the highest whole percentile with at least
    ten ops beyond it, by nearest rank.  Below 20 ops no percentile above
    the median qualifies, and the median is returned as p50."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in range(99, 50, -1):
        rank = -(-pct * n // 100)            # ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, xs[rank - 1]
    return 50, statistics.median(xs)


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", import_s: float = 0.0) -> dict:
    """One workload run; returns the full result record."""
    import workloads

    # each set-up is followed by a pass of the reference loop that scales it
    ref = Reference()
    setups, setup_refs = [], []
    for _ in range(SETUP_REPS):
        wl = workloads.WORKLOADS[name](seed, **workloads.SIZES[size][name])
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        setup_refs.append(ref.timed())
    wl.prepare_oracle()
    setup_s = import_s + statistics.median(setups)
    setup_ref_s = (
        import_s * REF_S / statistics.median(setup_refs)
        + statistics.median(t * REF_S / r for t, r in zip(setups, setup_refs)))

    tally = Tally()
    batches = timed_batches(wl, tally, ref,
                            seconds / 2.0 if trace else seconds)
    wall_s = statistics.median(raw for raw, _ in batches)
    op_p50 = statistics.median(tally.latencies)
    tail_pct, tail = tail_latency(tally.latencies)
    _, tail_ref = tail_latency(tally.scaled)
    end_to_end = {
        "setup_s": setup_ref_s,
        "wall_ref_s": statistics.median(sc for _, sc in batches),
        "op_p50_ref_ms": 1e3 * statistics.median(tally.scaled),
        "op_tail_ref_ms": 1e3 * tail_ref,
    }
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "size": size, "env": environment(),
              "tail_percentile": tail_pct, "ops_timed": len(tally.latencies),
              "batches": len(batches)}

    if trace:
        import tracing

        tracers, traced_walls = [], []
        for _ in range(TRACED_BATCHES):
            tracer = tracing.Tracer()
            gc.collect()
            tracer.install()
            try:
                traced_walls.append(run_batch(wl, tally, ref, tracer)[0])
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        per_batch = [layer_metrics(t) for t in tracers]
        layer = per_batch[0]
        for m in TIMES:
            layer[m] = statistics.fmean(b[m] for b in per_batch)
        repeat = all(b[m] == layer[m]
                     for b in per_batch for m in DETERMINISTIC)
        if not repeat:
            tally.fail("trace", "simulation counts differ between traced "
                       "batches")
        idle = [b for b in wl.required
                if b in tracer.present and layer["_calls"][b] == 0]
        layer.update({"trace.overhead_s": statistics.median(traced_walls)
                      - wall_s,
                      "trace.absent": len(tracer.absent),
                      "trace.idle_required": len(idle),
                      "trace.counts_repeat": int(repeat)})
        result.update(per_layer=layer, absent=sorted(tracer.absent),
                      idle_required=idle,
                      hook_errors=dict(tracer.hook_errors))
        OUT_DIR.mkdir(exist_ok=True)
        tracers[0].write(OUT_DIR / f"spans_{name}.json.gz",
                         {"workload": name, "seed": seed})

    headline = wl.headline(wall_s, op_p50)
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["end_to_end"] = end_to_end
    result["extra"] = {
        "setup_raw_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (1e3 * op_p50, "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "ref_ms": (1e3 * statistics.median(tally.refs), "ms"),
        headline[0]: (headline[1], headline[2]),
        "fail_frac": (tally.failed / tally.attempted, "ratio"),
        "max_rel_err": (tally.max_rel_err, "ratio"),
        "import_s": (import_s, "s"),
        "first_setup_s": (setups[0], "s"),
    }
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, correct=tally.failed == 0)
    return result


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of the batch the tracer has just recorded."""
    stats = tracer.layer_stats()
    c = tracer.counts
    out = {}
    for b in _CALLS:
        out[f"{b}_calls"] = stats[b].calls
    for b in _TOTAL_S:
        out[f"{b}_s"] = stats[b].total_s
    for b in _SELF_S:
        out[f"{b}_self_s"] = stats[b].self_s
    for m in _HOOK_COUNTS:
        out[m] = int(c[m])
    newton = stats["engine.newton"].calls
    out["engine.newton_ok_ratio"] = (
        (newton - c["engine.newton_failed"]) / newton if newton else 0.0)
    devices = c["neuro.devices"]
    out["neuro.converged_ratio"] = (
        c["neuro.converged"] / devices if devices else 0.0)
    out["_calls"] = {b: s.calls for b, s in stats.items()}
    return out


# ---------------------------------------------------------------------------
# reporting

def metric_block(result: dict) -> dict:
    """The ``metrics`` object of the result line."""
    if result["trace"]:
        return {m: {"value": float(result["per_layer"][m]), "unit": u}
                for m, u in PER_LAYER.items()}
    return {m: {"value": float(result["end_to_end"][m]), "unit": u}
            for m, u in END_TO_END.items()}


def print_report(result: dict) -> None:
    env = result["env"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {int(result['trace'])}")
    print(f"   python {env['python']}  numpy {env['numpy']}  nproc "
          f"{env['nproc']}  openblas threads {env['openblas_threads']}")
    rows = [(m, result["end_to_end"][m], u) for m, u in END_TO_END.items()]
    rows += [(m, v[0], v[1]) for m, v in result["extra"].items()]
    for m, v, u in rows:
        note = ""
        if m in ("op_tail_ms", "op_tail_ref_ms"):
            note = (f"p{result['tail_percentile']} of "
                    f"n={result['ops_timed']}")
        print(f"   {m:<26} {v:>14.6g} {u:<6} {note}")
    print(f"   batches {result['batches']}  attempted {result['attempted']}"
          f"  failed {result['failed']}")
    if result["trace"]:
        for m, u in PER_LAYER.items():
            print(f"   {m:<26} {result['per_layer'][m]:>14.6g} {u}")
        for b in result["absent"]:
            print(f"   boundary {b}: absent")
        for b in result["idle_required"]:
            print(f"   FLAG boundary {b}: present but no calls on a "
                  f"workload that must use it")
        for b, n in result["hook_errors"].items():
            print(f"   boundary {b}: return value unreadable in {n} calls")
    for f in result["failures"]:
        print(f"   FAILED {f}")


def save_result(result: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    doc = dict(result)
    if "per_layer" in doc:
        doc["per_layer"] = {k: v for k, v in doc["per_layer"].items()
                            if not k.startswith("_")}
    path = OUT_DIR / (f"result_{result['workload']}_seed{result['seed']}"
                      f"_trace{int(result['trace'])}.json")
    path.write_text(json.dumps(doc, indent=1, default=str) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="mos_sweep, xbar_read, and_train, cell_pulses "
                             "or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_s = _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    for n in names:
        if n not in workloads.WORKLOADS:
            parser.error(f"unknown workload {n!r}")

    results = []
    for n in names:
        res = run_workload(n, args.seed, args.seconds, bool(args.trace),
                           import_s=import_s)
        print_report(res)
        save_result(res)
        results.append(res)

    if len(results) == 1:
        metrics = metric_block(results[0])
    else:
        metrics = {f"{r['workload']}/{m}": v for r in results
                   for m, v in metric_block(r).items()}
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
