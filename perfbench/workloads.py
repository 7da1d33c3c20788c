"""The four benchmark workloads and their correctness oracles.

Each workload builds its inputs from the seed in ``setup`` (the part that
counts toward set-up time), prepares its oracle values in
``prepare_oracle`` (untimed), and hands out one fixed batch of ops per
call to ``batch``.  An op is a call into a public entry point of the
package plus a check of that call's output; only the call is timed.

The package functions are imported by name into this module on purpose:
the traced run wraps them here, at the name this module looks up, so the
spans cover exactly the calls the benchmark makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from synapsim.floatgate import (FloatingGateParams, fg_read_current,
                                program_pulse)
from synapsim.mosfet import (MosParams, current_from_charges,
                             solve_charge_householder,
                             solve_charge_reference_grid,
                             terminal_charges_grid)
from synapsim.neuro import (CrossbarSpec, TrainConfig, build_crossbar,
                            read_outputs, set_states, train_and_gate,
                            train_and_gate_software)
from synapsim.rram import RramParams, hysteresis_loop, tuning_curve_1t1r

# c01's tolerance for the explicit charge solver against the reference
MOS_REL_TOL = 1e-6
# the crossbar closed form is exact up to rounding when bit lines sit at 0 V
XBAR_REL_TOL = 1e-9


@dataclass
class Op:
    """One timed call and the check of its output.

    ``check`` returns the op's relative error against its oracle and
    raises ``CheckFailed`` when the output is wrong.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], float]


class CheckFailed(Exception):
    def __init__(self, message: str, rel_err: float = 1.0):
        super().__init__(message)
        self.rel_err = rel_err


def _require(ok: bool, message: str, rel_err: float = 1.0) -> None:
    if not ok:
        raise CheckFailed(message, rel_err)


# ---------------------------------------------------------------------------

class MosSweep:
    """Vectorized MOSFET evaluation over seeded chunks of the validity box.

    Chosen because it runs the model's vector path (charge solve, drain
    current, Ward-Dutton partition) and no engine code.  Chunks are 2.5e4
    points (about 0.1 s each) rather than 1e4 so that a millisecond-scale
    stall on a shared host does not set an op's time alone; the 98th
    percentile of 1e4-point chunks spread 27% across seeds on a 2-vCPU VM.
    """

    name = "mos_sweep"
    required = ("mosfet.solve", "mosfet.current", "mosfet.partition")

    def __init__(self, seed: int, points: int, chunks: int, sample: int):
        self.seed, self.points, self.n_chunks = seed, points, chunks
        self.sample = sample

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.p = MosParams()
        self.chunks = [(rng.uniform(-0.5, 1.5, self.points),
                        rng.uniform(0.0, 1.0, self.points))
                       for _ in range(self.n_chunks)]
        self._evaluate(*self.chunks[0])

    def prepare_oracle(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.oracle = []
        for v_g, v_ds in self.chunks:
            idx = rng.choice(self.points, self.sample, replace=False)
            q_s = solve_charge_reference_grid(self.p, v_g[idx], 0.0)
            q_d = solve_charge_reference_grid(self.p, v_g[idx], v_ds[idx])
            self.oracle.append((idx, q_s, q_d))

    def _evaluate(self, v_g, v_ds):
        q_is = solve_charge_householder(self.p, v_g, 0.0)
        q_id = solve_charge_householder(self.p, v_g, v_ds)
        i_d = current_from_charges(self.p, q_is, q_id, v_ds)
        tc = terminal_charges_grid(self.p, v_g, v_ds, q_is=q_is, q_id=q_id)
        return q_is, q_id, i_d, tc

    def headline(self, wall_s: float, op_p50_s: float):
        """(name, value, unit) of the workload's own end-to-end figure."""
        return "bias_points_per_s", self.points * self.n_chunks / wall_s, "1/s"

    def batch(self) -> list[Op]:
        ops = []
        for (v_g, v_ds), (idx, q_s, q_d) in zip(self.chunks, self.oracle):
            def call(v_g=v_g, v_ds=v_ds):
                return self._evaluate(v_g, v_ds)

            def check(out, idx=idx, q_s=q_s, q_d=q_d):
                q_is, q_id, i_d, tc = out
                finite = all(np.all(np.isfinite(a)) for a in
                             (q_is, q_id, i_d, tc.q_g, tc.q_d, tc.q_s))
                _require(finite, "non-finite MOSFET output")
                _require(bool(np.all(i_d >= 0.0)), "negative I_d at V_ds >= 0")
                err = max(float(np.max(np.abs(q_is[idx] - q_s) / q_s)),
                          float(np.max(np.abs(q_id[idx] - q_d) / q_d)))
                _require(err <= MOS_REL_TOL,
                         f"Householder charge rel err {err:.2e}", err)
                return err
            ops.append(Op("chunk", call, check))
        return ops


# ---------------------------------------------------------------------------

class XbarRead:
    """DC reads of one large differential RRAM array.

    Chosen because each read is one large dense MNA system (32x16 array,
    1152 unknowns): linear solve and assembly dominate, and no MOSFET code
    runs.  A batch is 8 reads (about 1.5 s) so that a run repeats each
    read often enough for its fastest repeat to be a steady figure.
    """

    name = "xbar_read"
    required = ("rram.stamp", "engine.layout", "engine.assemble",
                "engine.linsolve", "engine.newton", "engine.op", "neuro.read")

    def __init__(self, seed: int, rows: int, cols: int, reads: int):
        self.seed, self.rows, self.cols, self.reads = seed, rows, cols, reads

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.params = RramParams()
        self.spec = CrossbarSpec(n_inputs=self.rows, n_outputs=self.cols)
        self.x_plus = rng.uniform(0.0, 1.0, (self.rows, self.cols))
        self.x_minus = rng.uniform(0.0, 1.0, (self.rows, self.cols))
        self.drives = rng.uniform(0.0, self.spec.v_read,
                                  (self.reads, self.rows))
        self.circuit = build_crossbar(self.spec, self.params)
        set_states(self.circuit, self.spec, self.x_plus, self.x_minus)
        read_outputs(self.circuit, self.spec, self.drives[0])

    def prepare_oracle(self) -> None:
        # I_j = sum_i (G+_ij - G-_ij) v0 sinh(V_i / v0), written out from
        # the model equations rather than through the package
        p = self.params
        ln_ratio = math.log(p.g_on / p.g_off)
        g_diff = (p.g_off * np.exp(ln_ratio * self.x_plus)
                  - p.g_off * np.exp(ln_ratio * self.x_minus))
        self.oracle = (p.v0 * np.sinh(self.drives / p.v0)) @ g_diff

    def headline(self, wall_s: float, op_p50_s: float):
        return "reads_per_s", self.reads / wall_s, "1/s"

    def batch(self) -> list[Op]:
        ops = []
        for drive, ref in zip(self.drives, self.oracle):
            def call(drive=drive):
                return read_outputs(self.circuit, self.spec, drive)

            def check(out, ref=ref):
                _require(out.shape == ref.shape, "wrong output shape")
                err = float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))
                _require(err <= XBAR_REL_TOL,
                         f"crossbar read rel err {err:.2e}", err)
                return err
            ops.append(Op("read", call, check))
        return ops


# ---------------------------------------------------------------------------

class AndTrain:
    """The paper's 3x1 device-in-the-loop AND training from a fresh array.

    Chosen because write-verify pulses (one-device transients) interleave
    with tiny DC reads, so per-call engine overhead dominates: a change
    that speeds up large systems but adds per-layout set-up shows here.
    The inputs are fixed by the experiment, so the seed is recorded but
    does not change them.
    """

    name = "and_train"
    required = ("rram.stamp", "engine.layout", "engine.assemble",
                "engine.newton", "engine.op", "engine.tran", "neuro.read",
                "neuro.program")

    def __init__(self, seed: int, trainings: int):
        self.seed, self.trainings = seed, trainings

    def setup(self) -> None:
        # one epoch runs every code path of a full training
        cfg = TrainConfig(epochs=1)
        train_and_gate(cfg=cfg)
        train_and_gate_software(cfg=cfg)

    def prepare_oracle(self) -> None:
        pass

    def headline(self, wall_s: float, op_p50_s: float):
        return "and_train_s", op_p50_s, "s"

    def batch(self) -> list[Op]:
        def call():
            return train_and_gate(), train_and_gate_software()

        def check(out):
            device, software = out
            correct = device.n_correct + software.n_correct
            _require(device.success and software.success,
                     f"AND reached {device.n_correct}/4 on the device, "
                     f"{software.n_correct}/4 in software",
                     (8 - correct) / 8.0)
            return 0.0
        return [Op("train", call, check) for _ in range(self.trainings)]


# ---------------------------------------------------------------------------

class CellPulses:
    """The three single-device CLI experiments at their CLI settings.

    Chosen because it is the only workload in which the engine calls the
    MOSFET model and the floating-gate Fowler-Nordheim stamps.  One op is
    one step of an experiment: the whole hysteresis loop, one point of
    the 1T1R tuning curve, the first floating-gate read, or one
    floating-gate program-and-read pulse.  Every setting is the CLI
    default except the counts: 8 tuning points over the default v_pgm
    range instead of 16, and 3 strengthen plus 3 weaken pulses instead of
    5 plus 5.  That halves the batch to about 2.7 s, so a run repeats
    each op often enough for its fastest repeat to be a steady figure.
    The inputs are fixed, so the seed is recorded but does not change
    them.
    """

    name = "cell_pulses"
    required = ("mosfet.stamp", "rram.stamp", "floatgate.stamp",
                "engine.layout", "engine.assemble", "engine.newton",
                "engine.op", "engine.tran")

    # CLI defaults of rram-iv, rram-tune and fg-pulse
    V_PEAK, PERIOD = 1.2, 1e-3
    VPGM_START, VPGM_STOP, V_SET = 0.25, 1.4, 1.0
    TUNE_READ, TUNE_WIDTH = 0.1, 10e-6
    AMP_STRENGTHEN, AMP_WEAKEN, FG_WIDTH = 4.5, -3.1, 100e-6
    FG_READ, FG_SG = 0.6, 1.0

    def __init__(self, seed: int, iv_tstep: float, tune_points: int,
                 strengthen: int, weaken: int):
        self.seed, self.iv_tstep = seed, iv_tstep
        self.tune_points = tune_points
        self.strengthen, self.weaken = strengthen, weaken

    def setup(self) -> None:
        self.rram, self.mos = RramParams(), MosParams()
        self.fg = FloatingGateParams()
        self.v_pgm = np.linspace(self.VPGM_START, self.VPGM_STOP,
                                 self.tune_points)
        # shortened run of each experiment
        hysteresis_loop(self.rram, self.V_PEAK, self.PERIOD,
                        50 * self.iv_tstep)
        tuning_curve_1t1r(self.rram, self.mos, self.v_pgm[:1],
                          v_set=self.V_SET, v_read=self.TUNE_READ,
                          width=self.TUNE_WIDTH)
        program_pulse(self.fg, 0.0, "pfb", self.AMP_STRENGTHEN, self.FG_WIDTH,
                      v_read=self.FG_READ, v_sg=self.FG_SG)

    def prepare_oracle(self) -> None:
        pass

    def headline(self, wall_s: float, op_p50_s: float):
        return "experiments_per_s", 3 / wall_s, "1/s"

    def batch(self) -> list[Op]:
        return self._iv_ops() + self._tune_ops() + self._fg_ops()

    def _iv_ops(self) -> list[Op]:
        def call():
            return hysteresis_loop(self.rram, self.V_PEAK, self.PERIOD,
                                   self.iv_tstep)

        def check(out):
            v, i, x = out
            _require(bool(np.all(np.isfinite(i))), "non-finite loop current")
            _require(bool(np.all((x >= 0.0) & (x <= 1.0))), "X left [0, 1]")
            zero = np.abs(v) <= 1e-6 * self.V_PEAK
            _require(int(np.sum(zero)) >= 2, "loop never crosses V = 0")
            err = float(np.max(np.abs(i[zero])) / np.max(np.abs(i)))
            _require(err <= 1e-6, f"loop not pinched at V = 0 ({err:.2e})",
                     err)
            return err
        return [Op("rram_iv", call, check)]

    def _tune_ops(self) -> list[Op]:
        prev = {"x": -math.inf}
        ops = []
        for v in self.v_pgm:
            def call(v=v):
                xs, reads = tuning_curve_1t1r(
                    self.rram, self.mos, [float(v)], v_set=self.V_SET,
                    v_read=self.TUNE_READ, width=self.TUNE_WIDTH)
                return float(xs[0]), float(reads[0])

            def check(out):
                x, i_read = out
                _require(0.0 <= x <= 1.0 and i_read > 0.0,
                         f"tuned state {x} / read {i_read} out of range")
                drop = prev["x"] - x
                prev["x"] = x
                _require(drop <= 0.0, "tuned X falls as v_pgm rises",
                         drop / max(x + drop, 1e-300))
                return 0.0
            ops.append(Op("rram_tune", call, check))
        return ops

    def _fg_ops(self) -> list[Op]:
        # q carries the stored charge from pulse to pulse; `start` is the
        # read current at the start of the current pulse phase
        state = {"q": 0.0, "start": None}

        def first_read():
            return fg_read_current(self.fg, 0.0, v_read=self.FG_READ,
                                   v_sg=self.FG_SG)

        def check_read(i):
            _require(math.isfinite(i) and i > 0.0, f"bad FG read {i}")
            state["start"] = i
            return 0.0

        ops = [Op("fg_read", first_read, check_read)]
        schedule = ([("pfb", self.AMP_STRENGTHEN, +1)] * self.strengthen
                    + [("nfb", self.AMP_WEAKEN, -1)] * self.weaken)
        for k, (terminal, amp, sign) in enumerate(schedule):
            phase_end = (k + 1 == len(schedule)
                         or schedule[k + 1][0] != terminal)

            def call(terminal=terminal, amp=amp):
                res = program_pulse(self.fg, state["q"], terminal, amp,
                                    self.FG_WIDTH, v_read=self.FG_READ,
                                    v_sg=self.FG_SG)
                state["q"] = res.q_fg
                return res

            def check(res, sign=sign, phase_end=phase_end):
                _require(math.isfinite(res.i_after), "non-finite FG read")
                tol = 1e-12 * max(abs(res.i_before), abs(res.i_after))
                _require(sign * res.delta_i >= -tol,
                         "pulse moved the FG read current the wrong way")
                if phase_end:
                    _require(sign * (res.i_after - state["start"]) > 0.0,
                             "pulse phase left the FG read current unmoved")
                    state["start"] = res.i_after
                return 0.0
            ops.append(Op("fg_pulse", call, check))
        return ops


WORKLOADS = {w.name: w for w in (MosSweep, XbarRead, AndTrain, CellPulses)}

# per-workload constructor arguments: the measured sizes, and tiny ones
# for the smoke test
SIZES = {
    "full": {
        "mos_sweep": dict(points=25_000, chunks=16, sample=16),
        "xbar_read": dict(rows=32, cols=16, reads=8),
        "and_train": dict(trainings=3),
        "cell_pulses": dict(iv_tstep=1e-6, tune_points=8, strengthen=3,
                            weaken=3),
    },
    "tiny": {
        "mos_sweep": dict(points=200, chunks=2, sample=8),
        "xbar_read": dict(rows=4, cols=2, reads=2),
        "and_train": dict(trainings=1),
        "cell_pulses": dict(iv_tstep=2e-5, tune_points=3, strengthen=1,
                            weaken=1),
    },
}
