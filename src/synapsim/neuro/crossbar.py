"""Differential-RRAM crossbar arrays and hardware-in-the-loop training.

Each synapse (i, j) is a pair of RRAM devices from word line i to the
positive and negative bit line of output j; the bit lines are clamped to
0 V by ideal sources (virtual ground) whose branch currents superpose
the per-device contributions, so output j reads
I+_j - I-_j = sum_i (G+_ij - G-_ij) V_i.

Programming is closed-loop write-verify in rounds.  Each device is
pulsed in its own isolated programming cell (select/deselect
peripheries are out of scope), and a round pulses every device that
has not yet reached its target, all cells in one lockstep transient;
the resulting filament states are copied back into the array circuit,
which itself is only ever read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..engine import (AnalysisSpec, Circuit, RramElement, VSource,
                      operating_point)
from ..mosfet import MosParams
from ..rram import (_SINH_ARG_MAX, V_GATE_ON, V_SET_1T1R, RramParams,
                    _op_1t1r, _pulse_1t1r_cell, _run_transients,
                    _set_1t1r_batch, conductance, state_for_conductance)

__all__ = [
    "CrossbarSpec", "TrainConfig", "DeviceReport", "ProgramReport",
    "AndResult", "build_crossbar", "synapse_devices", "read_outputs",
    "set_states", "get_states", "write_verify_device", "program_weights",
    "train_and_gate", "train_and_gate_software",
]


@dataclass(frozen=True)
class CrossbarSpec:
    """Array geometry and read conditions.

    ``scheme`` selects the programming style: direct bipolar pulses with
    width modulation ("crossbar") or compliance-limited SET through an
    access transistor ("1t1r").
    """

    n_inputs: int
    n_outputs: int
    v_read: float = 0.1
    scheme: str = "crossbar"

    def __post_init__(self):
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise ValueError("crossbar needs n_inputs, n_outputs >= 1")
        if self.scheme not in ("crossbar", "1t1r"):
            raise ValueError(f"unknown access scheme '{self.scheme}'")
        if self.v_read <= 0.0:
            raise ValueError("v_read must be positive")


@dataclass(frozen=True)
class TrainConfig:
    """Offline-training and write-verify knobs.

    The learning loop runs in software; only reads and programming
    pulses touch the array.  ``write_tol`` is the conductance error (S)
    at which verify stops; pulse widths come from inverting the state
    rate law for the remaining distance, clipped to the width window,
    and a move shorter than ``min_width`` lowers the amplitude instead.
    ``pulse_steps`` is the trapezoidal step count of one direct pulse:
    at 10, the pulses of a default AND training land within 5e-7 S of
    the rate law's exact integral, closer than 50 backward-Euler steps
    (1.1e-6 S), and about a tenth of ``write_tol``.
    """

    lr: float = 0.5
    epochs: int = 200
    threshold: float = 0.5
    margin: float = 0.02
    write_tol: float = 5e-6
    max_verify: int = 8
    set_amplitude: float = 1.0
    reset_amplitude: float = -1.0
    min_width: float = 1e-9
    max_width: float = 1e-2
    pulse_steps: int = 10

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.write_tol <= 0.0 or self.max_verify < 1:
            raise ValueError("need write_tol > 0 and max_verify >= 1")
        if self.set_amplitude <= 0.0 or self.reset_amplitude >= 0.0:
            raise ValueError("set pulses are positive, reset negative")
        if self.pulse_steps < 1:
            raise ValueError("pulse_steps must be >= 1")
        # written so that a NaN width fails it too
        if not 0.0 < self.min_width <= self.max_width:
            raise ValueError("need 0 < min_width <= max_width")


@dataclass
class DeviceReport:
    name: str
    g_target: float
    g_achieved: float
    pulses: int
    converged: bool


@dataclass
class ProgramReport:
    devices: list = field(default_factory=list)

    @property
    def total_pulses(self) -> int:
        return sum(d.pulses for d in self.devices)


# ---------------------------------------------------------------------------
# construction and readout

# the array's RRAM model card name
_MODEL = "mem"


def synapse_devices(i: int, j: int) -> tuple[str, str]:
    """(positive, negative) device names of synapse (i, j), 0-based."""
    return f"xp{i}_{j}", f"xm{i}_{j}"


def build_crossbar(spec: CrossbarSpec, params: RramParams,
                   x_init: float = 0.5) -> Circuit:
    """Netlist of the array: word-line drivers, two devices per synapse,
    and 0 V bit-line clamps whose branch currents are the outputs."""
    c = Circuit()
    c.add_model(_MODEL, "rram", params)
    for i in range(spec.n_inputs):
        c.add(VSource(f"vw{i}", f"w{i}", "0", dc=0.0))
    for j in range(spec.n_outputs):
        c.add(VSource(f"vbp{j}", f"bp{j}", "0", dc=0.0))
        c.add(VSource(f"vbm{j}", f"bm{j}", "0", dc=0.0))
    for i in range(spec.n_inputs):
        for j in range(spec.n_outputs):
            dp, dm = synapse_devices(i, j)
            c.add(RramElement(dp, f"w{i}", f"bp{j}", model=_MODEL,
                              x0=x_init))
            c.add(RramElement(dm, f"w{i}", f"bm{j}", model=_MODEL,
                              x0=x_init))
    c.resolve()
    return c


def set_states(circuit: Circuit, spec: CrossbarSpec, x_plus, x_minus):
    """Overwrite every filament state from (n_inputs, n_outputs) arrays."""
    x_plus = np.broadcast_to(np.asarray(x_plus, float),
                             (spec.n_inputs, spec.n_outputs))
    x_minus = np.broadcast_to(np.asarray(x_minus, float),
                              (spec.n_inputs, spec.n_outputs))
    for i in range(spec.n_inputs):
        for j in range(spec.n_outputs):
            dp, dm = synapse_devices(i, j)
            circuit.state[dp] = float(x_plus[i, j])
            circuit.state[dm] = float(x_minus[i, j])


def get_states(circuit: Circuit, spec: CrossbarSpec):
    """(x_plus, x_minus) arrays of shape (n_inputs, n_outputs)."""
    xp = np.empty((spec.n_inputs, spec.n_outputs))
    xm = np.empty_like(xp)
    for i in range(spec.n_inputs):
        for j in range(spec.n_outputs):
            dp, dm = synapse_devices(i, j)
            xp[i, j] = circuit.state[dp]
            xm[i, j] = circuit.state[dm]
    return xp, xm


def read_outputs(circuit: Circuit, spec: CrossbarSpec, v_inputs) -> np.ndarray:
    """Differential bit-line currents for one word-line drive vector.

    Solves a DC operating point with the filament states frozen and
    returns I+_j - I-_j per output column.
    """
    v_inputs = np.asarray(v_inputs, dtype=float)
    if v_inputs.shape != (spec.n_inputs,):
        raise ValueError(f"expected {spec.n_inputs} input voltages")
    for i, v in enumerate(v_inputs):
        circuit.element(f"vw{i}").dc = float(v)
    res = operating_point(circuit, AnalysisSpec(kind="op"))
    # every I+ and then every I-, in one gather
    n = spec.n_outputs
    i = res.data[0][[res.index[f"i(vb{side}{j})"]
                     for side in "pm" for j in range(n)]]
    return i[:n] - i[n:]


# ---------------------------------------------------------------------------
# write-verify programming


def _drive(p: RramParams, amplitude: float, x0: float, x1: float):
    """Branch of the rate law that a pulse of this sign drives:
    (prefactor, v_c, window base at x0, window base at x1).  SET shrinks
    the base 1 - X toward 0, RESET shrinks X."""
    if amplitude > 0.0:
        return p.k_set, p.vc_set, 1.0 - x0, 1.0 - max(x1, x0)
    return p.k_reset, p.vc_reset, x0, min(x1, x0)


def _pulse(p: RramParams, x0: float, x1: float, amplitude: float,
           lo: float, hi: float) -> tuple[float, float]:
    """(amplitude, width) of a constant-voltage pulse moving the state from
    x0 to x1, from the closed-form integral of the windowed rate law.

    The width is clipped to [lo, hi].  A move that needs less than ``lo``
    at this amplitude keeps width ``lo`` at the lower amplitude of the
    same sign that lands on x1, instead of overshooting it.
    """
    k0, vc, a0, a1 = _drive(p, amplitude, x0, x1)
    k = k0 * math.sinh(min(abs(amplitude) / vc, _SINH_ARG_MAX))
    a1 = max(a1, 1e-12)
    if p.p == 1.0:
        t = math.log(a0 / a1) / k
    else:
        t = (a1 ** (1.0 - p.p) - a0 ** (1.0 - p.p)) / ((p.p - 1.0) * k)
    if t < lo:
        # sinh(A / v_c) * lo = sinh(amplitude / v_c) * t
        return math.copysign(vc * math.asinh(k * t / (k0 * lo)),
                             amplitude), lo
    return amplitude, min(t, hi)


def _pulse_cell(p: RramParams, x0: float, amplitude: float, width: float,
                steps: int):
    """(circuit, spec) of one constant-voltage pulse on an isolated
    device, integrated by the trapezoidal rule in ``steps`` steps.  An
    ideal source drives the device, so the state it lands on has the
    closed form that ``_pulse`` inverts."""
    c = Circuit()
    c.add_model("mem", "rram", p)
    c.add(VSource("vp", "a", "0", dc=amplitude))
    c.add(RramElement("xr", "a", "0", model="mem", x0=x0))
    return c, AnalysisSpec(kind="tran", tstep=width / steps, tstop=width,
                           uic=True, integrator="trap")


def _verify(params: RramParams, x0: float, g_target: float,
            cfg: TrainConfig, pulse):
    """Pulse-verify loop shared by both access schemes, as a generator:
    read G, stop within ``write_tol`` or after ``max_verify`` pulses,
    otherwise move the state with the scheme's ``pulse(x, g)`` and
    re-read.  ``pulse`` is a generator too: it yields the (circuit, spec)
    cell of its programming pulse, which ``_in_rounds`` runs, and returns
    the new state.  Returns (DeviceReport, x)."""
    x = float(x0)
    pulses = 0
    g = float(conductance(params, x))
    while abs(g - g_target) > cfg.write_tol and pulses < cfg.max_verify:
        x = yield from pulse(x, g)
        g = float(conductance(params, x))
        pulses += 1
    return DeviceReport(name="", g_target=g_target, g_achieved=g,
                        pulses=pulses,
                        converged=abs(g - g_target) <= cfg.write_tol), x


def _in_rounds(loops) -> list:
    """Run ``_verify`` generators in rounds: each round runs the next
    pulse of every loop that is not done, and every loop then reads its
    device; returns each loop's (DeviceReport, x)."""
    results = [None] * len(loops)
    pending = {}

    def advance(i):
        try:
            pending[i] = next(loops[i])
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(loops)):
        advance(i)
    while pending:
        round_ = list(pending)
        _run_transients([pending.pop(i) for i in round_])
        for i in round_:
            advance(i)
    return results


def _verify_direct(params: RramParams, x0: float, g_target: float,
                   cfg: TrainConfig):
    """The direct-pulse scheme's verify loop (see ``write_verify_device``),
    as a ``_verify`` generator."""
    x_target = state_for_conductance(params, g_target)

    def pulse(x, g):
        amp = cfg.set_amplitude if g < g_target else cfg.reset_amplitude
        amp, width = _pulse(params, x, x_target, amp,
                            cfg.min_width, cfg.max_width)
        c, spec = _pulse_cell(params, x, amp, width, cfg.pulse_steps)
        yield c, spec
        return float(c.state["xr"])

    return _verify(params, x0, g_target, cfg, pulse)


def write_verify_device(params: RramParams, x0: float, g_target: float,
                        cfg: TrainConfig) -> tuple:
    """Pulse-verify loop driving one device's conductance to g_target.

    Each iteration reads G, picks SET or RESET by the sign of the error,
    pulses for the closed-form width of the remaining distance (at
    ``min_width`` and a lower amplitude when the distance needs a shorter
    pulse), and re-reads.  A pulse misses its target only by the
    integrator's error, well under ``write_tol`` except near ``g_on``,
    where the coarse steps can overshoot to the X = 1 bound; a second
    pulse from there lands, so a device takes at most 2 pulses on a
    405-move grid (``tests/test_write_verify_oracle.py``).  It is
    ``program_weights``' verify rounds with one device.
    """
    return _in_rounds([_verify_direct(params, x0, g_target, cfg)])[0]


# 1T1R scheme: the gate voltages at which the compliance map is sampled
_GATE_GRID = np.linspace(0.25, 1.4, 12)


@functools.lru_cache(maxsize=8)
def _gate_calibration(params: RramParams) -> np.ndarray:
    """Compliance map for the 1T1R scheme: settled X at each gate
    voltage of ``_GATE_GRID``, all SETs in one lockstep transient.  It
    depends on the parameter set alone, so it is computed once per set
    and returned read-only."""
    ceilings = _set_1t1r_batch(params, MosParams(), _GATE_GRID)
    ceilings.setflags(write=False)
    return ceilings


def _write_verify_1t1r(params: RramParams, x0: float, g_target: float,
                       cfg: TrainConfig, ceilings: np.ndarray):
    """1T1R write-verify, as a ``_verify`` generator: gate voltage for SET
    found by bracketed secant on the calibrated compliance curve;
    overshoot trimmed by width-modulated RESET pulses through the
    hard-driven transistor."""
    mos = MosParams()
    x_target = state_for_conductance(params, g_target)

    # bracket the target state between calibration samples
    idx = int(np.searchsorted(ceilings, x_target))
    idx = min(max(idx, 1), len(_GATE_GRID) - 1)
    v_lo, x_lo = float(_GATE_GRID[idx - 1]), float(ceilings[idx - 1])
    v_hi, x_hi = float(_GATE_GRID[idx]), float(ceilings[idx])

    def pulse(x, g):
        nonlocal v_lo, x_lo, v_hi, x_hi
        if g < g_target:
            if x_hi > x_lo:
                v_try = v_lo + (v_hi - v_lo) * (x_target - x_lo) / (x_hi - x_lo)
            else:
                v_try = 0.5 * (v_lo + v_hi)
            v_try = min(max(v_try, v_lo), v_hi)
            c, spec = _pulse_1t1r_cell(params, mos, V_SET_1T1R, v_try,
                                       x0=x)
            yield c, spec
            x_new = float(c.state["xr1"])
            if x_new < x_target:
                v_lo, x_lo = v_try, x_new
            else:
                v_hi, x_hi = v_try, x_new
            return x_new
        # the access transistor divides the applied reset bias, so
        # invert the width at the voltage the device actually sees
        res = _op_1t1r(params, mos, cfg.reset_amplitude, x)
        v_dev = float(res.column("v(top)")[0] - res.column("v(mid)")[0])
        width = _pulse(params, x, x_target, v_dev,
                       cfg.min_width, cfg.max_width)[1]
        c, spec = _pulse_1t1r_cell(params, mos, cfg.reset_amplitude,
                                   V_GATE_ON, width=width, x0=x)
        yield c, spec
        return float(c.state["xr1"])

    return _verify(params, x0, g_target, cfg, pulse)


def program_weights(circuit: Circuit, spec: CrossbarSpec, g_plus, g_minus,
                    cfg: TrainConfig) -> ProgramReport:
    """Write-verify the whole array to per-device conductance targets.

    Verify runs in rounds: each round pulses every device still outside
    its tolerance, all in one lockstep transient, then re-reads them, so
    each device sees exactly the pulses it would see alone.  Targets
    outside [g_off, g_on] are rejected before any pulse is applied;
    devices already within tolerance receive zero pulses.
    """
    params = circuit.models[_MODEL][1]
    g_plus = np.broadcast_to(np.asarray(g_plus, float),
                             (spec.n_inputs, spec.n_outputs))
    g_minus = np.broadcast_to(np.asarray(g_minus, float),
                              (spec.n_inputs, spec.n_outputs))
    state_for_conductance(params, g_plus)    # range check, both planes
    state_for_conductance(params, g_minus)

    ceilings = None
    if spec.scheme == "1t1r":
        ceilings = _gate_calibration(params)

    names, loops = [], []
    for i in range(spec.n_inputs):
        for j in range(spec.n_outputs):
            for name, target in zip(synapse_devices(i, j),
                                    (g_plus[i, j], g_minus[i, j])):
                x0 = circuit.state[name]
                if spec.scheme == "1t1r":
                    loop = _write_verify_1t1r(params, x0, float(target), cfg,
                                              ceilings)
                else:
                    loop = _verify_direct(params, x0, float(target), cfg)
                names.append(name)
                loops.append(loop)
    report = ProgramReport()
    for name, (rep, x) in zip(names, _in_rounds(loops)):
        rep.name = name
        circuit.state[name] = x
        report.devices.append(rep)
    return report


# ---------------------------------------------------------------------------
# 3-input AND training (2 logic lines + bias line)

# rows: x1, x2 and the always-on bias line
_AND_FEATS = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0],
                       [1.0, 1.0, 1.0]])
_AND_TARGETS = np.array([0.0, 0.0, 0.0, 1.0])


@dataclass
class AndResult:
    n_correct: int
    epochs_used: int
    weights: np.ndarray
    activations: np.ndarray
    history: list
    circuit: Circuit = None

    @property
    def success(self) -> bool:
        return self.n_correct == 4


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _weight_to_pair(w: float, params: RramParams) -> tuple[float, float]:
    """Signed weight in [-1, 1] -> (G+, G-) with the inactive device
    parked at g_off; full scale spans +-(g_on - g_off)."""
    span = params.g_on - params.g_off
    w = min(max(w, -1.0), 1.0)
    if w >= 0.0:
        return params.g_off + w * span, params.g_off
    return params.g_off, params.g_off - w * span


def _read_weights(circuit: Circuit, spec: CrossbarSpec,
                  params: RramParams) -> np.ndarray:
    """Effective signed weights realized by the array right now."""
    xp, xm = get_states(circuit, spec)
    span = params.g_on - params.g_off
    return (conductance(params, xp) - conductance(params, xm)) / span


def _current_scale(spec: CrossbarSpec, params: RramParams) -> float:
    """Activation input scale, calibrated once from the conductance
    range: full-scale column current maps to a logit of 8."""
    span = params.g_on - params.g_off
    return 8.0 / (spec.n_inputs * span * spec.v_read)


def _count_correct(acts, cfg) -> int:
    return int(np.sum((acts > cfg.threshold) == (_AND_TARGETS > 0.5)))


def _margin(acts, cfg) -> float:
    return float(np.min(np.abs(acts - cfg.threshold)))


def _activations(read, w, scale) -> np.ndarray:
    """Sigmoid outputs for the four AND patterns at weights w."""
    return np.array([_sigmoid(scale * read(w, feats)) for feats in _AND_FEATS])


def _train_and(cfg: TrainConfig, scale: float, read, write) -> AndResult:
    """Delta-rule loop shared by the device run and its software twin.

    ``read(w, feats)`` returns the column current for one input pattern
    and ``write(w)`` realizes updated weights; stops early once all four
    patterns classify correctly.
    """
    w = np.zeros(3)
    history = []
    epochs_used = cfg.epochs
    for epoch in range(cfg.epochs):
        for feats, target in zip(_AND_FEATS, _AND_TARGETS):
            a = _sigmoid(scale * read(w, feats))
            delta = (target - a) * a * (1.0 - a)
            w = np.clip(w + cfg.lr * delta * feats, -1.0, 1.0)
            write(w)
        acts = _activations(read, w, scale)
        n_correct = _count_correct(acts, cfg)
        history.append(n_correct)
        # stop once correct with a small confidence margin, so the
        # result is not balanced on the classification threshold
        if n_correct == 4 and _margin(acts, cfg) >= cfg.margin:
            epochs_used = epoch + 1
            break
    # no write since the last evaluation, so its activations are final
    return AndResult(n_correct=n_correct, epochs_used=epochs_used,
                     weights=w, activations=acts, history=history)


def train_and_gate(spec: CrossbarSpec = None, cfg: TrainConfig = None,
                   params: RramParams = None) -> AndResult:
    """Offline delta-rule training of a 3x1 array to the AND function.

    Inputs are x1, x2 in {0, v_read} plus an always-on bias line; reads
    go through the engine, the activation and weight updates run in
    software, and updated weights are written back by write-verify.
    Stops early once all four patterns classify correctly.
    """
    params = params or RramParams()
    cfg = cfg or TrainConfig()
    spec = spec or CrossbarSpec(n_inputs=3, n_outputs=1)
    if (spec.n_inputs, spec.n_outputs) != (3, 1):
        raise ValueError("AND experiment needs a 3x1 array")
    circuit = build_crossbar(spec, params, x_init=0.0)   # G+ = G- = g_off

    def read(w, feats):
        return read_outputs(circuit, spec, feats * spec.v_read)[0]

    def write(w):
        pairs = [_weight_to_pair(wi, params) for wi in w]
        gp = np.array([[p_[0]] for p_ in pairs])
        gm = np.array([[p_[1]] for p_ in pairs])
        program_weights(circuit, spec, gp, gm, cfg)

    result = _train_and(cfg, _current_scale(spec, params), read, write)
    result.weights = _read_weights(circuit, spec, params)[:, 0]
    result.circuit = circuit
    return result


def train_and_gate_software(params: RramParams = None,
                            cfg: TrainConfig = None) -> AndResult:
    """Ideal-weight twin of ``train_and_gate``: same loop, same scale and
    clipping, but weights stay real-valued floats (no device realization)."""
    params = params or RramParams()
    cfg = cfg or TrainConfig()
    spec = CrossbarSpec(n_inputs=3, n_outputs=1)
    span = params.g_on - params.g_off

    def read(w, feats):
        return float(np.sum(w * span * feats * spec.v_read))

    return _train_and(cfg, _current_scale(spec, params), read,
                      lambda w: None)
