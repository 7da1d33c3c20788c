"""Differential crossbar: construction, reads, closed-loop programming."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import synapsim.neuro.crossbar as crossbar
from synapsim.engine import RramElement, VSource
from synapsim.neuro import (CrossbarSpec, TrainConfig, build_crossbar,
                            get_states, program_weights, read_outputs,
                            set_states, synapse_devices, write_verify_device)
from synapsim.rram import RramParams, conductance, state_for_conductance


@pytest.fixture
def spec():
    return CrossbarSpec(n_inputs=3, n_outputs=1)


@pytest.fixture
def params():
    return RramParams()


def _sinh_read(params, g_plus, g_minus, v_in):
    """Independent read oracle: superposition of sinh branch currents."""
    v0 = params.v0
    scale = np.sinh(np.asarray(v_in) / v0) * v0
    return (g_plus - g_minus).T @ scale


def test_construction_element_counts(spec, params):
    c = build_crossbar(spec, params)
    rrams = [e for e in c.elements if isinstance(e, RramElement)]
    sources = [e for e in c.elements if isinstance(e, VSource)]
    assert len(rrams) == 2 * spec.n_inputs * spec.n_outputs     # 6 for 3x1
    # one word-line source per input, one bit-line clamp per column pair
    assert len(sources) == spec.n_inputs + 2 * spec.n_outputs


def test_symmetric_pair_reads_zero(spec, params):
    c = build_crossbar(spec, params, x_init=0.5)
    out = read_outputs(c, spec, np.array([0.1, 0.1, 0.1]))
    assert np.all(np.abs(out) < 1e-15)


def test_read_matches_sinh_superposition(spec, params, rng):
    c = build_crossbar(spec, params)
    for _ in range(25):
        xp = rng.uniform(0.0, 1.0, (3, 1))
        xm = rng.uniform(0.0, 1.0, (3, 1))
        v = rng.uniform(-0.1, 0.1, 3)
        set_states(c, spec, xp, xm)
        out = read_outputs(c, spec, v)
        want = _sinh_read(params, conductance(params, xp),
                          conductance(params, xm), v)
        np.testing.assert_allclose(out, want, rtol=1e-10, atol=1e-18)


def test_read_is_bilinear_in_small_signal(spec, params):
    # far below v0 the sinh is linear, so the output is sum (G+-G-) V
    c = build_crossbar(spec, params)
    xp = np.full((3, 1), 0.8)
    xm = np.full((3, 1), 0.3)
    set_states(c, spec, xp, xm)
    v = np.array([1e-4, 2e-4, -1e-4])
    out = read_outputs(c, spec, v)
    lin = (conductance(params, xp) - conductance(params, xm)).T @ v
    np.testing.assert_allclose(out, lin, rtol=1e-3)


def test_swapping_planes_negates_output(spec, params, rng):
    c = build_crossbar(spec, params)
    xp = rng.uniform(0, 1, (3, 1))
    xm = rng.uniform(0, 1, (3, 1))
    v = np.array([0.1, 0.05, 0.08])
    set_states(c, spec, xp, xm)
    a = read_outputs(c, spec, v)
    set_states(c, spec, xm, xp)
    b = read_outputs(c, spec, v)
    np.testing.assert_allclose(a, -b, rtol=1e-12, atol=1e-20)


def test_synapse_device_names_are_unique():
    names = [synapse_devices(i, j) for i in range(4) for j in range(3)]
    flat = [n for pair in names for n in pair]
    assert len(flat) == len(set(flat))


def test_get_set_states_round_trip(spec, params, rng):
    c = build_crossbar(spec, params)
    xp = rng.uniform(0, 1, (3, 1))
    xm = rng.uniform(0, 1, (3, 1))
    set_states(c, spec, xp, xm)
    gp, gm = get_states(c, spec)
    np.testing.assert_allclose(gp, xp, atol=1e-15)
    np.testing.assert_allclose(gm, xm, atol=1e-15)


def test_program_rejects_out_of_range_targets(spec, params):
    c = build_crossbar(spec, params)
    g_plus = np.full((3, 1), params.g_on * 2.0)       # above device range
    g_minus = np.full((3, 1), params.g_off)
    with pytest.raises(ValueError):
        program_weights(c, spec, g_plus, g_minus, TrainConfig())


def test_write_verify_reaches_tolerance(params):
    cfg = TrainConfig()
    for g_target in (2e-5, 1e-4, 6e-4):
        report, x = write_verify_device(params, 0.0, g_target, cfg)
        assert report.converged
        assert abs(report.g_achieved - g_target) <= cfg.write_tol
        assert abs(conductance(params, x) - g_target) <= cfg.write_tol


def test_write_verify_zero_pulses_when_in_tolerance(params):
    cfg = TrainConfig()
    g0 = conductance(params, 0.4)
    report, x = write_verify_device(params, 0.4, g0, cfg)
    assert report.pulses == 0
    assert x == pytest.approx(0.4)


@settings(max_examples=15, deadline=None)
@given(x0=st.floats(0.05, 0.95), frac=st.floats(0.05, 0.95))
# a step shorter than min_width: a clipped full-amplitude pulse overshoots
# and the loop swings around the target
@example(x0=0.5, frac=0.53125)
def test_write_verify_progress_property(x0, frac):
    # closed-loop error after programming is never worse than the open start
    params = RramParams()
    cfg = TrainConfig()
    g_target = conductance(params, frac)
    report, _ = write_verify_device(params, x0, g_target, cfg)
    start_err = abs(conductance(params, x0) - g_target)
    end_err = abs(report.g_achieved - g_target)
    assert end_err <= max(start_err, cfg.write_tol)


def test_program_weights_full_array(spec, params, rng):
    c = build_crossbar(spec, params, x_init=0.0)
    w = rng.uniform(0.2, 0.9, (3, 1))
    span = params.g_on - params.g_off
    g_plus = params.g_off + w * span
    g_minus = np.full((3, 1), params.g_off)
    report = program_weights(c, spec, g_plus, g_minus, TrainConfig())
    assert all(d.converged for d in report.devices)
    gp, gm = get_states(c, spec)
    got = conductance(params, gp)
    np.testing.assert_allclose(got, g_plus, atol=TrainConfig().write_tol)


def test_state_for_conductance_inverts_conductance(params, rng):
    x = rng.uniform(0, 1, 32)
    g = conductance(params, x)
    np.testing.assert_allclose(state_for_conductance(params, g), x,
                               atol=1e-12)


def test_1t1r_scheme_programs_small_array(params, monkeypatch):
    spec = CrossbarSpec(n_inputs=2, n_outputs=1, scheme="1t1r")
    span = params.g_on - params.g_off
    g_plus = params.g_off + np.array([[0.45], [0.7]]) * span
    g_minus = np.full((2, 1), params.g_off)
    cfg = TrainConfig(write_tol=2e-5)

    def program():
        c = build_crossbar(spec, params, x_init=0.0)
        report = program_weights(c, spec, g_plus, g_minus, cfg)
        assert all(d.converged for d in report.devices)
        assert [d.pulses for d in report.devices] == [1, 0, 1, 0]
        gp, _ = get_states(c, spec)
        np.testing.assert_allclose(conductance(params, gp), g_plus,
                                   atol=cfg.write_tol)

    program()
    # a second array with the same parameters reuses the compliance map,
    # so no calibration SET transient runs
    calls = []
    set_batch = crossbar._set_1t1r_batch

    def counting_set_batch(*args, **kw):
        calls.append(args)
        return set_batch(*args, **kw)

    monkeypatch.setattr(crossbar, "_set_1t1r_batch", counting_set_batch)
    program()
    assert calls == []


@pytest.mark.parametrize("scheme, shape", [("crossbar", (4, 2)),
                                           ("1t1r", (2, 1))])
def test_program_rounds_equal_the_per_device_loop(scheme, shape, params):
    # programming in rounds pulses several devices in one lockstep
    # transient; each device must end exactly as if verified alone
    rng = np.random.default_rng(11)
    spec = CrossbarSpec(*shape, scheme=scheme)
    cfg = TrainConfig(write_tol=2e-5) if scheme == "1t1r" else TrainConfig()
    span = params.g_on - params.g_off
    g_plus = params.g_off + rng.uniform(0.1, 0.9, shape) * span
    g_minus = params.g_off + rng.uniform(0.0, 0.5, shape) * span
    c = build_crossbar(spec, params, x_init=0.0)
    set_states(c, spec, rng.uniform(0.0, 0.6, shape),
               rng.uniform(0.0, 0.6, shape))
    start = dict(c.state)
    report = program_weights(c, spec, g_plus, g_minus, cfg)
    # the first round pulses more than one device
    assert sum(d.pulses > 0 for d in report.devices) > 1

    ceilings = crossbar._gate_calibration(params)
    for dev in report.devices:
        i, j = (int(k) for k in dev.name[2:].split("_"))
        target = float((g_plus if dev.name[1] == "p" else g_minus)[i, j])
        x0 = start[dev.name]
        if scheme == "1t1r":
            loop = crossbar._write_verify_1t1r(params, x0, target, cfg,
                                               ceilings)
            alone, x = crossbar._in_rounds([loop])[0]
        else:
            alone, x = write_verify_device(params, x0, target, cfg)
        alone.name = dev.name
        assert dev == alone
        assert c.state[dev.name] == x


def test_1t1r_verify_resets_and_raises_the_lower_bracket(params):
    # from x = 0.9 both devices start above their targets: the loop
    # RESETs, and a SET that stays below the target moves the gate
    # bracket's lower end up
    spec = CrossbarSpec(1, 1, scheme="1t1r")
    cfg = TrainConfig()
    targets = (2e-4, 5e-5)
    c = build_crossbar(spec, params, x_init=0.9)
    report = program_weights(c, spec, *targets, cfg)
    assert [(d.pulses, d.converged) for d in report.devices] == [
        (3, True), (2, True)]
    ceilings = crossbar._gate_calibration(params)
    for dev, target in zip(report.devices, targets):
        loop = crossbar._write_verify_1t1r(params, 0.9, target, cfg,
                                           ceilings)
        alone, x = crossbar._in_rounds([loop])[0]
        alone.name = dev.name
        assert dev == alone
        assert c.state[dev.name] == x


@pytest.mark.parametrize("x0, x1, amplitude, lowered", [
    (0.2, 0.7, 0.6, False),         # SET
    (0.7, 0.2, -0.6, False),        # RESET
    (0.5, 0.5 + 1e-6, 1.0, True)])  # too short a move at this amplitude
def test_pulse_lands_on_target_at_window_exponent_one(x0, x1, amplitude,
                                                      lowered):
    # at p = 1 the rate law dX/dt = k sinh(V/v_c) * base is linear in
    # the window's base (1 - X for SET, X for RESET), which decays as
    # exp(-k sinh(|V|/v_c) t)
    p = RramParams(p=1.0)
    lo, hi = 1e-9, 1e-3
    amp, width = crossbar._pulse(p, x0, x1, amplitude, lo, hi)
    assert (width == lo) == lowered
    assert (amp != amplitude) == lowered
    if amp > 0.0:
        k = p.k_set * np.sinh(amp / p.vc_set)
        x = 1.0 - (1.0 - x0) * np.exp(-k * width)
    else:
        k = p.k_reset * np.sinh(-amp / p.vc_reset)
        x = x0 * np.exp(-k * width)
    assert abs(x - x1) <= 1e-12 * x1


def test_rounds_run_one_cell_through_transient_and_more_in_one_batch(
        params, monkeypatch):
    # the benchmark's engine.tran boundary wraps synapsim.engine.transient:
    # a one-cell round must call it, and a round of several cells must
    # run as one transient_batch
    import synapsim.engine as engine

    calls = []
    transient, transient_batch = engine.transient, engine.transient_batch

    def counting_transient(circuit, spec):
        calls.append(("transient", 1))
        return transient(circuit, spec)

    def counting_batch(circuits, specs):
        calls.append(("transient_batch", len(circuits)))
        return transient_batch(circuits, specs)

    monkeypatch.setattr(engine, "transient", counting_transient)
    monkeypatch.setattr(engine, "transient_batch", counting_batch)
    spec = CrossbarSpec(n_inputs=2, n_outputs=1)
    span = params.g_on - params.g_off
    g_plus = params.g_off + np.array([[0.3], [0.6]]) * span
    g_minus = params.g_off + np.array([[0.5], [0.2]]) * span
    c = build_crossbar(spec, params, x_init=0.0)
    report = program_weights(c, spec, g_plus, g_minus, TrainConfig())
    # every device starts at x = 0 away from its target: one round of 4
    assert calls[0] == ("transient_batch", 4)
    assert all((name == "transient") == (n == 1) for name, n in calls)
    assert sum(n for _, n in calls) == report.total_pulses

    calls.clear()
    report, _ = write_verify_device(params, 0.0, params.g_off + 0.4 * span,
                                    TrainConfig())
    assert report.pulses >= 1
    assert calls == [("transient", 1)] * report.pulses
