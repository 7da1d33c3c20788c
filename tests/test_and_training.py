"""Device-in-the-loop AND-gate training and its software twin."""

import pickle

import numpy as np
import pytest

from synapsim.neuro import (CrossbarSpec, TrainConfig, build_crossbar,
                            read_outputs, train_and_gate,
                            train_and_gate_software)
from synapsim.rram import RramParams

TARGETS = np.array([0.0, 0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def device_result():
    return train_and_gate()


@pytest.fixture(scope="module")
def software_result():
    return train_and_gate_software()


def test_device_learns_and_within_budget(device_result):
    r = device_result
    assert r.n_correct == 4
    assert r.epochs_used <= 200


def test_device_activations_separate_classes(device_result):
    acts = device_result.activations
    assert np.all(acts[:3] < 0.5) and acts[3] > 0.5
    assert np.min(np.abs(acts - 0.5)) >= TrainConfig().margin


def test_software_twin_learns_and(software_result):
    r = software_result
    assert r.n_correct == 4
    assert r.epochs_used <= 200


def test_device_and_software_weights_agree_in_sign(device_result,
                                                   software_result):
    wd, ws = device_result.weights, software_result.weights
    assert wd.shape == ws.shape
    assert np.all(np.sign(wd) == np.sign(ws))
    corr = np.corrcoef(wd.ravel(), ws.ravel())[0, 1]
    assert corr > 0.99


def test_and_weights_structure(device_result):
    # both inputs pull up, the always-on bias pulls down
    w = device_result.weights.ravel()
    assert w[0] > 0 and w[1] > 0 and w[2] < 0


def test_history_epochs_match_report(device_result):
    assert len(device_result.history) == device_result.epochs_used


@pytest.mark.parametrize("which,epochs,history,weights", [
    ("device", 7, [3, 3, 3, 3, 3, 4, 4],
     (0.2226469045529436, 0.1988922811780313, -0.38845576841800483)),
    ("software", 8, [3, 3, 3, 3, 3, 3, 4, 4],
     (0.2544781629911104, 0.22930106166240166, -0.42620469696210567)),
], ids=["device", "software"])
def test_and_results_are_pinned(request, which, epochs, history, weights):
    # the device run and its software twin share one training loop; a
    # change to that loop must not move either result
    r = request.getfixturevalue(f"{which}_result")
    assert r.n_correct == 4
    assert r.epochs_used == epochs
    assert r.history == history
    np.testing.assert_allclose(r.weights, weights, rtol=1e-12, atol=0)


def test_device_result_round_trips_through_pickle(device_result):
    r = device_result
    copy = pickle.loads(pickle.dumps(r))
    assert (copy.n_correct, copy.epochs_used, copy.history) == (
        r.n_correct, r.epochs_used, r.history)
    assert copy.weights.tobytes() == r.weights.tobytes()
    assert copy.activations.tobytes() == r.activations.tobytes()
    assert copy.circuit.state == r.circuit.state
    spec, feats = CrossbarSpec(n_inputs=3, n_outputs=1), np.array([1, 1, 1])
    assert (read_outputs(copy.circuit, spec, 0.1 * feats).tobytes()
            == read_outputs(r.circuit, spec, 0.1 * feats).tobytes())


def test_untrained_crossbar_misclassifies_only_and_pattern():
    # fresh array: both planes at g_off -> zero differential output for
    # every pattern -> activation at the sigmoid midpoint -> the strict
    # threshold yields class 0 everywhere, so 3/4 before any training
    spec = CrossbarSpec(n_inputs=3, n_outputs=1)
    params = RramParams()
    c = build_crossbar(spec, params, x_init=0.0)
    outs = np.array([read_outputs(c, spec, 0.1 * np.array([a, b, 1.0]))[0]
                     for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))])
    assert np.all(np.abs(outs) < 1e-15)
    preds = (outs > 0.0).astype(float)          # midpoint -> class 0
    assert np.sum(preds == TARGETS) == 3
