"""MLP macromodel: audit, gradients, determinism, weight quantization."""

import dataclasses

import numpy as np
import pytest

from synapsim.neuro import (MacromodelConfig, MnistData, quantize_levels,
                            synapse_audit, train_macromodel)
from synapsim.neuro.macromodel import init_layers, loss_and_grads


def _blob_task(seed=7, n_train=900, n_test=300, dim=36, classes=3,
               sep=2.0, noise=0.8):
    """Gaussian clusters rendered into byte images; sep/noise set difficulty."""
    rng = np.random.default_rng(seed)
    means = sep * rng.normal(0.0, 1.0, (classes, dim))

    def make(n):
        y = rng.integers(0, classes, n)
        x = means[y] + rng.normal(0.0, noise, (n, dim))
        img = np.clip((x + 8.0) / 16.0 * 255.0, 0, 255).astype(np.uint8)
        return MnistData(images=img.reshape(n, 6, 6),
                         labels=y.astype(np.uint8))

    return make(n_train), make(n_test)


_CFG = MacromodelConfig(layer_sizes=(36, 16, 3), epochs=6, lr=0.2,
                        batch_size=32, seed=11)


def test_synapse_audit_paper_stack():
    audit = synapse_audit((784, 1000, 125, 10))
    assert audit["weights"] == 784 * 1000 + 1000 * 125 + 125 * 10
    assert audit["biases"] == 1000 + 125 + 10
    assert audit["total"] == 911385


def test_synapse_audit_small():
    audit = synapse_audit((784, 64, 10))
    assert audit["total"] == 784 * 64 + 64 * 10 + 64 + 10


def test_gradients_match_finite_differences(rng):
    cfg = MacromodelConfig(layer_sizes=(4, 3, 2), seed=3)
    weights, biases, _ = init_layers(cfg, np.random.default_rng(3))
    x = rng.normal(0.0, 1.0, (5, 4))
    y = np.zeros((5, 2))
    y[np.arange(5), rng.integers(0, 2, 5)] = 1.0
    loss, d_w, d_b = loss_and_grads(weights, biases, x, y)
    eps = 1e-6
    worst = 0.0
    for li in range(len(weights)):
        for idx in ((0, 0), (1, 1), (weights[li].shape[0] - 1,
                                     weights[li].shape[1] - 1)):
            w0 = weights[li][idx]
            weights[li][idx] = w0 + eps
            lp = loss_and_grads(weights, biases, x, y)[0]
            weights[li][idx] = w0 - eps
            lm = loss_and_grads(weights, biases, x, y)[0]
            weights[li][idx] = w0
            num = (lp - lm) / (2 * eps)
            worst = max(worst, abs(num - d_w[li][idx]) / max(abs(num), 1e-12))
    assert worst < 1e-4


def test_training_is_deterministic():
    train, test = _blob_task()
    r1 = train_macromodel(_CFG, train, test)
    r2 = train_macromodel(_CFG, train, test)
    np.testing.assert_array_equal(r1.epoch_loss, r2.epoch_loss)
    np.testing.assert_array_equal(r1.confusion, r2.confusion)
    assert r1.final_test_acc == r2.final_test_acc


def test_continuous_training_learns_blobs():
    train, test = _blob_task()
    report = train_macromodel(_CFG, train, test)
    assert report.mode == "continuous"
    assert report.final_test_acc > 0.9
    assert report.epoch_loss[-1] < report.epoch_loss[0]
    assert report.confusion.sum() == len(test)


def test_quantized_64_tracks_continuous():
    # moderate separation: continuous reaches ~1.0 without saturating the
    # update path, so grid rounding is actually exercised
    train, test = _blob_task(sep=1.2, noise=1.0)
    base = train_macromodel(_CFG, train, test)
    quant = train_macromodel(dataclasses.replace(_CFG, levels=64),
                             train, test)
    assert quant.mode == "quantized-64"
    assert base.final_test_acc > 0.9
    assert abs(quant.final_test_acc - base.final_test_acc) <= 0.03


def test_binary_quantization_degrades():
    train, test = _blob_task(sep=1.2, noise=1.0)
    base = train_macromodel(_CFG, train, test)
    coarse = train_macromodel(dataclasses.replace(_CFG, levels=2),
                              train, test)
    assert coarse.final_test_acc < base.final_test_acc - 0.2


def test_quantize_levels_grid_properties(rng):
    w_max, levels = 0.8, 9
    step = w_max / (levels - 1)
    w = rng.uniform(-2.0, 2.0, 500)
    q = quantize_levels(w, w_max, levels)
    assert np.all(np.abs(q) <= w_max + 1e-15)
    # values sit on the signed grid of 2*levels - 1 points
    on_grid = np.round(q / step)
    np.testing.assert_allclose(q, on_grid * step, atol=1e-15)
    assert np.unique(q).size <= 2 * levels - 1
    # round-to-nearest inside the clip range
    inside = np.abs(w) <= w_max
    assert np.all(np.abs(q[inside] - w[inside]) <= step / 2 + 1e-15)
    # idempotent
    np.testing.assert_array_equal(quantize_levels(q, w_max, levels), q)


def test_quantize_preserves_zero_and_sign(rng):
    w = rng.uniform(-1.0, 1.0, 200)
    q = quantize_levels(w, 1.0, 17)
    assert quantize_levels(np.zeros(3), 1.0, 17).tolist() == [0, 0, 0]
    nonzero = q != 0
    assert np.all(np.sign(q[nonzero]) == np.sign(w[nonzero]))


def test_init_layers_shapes_and_caps():
    cfg = MacromodelConfig(layer_sizes=(36, 16, 3), w_max_mult=4.0, seed=0)
    weights, biases, w_maxes = init_layers(cfg, np.random.default_rng(0))
    assert [w.shape for w in weights] == [(36, 16), (16, 3)]
    assert [b.shape for b in biases] == [(16,), (3,)]
    for w, cap, fan_in in zip(weights, w_maxes, (36, 16)):
        assert cap == pytest.approx(4.0 * np.sqrt(2.0 / fan_in))
        assert np.max(np.abs(w)) <= cap


def test_config_validation():
    with pytest.raises(ValueError):
        MacromodelConfig(layer_sizes=(784,))
    with pytest.raises(ValueError):
        MacromodelConfig(levels=1)
    with pytest.raises(ValueError):
        MacromodelConfig(epochs=0)


@pytest.mark.parametrize("kw, field", [
    ({"layer_sizes": (16, 8.5, 10)}, "layer_sizes"),
    ({"layer_sizes": (16, 0, 10)}, "layer_sizes"),
    ({"layer_sizes": (16, True, 10)}, "layer_sizes"),
    ({"levels": 2.5}, "levels"),
    ({"levels": 64.0}, "levels"),
    ({"levels": 1}, "levels")])
def test_config_takes_whole_numbers_only(kw, field):
    with pytest.raises(ValueError, match=field):
        MacromodelConfig(**kw)


def test_default_and_numpy_integer_configs_pass():
    MacromodelConfig()
    cfg = MacromodelConfig(layer_sizes=tuple(np.array([16, 8, 10])),
                           levels=np.int64(2))
    assert cfg.levels == 2


def test_input_dimension_mismatch_rejected():
    train, test = _blob_task()
    bad = dataclasses.replace(_CFG, layer_sizes=(40, 8, 3))
    with pytest.raises(ValueError):
        train_macromodel(bad, train, test)
