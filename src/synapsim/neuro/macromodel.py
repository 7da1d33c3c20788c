"""Device-constrained MLP trainer for system-scale experiments.

Pure software by design: circuit-level simulation stops being viable a
few orders of magnitude below these synapse counts, so each weight is
abstracted as a differential pair of quantized conductance levels.  A
device with L levels contributes one of L evenly spaced conductances,
and the pair difference realizes 2L-1 signed weight levels across
[-w_max, +w_max] per layer; continuous mode (levels=None) is the ideal
baseline.  Updates are round-to-nearest-level after each applied
gradient step; biases stay continuous (they live in peripheral
circuitry, not in the array).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional

import numpy as np

__all__ = ["MacromodelConfig", "TrainReport", "quantize_levels",
           "synapse_audit", "init_layers", "loss_and_grads",
           "train_macromodel"]


def _whole(value, least: int) -> bool:
    """Whether value is an integer (not a bool) of at least ``least``."""
    return (isinstance(value, Integral) and not isinstance(value, bool)
            and value >= least)


@dataclass(frozen=True)
class MacromodelConfig:
    layer_sizes: tuple[int, ...] = (784, 64, 10)
    levels: Optional[int] = None      # None: continuous ideal weights
    w_max_mult: float = 4.0           # weight range, in init-sigma units
    batch_size: int = 32
    epochs: int = 5
    lr: float = 0.1
    seed: int = 42

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        if not all(_whole(n, 1) for n in self.layer_sizes):
            raise ValueError("layer_sizes must be whole numbers >= 1")
        if self.levels is not None and not _whole(self.levels, 2):
            raise ValueError("levels must be a whole number >= 2 "
                             "(conductance levels per device)")
        if self.batch_size < 1 or self.epochs < 1 or self.lr <= 0.0:
            raise ValueError("invalid batch size, epochs, or lr")
        if self.w_max_mult <= 0.0:
            raise ValueError("w_max_mult must be positive")


@dataclass
class TrainReport:
    mode: str
    epoch_loss: list = field(default_factory=list)
    epoch_train_acc: list = field(default_factory=list)
    epoch_test_acc: list = field(default_factory=list)
    confusion: np.ndarray = None

    @property
    def final_test_acc(self) -> float:
        return self.epoch_test_acc[-1] if self.epoch_test_acc else 0.0


def synapse_audit(layer_sizes) -> dict:
    """Exact element counts for a fully-connected topology."""
    sizes = list(layer_sizes)
    weights = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    biases = sum(sizes[1:])
    return {"weights": weights, "biases": biases,
            "total": weights + biases}


def quantize_levels(w, w_max: float, levels: int):
    """Round to the 2*levels-1 level grid of a differential pair.

    The grid is symmetric about 0 with step w_max/(levels-1); values
    beyond full scale clip to +-w_max.
    """
    step = w_max / (levels - 1)
    return np.clip(np.round(np.asarray(w) / step) * step, -w_max, w_max)


def init_layers(cfg: MacromodelConfig, rng: np.random.Generator):
    """He-scaled gaussian weights (quantized if configured), zero biases.

    Returns (weights, biases, w_maxes); w_maxes fixes each layer's full
    scale at cfg.w_max_mult times its init sigma.
    """
    weights, biases, w_maxes = [], [], []
    for fan_in, fan_out in zip(cfg.layer_sizes[:-1], cfg.layer_sizes[1:]):
        sigma = np.sqrt(2.0 / fan_in)
        w = rng.standard_normal((fan_in, fan_out)) * sigma
        w_max = cfg.w_max_mult * sigma
        if cfg.levels is not None:
            w = quantize_levels(w, w_max, cfg.levels)
        weights.append(w)
        biases.append(np.zeros(fan_out))
        w_maxes.append(w_max)
    return weights, biases, w_maxes


def _forward(weights, biases, x):
    """ReLU hidden layers, linear output; returns logits and layer inputs."""
    acts = [x]
    h = x
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = z if k == len(weights) - 1 else np.maximum(z, 0.0)
        acts.append(h)
    return acts


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads(weights, biases, x, y_onehot):
    """Mean cross-entropy over the batch and its exact gradients."""
    acts = _forward(weights, biases, x)
    probs = _softmax(acts[-1])
    n = x.shape[0]
    eps = 1e-12
    loss = -np.mean(np.sum(y_onehot * np.log(probs + eps), axis=1))

    d_w, d_b = [None] * len(weights), [None] * len(biases)
    delta = (probs - y_onehot) / n
    for k in range(len(weights) - 1, -1, -1):
        d_w[k] = acts[k].T @ delta
        d_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ weights[k].T) * (acts[k] > 0.0)
    return loss, d_w, d_b


def _predict(weights, biases, x) -> np.ndarray:
    return np.argmax(_forward(weights, biases, x)[-1], axis=1)


def _accuracy(weights, biases, x, labels) -> float:
    return float(np.mean(_predict(weights, biases, x) == labels))


def train_macromodel(cfg: MacromodelConfig, train, test) -> TrainReport:
    """Minibatch SGD with per-epoch reporting.

    ``train``/``test`` are MnistData-like (``flat_images()`` in [0, 1]
    plus integer ``labels``).  The same seed reproduces the entire
    trajectory bit for bit: shuffling, init, and batch reduction order
    are all fixed.
    """
    rng = np.random.default_rng(cfg.seed)
    weights, biases, w_maxes = init_layers(cfg, rng)
    n_out = cfg.layer_sizes[-1]

    x_train = train.flat_images()
    y_train = np.asarray(train.labels, dtype=np.int64)
    x_test = test.flat_images()
    y_test = np.asarray(test.labels, dtype=np.int64)
    if x_train.shape[1] != cfg.layer_sizes[0]:
        raise ValueError(
            f"dataset is {x_train.shape[1]}-dimensional but the input "
            f"layer expects {cfg.layer_sizes[0]}")
    eye = np.eye(n_out)

    mode = "continuous" if cfg.levels is None else f"quantized-{cfg.levels}"
    report = TrainReport(mode=mode)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x_train))
        losses = []
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            loss, d_w, d_b = loss_and_grads(weights, biases,
                                            x_train[idx], eye[y_train[idx]])
            losses.append(loss)
            for k in range(len(weights)):
                w_new = weights[k] - cfg.lr * d_w[k]
                if cfg.levels is not None:
                    w_new = quantize_levels(w_new, w_maxes[k], cfg.levels)
                weights[k] = w_new
                biases[k] = biases[k] - cfg.lr * d_b[k]
        report.epoch_loss.append(float(np.mean(losses)))
        report.epoch_train_acc.append(_accuracy(weights, biases,
                                                x_train, y_train))
        report.epoch_test_acc.append(_accuracy(weights, biases,
                                               x_test, y_test))

    pred = _predict(weights, biases, x_test)
    confusion = np.zeros((n_out, n_out), dtype=np.int64)
    np.add.at(confusion, (y_test, pred), 1)
    report.confusion = confusion
    return report
