"""Convolutional instrument classifier, implemented directly on numpy.

Two valid-padding convolution layers (ReLU + 2x2 max-pool after each)
feed one fully connected layer; softmax cross-entropy trains with plain
gradient descent at step size 0.01 and 50% inverted dropout on the FC
input.  Convolutions run as im2col matrix products; max-pool backward
routes each window's gradient to the first maximum, so tied cells never
double-count and inference is deterministic.

All arithmetic is float64; model files round to little-endian float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import CATEGORY_COUNT, Spectrogram
from .errors import DataError
from .framing import BinaryFormat


@dataclass(frozen=True)
class ClassifierConfig:
    input_shape: tuple[int, int] = (32, 32)
    conv1_filters: int = 16
    conv2_filters: int = 32
    kernel: int = 5
    classes: int = CATEGORY_COUNT
    dropout: float = 0.5
    learning_rate: float = 0.01
    batch_size: int = 32
    epochs: int = 30
    holdout_fraction: float = 0.1
    seed: int = 0


def _pooled(size: int, kernel: int) -> int:
    out = size - kernel + 1
    if out < 2 or out % 2:
        raise DataError(f"layer output size {out} does not pool by 2")
    return out // 2


def parameter_shapes(config: ClassifierConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in model-file order."""
    k, f1, f2 = config.kernel, config.conv1_filters, config.conv2_filters
    h = _pooled(_pooled(config.input_shape[0], k), k)
    w = _pooled(_pooled(config.input_shape[1], k), k)
    return {
        "kernels1": (f1, 1, k, k),
        "bias1": (f1,),
        "kernels2": (f2, f1, k, k),
        "bias2": (f2,),
        "weights": (f2 * h * w, config.classes),
        "bias": (config.classes,),
    }


class ConvClassifier:
    """Conv -> ReLU -> pool -> conv -> ReLU -> pool -> dropout -> dense."""

    def __init__(self, config: ClassifierConfig, rng: np.random.Generator | None = None):
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        shapes = parameter_shapes(config)
        self.flat_dim = shapes["weights"][0]
        for name, shape in shapes.items():
            if len(shape) == 1:
                setattr(self, name, np.zeros(shape))
            else:  # fan-in: channels * kernel area for a convolution, rows for the dense layer
                bound = 1.0 / np.sqrt(prod(shape[1:]) if len(shape) == 4 else shape[0])
                setattr(self, name, rng.uniform(-bound, bound, size=shape))

    @classmethod
    def from_arrays(cls, config: ClassifierConfig, arrays) -> "ConvClassifier":
        """A model holding the given parameters (in parameter_shapes order), no random init."""
        model = cls.__new__(cls)
        model.config = config
        for name, array in zip(parameter_shapes(config), arrays, strict=True):
            setattr(model, name, array)
        model.flat_dim = model.weights.shape[0]
        return model

    # -- layers ---------------------------------------------------------

    @staticmethod
    def _conv_forward(x, kernels, bias):
        n, c, h, w = x.shape
        f, _, kh, kw = kernels.shape
        oh, ow = h - kh + 1, w - kw + 1
        cols = sliding_window_view(x, (kh, kw), axis=(2, 3))
        cols = cols.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
        out = cols @ kernels.reshape(f, -1).T + bias
        return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2), cols

    @staticmethod
    def _conv_backward(dout, cols, kernels):
        """Kernel and bias gradients of a convolution."""
        dflat = dout.transpose(0, 2, 3, 1).reshape(-1, kernels.shape[0])
        return (dflat.T @ cols).reshape(kernels.shape), dflat.sum(axis=0)

    @staticmethod
    def _conv_input_grad(dout, x_shape, kernels):
        """Gradient of a convolution's input; the first layer's input is data and needs none."""
        n, c, h, w = x_shape
        f, _, kh, kw = kernels.shape
        oh, ow = h - kh + 1, w - kw + 1
        dflat = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
        dcols = (dflat @ kernels.reshape(f, -1)).reshape(n, oh, ow, c, kh, kw)
        dx = np.zeros(x_shape)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i : i + oh, j : j + ow] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        return dx

    @staticmethod
    def _pool_forward(x):
        n, f, h, w = x.shape
        windows = (
            x.reshape(n, f, h // 2, 2, w // 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, f, h // 2, w // 2, 4)
        )
        best = windows.argmax(axis=-1)
        return np.take_along_axis(windows, best[..., np.newaxis], axis=-1)[..., 0], best

    @staticmethod
    def _pool_backward(dout, best, x_shape):
        n, f, h, w = x_shape
        dwindows = np.zeros((n, f, h // 2, w // 2, 4))
        np.put_along_axis(dwindows, best[..., np.newaxis], dout[..., np.newaxis], axis=-1)
        return (
            dwindows.reshape(n, f, h // 2, w // 2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, f, h, w)
        )

    # -- full passes ------------------------------------------------------

    def forward(self, x, train: bool = False, rng: np.random.Generator | None = None):
        """Logits plus the cache the backward pass needs."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[np.newaxis]
        if x.shape[1:] != self.config.input_shape:
            raise DataError(
                f"expected {self.config.input_shape} spectrograms, got {x.shape[1:]}"
            )
        x = x[:, np.newaxis, :, :]

        z1, cols1 = self._conv_forward(x, self.kernels1, self.bias1)
        a1 = np.maximum(z1, 0.0)
        p1, best1 = self._pool_forward(a1)
        z2, cols2 = self._conv_forward(p1, self.kernels2, self.bias2)
        a2 = np.maximum(z2, 0.0)
        p2, best2 = self._pool_forward(a2)
        flat = p2.reshape(x.shape[0], self.flat_dim)

        if train and self.config.dropout > 0.0:
            if rng is None:
                raise DataError("training forward pass needs an RNG for dropout")
            keep = 1.0 - self.config.dropout
            mask = (rng.random(flat.shape) < keep) / keep
        else:
            mask = np.ones_like(flat)
        dropped = flat * mask

        logits = dropped @ self.weights + self.bias
        cache = (cols1, z1, best1, a1, p1, cols2, z2, best2, a2, p2, mask, dropped)
        return logits, cache

    def loss_and_gradients(self, x, targets, train: bool = True, rng=None):
        logits, cache = self.forward(x, train=train, rng=rng)
        (cols1, z1, best1, a1, p1, cols2, z2, best2, a2, p2, mask, dropped) = cache
        n = logits.shape[0]
        targets = np.asarray(targets, dtype=np.intp)

        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = -np.log(probs[np.arange(n), targets] + 1e-300).mean()

        dlogits = probs.copy()
        dlogits[np.arange(n), targets] -= 1.0
        dlogits /= n

        dweights = dropped.T @ dlogits
        dbias = dlogits.sum(axis=0)
        dflat = (dlogits @ self.weights.T) * mask

        dp2 = dflat.reshape(p2.shape)
        da2 = self._pool_backward(dp2, best2, a2.shape)
        dz2 = da2 * (z2 > 0.0)
        dkernels2, dbias2 = self._conv_backward(dz2, cols2, self.kernels2)
        dp1 = self._conv_input_grad(dz2, p1.shape, self.kernels2)
        da1 = self._pool_backward(dp1, best1, a1.shape)
        dz1 = da1 * (z1 > 0.0)
        dkernels1, dbias1 = self._conv_backward(dz1, cols1, self.kernels1)

        grads = {
            "kernels1": dkernels1,
            "bias1": dbias1,
            "kernels2": dkernels2,
            "bias2": dbias2,
            "weights": dweights,
            "bias": dbias,
        }
        return loss, grads

    def step(self, grads, learning_rate: float) -> None:
        for name, grad in grads.items():
            param = getattr(self, name)
            param -= learning_rate * grad

    def predict(self, x) -> np.ndarray:
        logits, _ = self.forward(x, train=False)
        return logits.argmax(axis=1)

    def parameters(self):
        return {
            "kernels1": self.kernels1,
            "bias1": self.bias1,
            "kernels2": self.kernels2,
            "bias2": self.bias2,
            "weights": self.weights,
            "bias": self.bias,
        }


@dataclass
class ClassifierReport:
    holdout_accuracy: float
    train_losses: list[float] = field(default_factory=list)
    holdout_size: int = 0


def _spectrogram_array(item) -> np.ndarray:
    return item.values if isinstance(item, Spectrogram) else np.asarray(item, dtype=np.float64)


def train_classifier(corpus, config: ClassifierConfig = ClassifierConfig()):
    """Train on (Spectrogram, label) pairs; returns (model, report).

    A seeded 10% holdout measures accuracy; the corpus must be large
    enough that both partitions are non-empty.
    """
    if not corpus:
        raise DataError("classifier corpus is empty")
    inputs = np.stack([_spectrogram_array(spec) for spec, _ in corpus])
    labels = np.asarray(
        [label.index if hasattr(label, "index") else int(label) for _, label in corpus],
        dtype=np.intp,
    )
    if labels.min() < 0 or labels.max() >= config.classes:
        raise DataError(f"label index outside 0..{config.classes - 1}")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(corpus))
    holdout_count = int(len(corpus) * config.holdout_fraction)
    if holdout_count == 0 or holdout_count == len(corpus):
        raise DataError(
            f"corpus of {len(corpus)} samples cannot support a "
            f"{config.holdout_fraction:.0%} holdout split"
        )
    holdout, train = order[:holdout_count], order[holdout_count:]

    model = ConvClassifier(config, rng)
    losses = []
    for _ in range(config.epochs):
        epoch_order = train[rng.permutation(len(train))]
        epoch_loss = 0.0
        for start in range(0, len(epoch_order), config.batch_size):
            batch = epoch_order[start : start + config.batch_size]
            loss, grads = model.loss_and_gradients(
                inputs[batch], labels[batch], train=True, rng=rng
            )
            model.step(grads, config.learning_rate)
            epoch_loss += loss * len(batch)
        losses.append(epoch_loss / len(train))

    predictions = model.predict(inputs[holdout])
    accuracy = float((predictions == labels[holdout]).mean())
    return model, ClassifierReport(accuracy, losses, holdout_count)


def classify_sample(model: ConvClassifier, spec) -> int:
    """Category index for one fingerprint (dropout off, deterministic)."""
    return int(model.predict(_spectrogram_array(spec)[np.newaxis])[0])


# ---------------------------------------------------------------------------
# Model file: magic, version, config header, float32 parameters
# ---------------------------------------------------------------------------

# version, h, w, conv1 filters, conv2 filters, kernel, classes, dropout, seed
CLASSIFIER_FORMAT = BinaryFormat(b"KSGC", 1, "IIIIIIdQ", "classifier file")


def save_classifier(path: str | Path, model: ConvClassifier) -> None:
    c = model.config
    fields = (*c.input_shape, c.conv1_filters, c.conv2_filters, c.kernel, c.classes)
    CLASSIFIER_FORMAT.write(path, fields + (c.dropout, c.seed), model.parameters().values())


def load_classifier(path: str | Path) -> ConvClassifier:
    (h, w, f1, f2, kernel, classes, dropout, seed), _, payload = CLASSIFIER_FORMAT.read(path)
    if not 1 <= classes <= CATEGORY_COUNT:
        raise DataError(f"{path}: class count {classes} outside 1..{CATEGORY_COUNT}")
    config = ClassifierConfig(
        input_shape=(h, w),
        conv1_filters=f1,
        conv2_filters=f2,
        kernel=kernel,
        classes=classes,
        dropout=dropout,
        seed=seed,
    )
    shapes = parameter_shapes(config).values()
    return ConvClassifier.from_arrays(config, CLASSIFIER_FORMAT.arrays(path, payload, shapes))
