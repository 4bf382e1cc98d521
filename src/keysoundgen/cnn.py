"""Convolutional instrument classifier, implemented directly on numpy.

Two valid-padding convolution layers (ReLU + 2x2 max-pool after each)
feed one fully connected layer; softmax cross-entropy trains with the
minibatch loop of sgd.py at step size 0.01 and 50% inverted dropout on the
FC input.  Activations stay channel-last (n, h, w, c) up to the dense layer's
(c, h, w) flatten; convolutions are im2col products over (c, kh, kw).
Max-pool takes each window's first maximum in row-major order, NaN
counting as the maximum as in np.argmax, and backward routes the whole
gradient there, so tied cells never double-count and inference is
deterministic.  ReLU runs after the pool (both are monotone).

All arithmetic is float64; model files round to little-endian float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import isfinite, prod
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import CATEGORY_COUNT, Spectrogram
from .errors import DataError
from .framing import BinaryFormat
from .sgd import sgd_epoch


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

    def __post_init__(self):
        for name in ("conv1_filters", "conv2_filters", "kernel", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise DataError(f"classifier {name} must be at least 1, got {getattr(self, name)}")
        if not 1 <= self.classes <= CATEGORY_COUNT:
            raise DataError(f"classifier class count {self.classes} outside 1..{CATEGORY_COUNT}")
        if not 0 <= self.dropout < 1:
            raise DataError(f"classifier dropout must be in [0, 1), got {self.dropout}")
        if not (isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DataError(
                f"classifier learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if not 0 < self.holdout_fraction < 1:
            raise DataError(
                f"classifier holdout_fraction must be in (0, 1), got {self.holdout_fraction}"
            )
        if not 0 <= self.seed < 2**64:
            raise DataError(f"classifier seed must be in [0, 2**64), got {self.seed}")


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

    # -- layers (channel-last) -------------------------------------------

    @staticmethod
    def _conv_forward(x, kernels, bias):
        n, h, w, c = x.shape
        f, _, kh, kw = kernels.shape
        oh, ow = h - kh + 1, w - kw + 1
        # windows come out (n, oh, ow, c, kh, kw): one row per pixel, columns in kernel order
        cols = sliding_window_view(x, (kh, kw), axis=(1, 2)).reshape(n * oh * ow, c * kh * kw)
        out = cols @ kernels.reshape(f, -1).T + bias
        return out.reshape(n, oh, ow, f), cols

    @staticmethod
    def _conv_backward(dout, cols, kernels):
        """Kernel and bias gradients of a convolution."""
        dflat = dout.reshape(-1, kernels.shape[0])
        return (dflat.T @ cols).reshape(kernels.shape), dflat.sum(axis=0)

    @staticmethod
    def _conv_input_grad(dout, x_shape, kernels):
        """Gradient of a convolution's input; the first layer's input is data and needs none."""
        n, h, w, c = x_shape
        f, _, kh, kw = kernels.shape
        oh, ow = h - kh + 1, w - kw + 1
        # kernel columns permuted to (ki, kj, c), so each offset's block is channel-contiguous
        by_offset = kernels.transpose(0, 2, 3, 1).reshape(f, -1)
        dcols = (dout.reshape(-1, f) @ by_offset).reshape(n, oh, ow, kh, kw, c)
        dx = np.zeros(x_shape)
        for i in range(kh):
            for j in range(kw):
                dx[:, i : i + oh, j : j + ow] += dcols[:, :, :, i, j]
        return dx

    @staticmethod
    def _pool_forward(x):
        """2x2 window maxima and each window's first-maximum index (0..3, row-major)."""
        n, h, w, f = x.shape
        cells = x.reshape(n, h // 2, 2, w // 2, 2, f).transpose(2, 4, 0, 1, 3, 5)
        cells = cells.reshape(4, n, h // 2, w // 2, f)
        pooled = np.maximum.reduce(cells)
        miss = (cells != pooled) & (cells == cells)
        # 0 if cell 0 is the maximum (or NaN), else 1 + (0 if cell 1 is, else 1 + ...)
        best = miss[0] * (1 + miss[1] * (1 + miss[2].view(np.int8)))
        return pooled, best

    @staticmethod
    def _pool_backward(dout, best):
        n, h, w, f = dout.shape
        dx = np.empty((n, h, 2, w, 2, f))
        for k in range(4):
            np.multiply(dout, best == k, out=dx[:, :, k // 2, :, k % 2])
        return dx.reshape(n, 2 * h, 2 * w, f)

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
        x = x[..., np.newaxis]

        z1, cols1 = self._conv_forward(x, self.kernels1, self.bias1)
        pooled1, best1 = self._pool_forward(z1)
        p1 = np.maximum(pooled1, 0.0)
        z2, cols2 = self._conv_forward(p1, self.kernels2, self.bias2)
        pooled2, best2 = self._pool_forward(z2)
        p2 = np.maximum(pooled2, 0.0)
        # (c, h, w) order for the dense layer, the row order of `weights`
        flat = p2.transpose(0, 3, 1, 2).reshape(x.shape[0], self.flat_dim)

        if train and self.config.dropout > 0.0:
            if rng is None:
                raise DataError("training forward pass needs an RNG for dropout")
            keep = 1.0 - self.config.dropout
            mask = (rng.random(flat.shape) < keep) / keep
        else:
            mask = np.ones_like(flat)
        dropped = flat * mask

        logits = dropped @ self.weights + self.bias
        cache = (cols1, best1, p1, cols2, best2, p2, mask, dropped)
        return logits, cache

    def loss_and_gradients(self, x, targets, train: bool = True, rng=None):
        logits, cache = self.forward(x, train=train, rng=rng)
        (cols1, best1, p1, cols2, best2, p2, mask, dropped) = cache
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

        # ReLU masks at pooled size: only a window's maximum gets gradient, and it is positive
        # exactly when the pooled value is
        _, h2, w2, f2 = p2.shape
        dp2 = dflat.reshape(n, f2, h2, w2).transpose(0, 2, 3, 1) * (p2 > 0.0)
        dz2 = self._pool_backward(dp2, best2)
        dkernels2, dbias2 = self._conv_backward(dz2, cols2, self.kernels2)
        dp1 = self._conv_input_grad(dz2, p1.shape, self.kernels2) * (p1 > 0.0)
        dz1 = self._pool_backward(dp1, best1)
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

    def predict(self, x) -> np.ndarray:
        logits, _ = self.forward(x, train=False)
        return logits.argmax(axis=1)

    def parameters(self) -> dict[str, np.ndarray]:
        """Name -> array of every parameter, in model-file order."""
        return {name: getattr(self, name) for name in parameter_shapes(self.config)}


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
    params = model.parameters()
    # each epoch's permutation is drawn before its dropout masks, from the same rng
    step = partial(model.loss_and_gradients, train=True, rng=rng)
    losses = []
    for _ in range(config.epochs):
        order = train[rng.permutation(len(train))]
        losses.append(
            sgd_epoch(params, inputs, labels, order, config.batch_size, config.learning_rate, step)
        )

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
    try:
        config = ClassifierConfig(
            input_shape=(h, w),
            conv1_filters=f1,
            conv2_filters=f2,
            kernel=kernel,
            classes=classes,
            dropout=dropout,
            seed=seed,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    shapes = parameter_shapes(config).values()
    return ConvClassifier.from_arrays(config, CLASSIFIER_FORMAT.arrays(path, payload, shapes))
