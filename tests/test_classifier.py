"""Convolutional classifier: layer oracles, finite differences, training."""

import numpy as np
import pytest

from keysoundgen.cnn import (
    ClassifierConfig,
    ConvClassifier,
    classify_sample,
    load_classifier,
    save_classifier,
    train_classifier,
)
from keysoundgen.errors import DataError

# 67 parameters total: small enough to finite-difference every one
TINY = ClassifierConfig(
    input_shape=(10, 10),
    conv1_filters=2,
    conv2_filters=2,
    kernel=3,
    classes=3,
    dropout=0.0,
    seed=0,
)

SMALL = ClassifierConfig(
    input_shape=(14, 14),
    conv1_filters=3,
    conv2_filters=4,
    kernel=3,
    classes=4,
    dropout=0.0,
    learning_rate=0.05,
    batch_size=8,
    epochs=40,
    seed=0,
)


def direct_convolution(x, kernels, bias):
    """Nested-loop valid convolution, the slow way (channel-first: n, c, h, w)."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernels.shape
    out = np.zeros((n, f, h - kh + 1, w - kw + 1))
    for img in range(n):
        for filt in range(f):
            for i in range(h - kh + 1):
                for j in range(w - kw + 1):
                    patch = x[img, :, i : i + kh, j : j + kw]
                    out[img, filt, i, j] = np.sum(patch * kernels[filt]) + bias[filt]
    return out


def direct_input_gradient(dout, kernels, x_shape):
    """Nested-loop gradient of a valid convolution's input (channel-first)."""
    n, f, oh, ow = dout.shape
    kh, kw = kernels.shape[2:]
    dx = np.zeros(x_shape)
    for img in range(n):
        for filt in range(f):
            for i in range(oh):
                for j in range(ow):
                    dx[img, :, i : i + kh, j : j + kw] += dout[img, filt, i, j] * kernels[filt]
    return dx


def to_channel_last(x):
    return x.transpose(0, 2, 3, 1)


def to_channel_first(x):
    return x.transpose(0, 3, 1, 2)


# -- layer mechanics ----------------------------------------------------------

def test_conv_forward_matches_direct_convolution():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 8, 8))
    kernels = rng.normal(size=(4, 3, 3, 3))
    bias = rng.normal(size=4)
    fast, _ = ConvClassifier._conv_forward(to_channel_last(x), kernels, bias)
    assert np.allclose(to_channel_first(fast), direct_convolution(x, kernels, bias), atol=1e-12)


def test_conv_input_gradient_matches_nested_loops():
    rng = np.random.default_rng(6)
    x_shape = (2, 3, 9, 8)
    kernels = rng.normal(size=(4, 3, 3, 2))
    dout = rng.normal(size=(2, 4, 7, 7))
    n, c, h, w = x_shape
    fast = ConvClassifier._conv_input_grad(to_channel_last(dout), (n, h, w, c), kernels)
    assert np.allclose(to_channel_first(fast), direct_input_gradient(dout, kernels, x_shape),
                       atol=1e-12)


def test_pool_forward_takes_window_maxima():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
    pooled, _ = ConvClassifier._pool_forward(x)
    assert pooled.reshape(2, 2).tolist() == [[5.0, 7.0], [13.0, 15.0]]


def argmax_pool(x):
    """Window maxima and indices by np.argmax over each row-major 2x2 window."""
    n, h, w, f = x.shape
    windows = (
        x.reshape(n, h // 2, 2, w // 2, 2, f)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, h // 2, w // 2, f, 4)
    )
    best = windows.argmax(axis=-1)
    return np.take_along_axis(windows, best[..., np.newaxis], axis=-1)[..., 0], best


@pytest.mark.parametrize("nan_share", [0.0, 0.3])
def test_pool_picks_the_first_maximum_like_argmax(nan_share):
    rng = np.random.default_rng(8)
    # three values per cell, so most windows hold ties
    x = rng.integers(0, 3, size=(4, 6, 8, 5)).astype(np.float64)
    x[rng.random(x.shape) < nan_share] = np.nan
    pooled, best = ConvClassifier._pool_forward(x)
    expected, expected_best = argmax_pool(x)
    assert np.isnan(expected).any() == (nan_share > 0)
    assert np.array_equal(best, expected_best)
    assert np.array_equal(pooled, expected, equal_nan=True)


def test_pool_picks_the_first_nan_in_window_order():
    # every pair of window cells, with the NaN before and after a larger number
    for first in range(3):
        for later in range(first + 1, 4):
            window = np.zeros(4)
            window[first], window[later] = np.nan, 7.0
            assert ConvClassifier._pool_forward(window.reshape(1, 2, 2, 1))[1].item() == first
            window[first], window[later] = 7.0, np.nan
            assert ConvClassifier._pool_forward(window.reshape(1, 2, 2, 1))[1].item() == later


def test_pool_backward_routes_to_first_max_only():
    # a window of equal values must send its whole gradient to one cell
    x = np.ones((1, 2, 2, 1))
    pooled, best = ConvClassifier._pool_forward(x)
    dout = np.full(pooled.shape, 5.0)
    dx = ConvClassifier._pool_backward(dout, best)
    assert dx.sum() == 5.0
    assert (dx != 0.0).sum() == 1
    assert dx[0, 0, 0, 0] == 5.0


def test_unpoolable_shape_is_rejected():
    with pytest.raises(DataError, match="pool"):
        ConvClassifier(ClassifierConfig(input_shape=(31, 31)))


def test_forward_shapes_and_input_checks():
    model = ConvClassifier(ClassifierConfig())
    logits, _ = model.forward(np.zeros((3, 32, 32)))
    assert logits.shape == (3, 27)
    single, _ = model.forward(np.zeros((32, 32)))
    assert single.shape == (1, 27)
    with pytest.raises(DataError, match="spectrograms"):
        model.forward(np.zeros((3, 16, 16)))


def test_tiny_model_has_67_parameters():
    model = ConvClassifier(TINY)
    assert sum(p.size for p in model.parameters().values()) == 67


# -- gradients ----------------------------------------------------------------

def test_gradients_match_finite_differences():
    model = ConvClassifier(TINY)
    rng = np.random.default_rng(123)
    x = rng.normal(size=(4, 10, 10))
    targets = np.array([0, 1, 2, 1])

    _, grads = model.loss_and_gradients(x, targets, train=True)

    h = 1e-5
    worst = 0.0
    for name, param in model.parameters().items():
        flat = param.reshape(-1)
        grad_flat = grads[name].reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up, _ = model.loss_and_gradients(x, targets, train=True)
            flat[j] = keep - h
            down, _ = model.loss_and_gradients(x, targets, train=True)
            flat[j] = keep
            numeric = (up - down) / (2 * h)
            scale = max(abs(numeric), abs(grad_flat[j]), 1e-8)
            worst = max(worst, abs(numeric - grad_flat[j]) / scale)
    assert worst < 1e-4


def test_dropout_needs_rng_and_scales_correctly():
    config = ClassifierConfig(
        input_shape=(10, 10), conv1_filters=2, conv2_filters=2, kernel=3,
        classes=3, dropout=0.5, seed=0,
    )
    model = ConvClassifier(config)
    x = np.random.default_rng(9).normal(size=(2, 10, 10))
    with pytest.raises(DataError, match="RNG"):
        model.forward(x, train=True)
    # inference never needs an RNG and is deterministic
    a, _ = model.forward(x)
    b, _ = model.forward(x)
    assert np.array_equal(a, b)
    # inverted dropout: the surviving activations are scaled by 1/keep,
    # so averaged over many masks the logits approximate the clean pass
    rng = np.random.default_rng(77)
    stack = np.mean(
        [model.forward(x, train=True, rng=rng)[0] for _ in range(600)], axis=0
    )
    assert np.allclose(stack, a, atol=0.35)


# -- training -----------------------------------------------------------------

def patterned_corpus(config, per_class, rng):
    """Blobs of energy in class-specific corners, plus noise."""
    h, w = config.input_shape
    corpus = []
    for label in range(config.classes):
        for _ in range(per_class):
            spec = rng.random((h, w)) * 0.1
            i = (label // 2) * (h // 2)
            j = (label % 2) * (w // 2)
            spec[i : i + h // 2, j : j + w // 2] += 1.0
            corpus.append((spec, label))
    return corpus


def test_training_memorizes_a_repeated_example():
    rng = np.random.default_rng(0)
    spec = rng.random((14, 14))
    corpus = [(spec, 2)] * 20
    model, report = train_classifier(corpus, SMALL)
    assert report.holdout_size == 2
    assert report.holdout_accuracy == 1.0
    assert report.train_losses[-1] < 0.05
    assert report.train_losses[-1] < report.train_losses[0]
    assert classify_sample(model, spec) == 2


def test_training_separates_patterned_classes():
    rng = np.random.default_rng(1)
    corpus = patterned_corpus(SMALL, 12, rng)
    model, report = train_classifier(corpus, SMALL)
    assert report.holdout_accuracy >= 0.75
    correct = sum(classify_sample(model, spec) == label for spec, label in corpus)
    assert correct / len(corpus) >= 0.9


def test_training_is_deterministic():
    rng = np.random.default_rng(2)
    corpus = patterned_corpus(SMALL, 6, rng)
    model_a, report_a = train_classifier(corpus, SMALL)
    model_b, report_b = train_classifier(corpus, SMALL)
    assert report_a.train_losses == report_b.train_losses
    for name in model_a.parameters():
        assert np.array_equal(getattr(model_a, name), getattr(model_b, name))


def test_training_rejects_degenerate_corpora():
    with pytest.raises(DataError, match="empty"):
        train_classifier([], SMALL)
    spec = np.zeros((14, 14))
    with pytest.raises(DataError, match="holdout"):
        train_classifier([(spec, 0)] * 5, SMALL)  # 10% of 5 rounds to 0
    with pytest.raises(DataError, match="label"):
        train_classifier([(spec, 9)] * 20, SMALL)


# -- model files --------------------------------------------------------------

def test_classifier_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    corpus = patterned_corpus(SMALL, 6, rng)
    model, _ = train_classifier(corpus, SMALL)
    path = tmp_path / "model.bin"
    save_classifier(path, model)
    loaded = load_classifier(path)
    # the file carries the architecture, not the training schedule
    for name in ("input_shape", "conv1_filters", "conv2_filters", "kernel",
                 "classes", "dropout", "seed"):
        assert getattr(loaded.config, name) == getattr(model.config, name)
    inputs = np.stack([spec for spec, _ in corpus])
    assert np.array_equal(loaded.predict(inputs), model.predict(inputs))
    again = tmp_path / "again.bin"
    save_classifier(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_classifier_file_rejects_corruption(tmp_path):
    model = ConvClassifier(TINY)
    path = tmp_path / "model.bin"
    save_classifier(path, model)
    data = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WHAT" + data[4:])
    with pytest.raises(DataError, match="not a classifier"):
        load_classifier(bad)

    short = tmp_path / "short.bin"
    short.write_bytes(data[:-6])
    with pytest.raises(DataError, match="truncated"):
        load_classifier(short)

    long = tmp_path / "long.bin"
    long.write_bytes(data + b"\x00" * 8)
    with pytest.raises(DataError, match="trailing"):
        load_classifier(long)
