"""Playable/non-playable selection network.

A small dense stack (64, 32, 16, 2 with ReLU between layers and a linear
final pair) trained by mini-batch gradient descent on weighted MSE:
playable examples weigh 1.0, non-playable 0.2, countering the class
imbalance of real charts.  The playable node is output 0; prediction is
the argmax, with exact ties going to non-playable (the majority class).

Training stops once validation loss has improved by less than the
tolerance for three consecutive epochs; the learning rate halves when a
plateau first shows.  Everything runs in float64 from one seeded RNG, so
a (seed, data) pair always reproduces the same model file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bms import Chart
from .difficulty import DifficultyCurve
from .errors import DataError
from .features import FULL_MODE, FeatureMode, build_features
from .framing import BinaryFormat
from .timing import TimeGrid

LAYER_WIDTHS = (64, 32, 16, 2)


def layer_shapes(mode: FeatureMode) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of each dense layer for a feature mode."""
    return list(zip((mode.width,) + LAYER_WIDTHS[:-1], LAYER_WIDTHS))


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    weight_playable: float = 1.0
    weight_nonplayable: float = 0.2
    learning_rate: float = 0.01
    max_epochs: int = 150
    tolerance: float = 1e-5
    normalize: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.weight_playable <= 0 or self.weight_nonplayable <= 0:
            raise DataError("loss weights must be positive")
        if self.batch_size < 1:
            raise DataError("batch size must be at least 1")


class SelectorModel:
    """Four dense layers; carries its feature mode and training seed."""

    def __init__(self, mode: FeatureMode = FULL_MODE, seed: int = 0):
        self.mode = mode
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, width in layer_shapes(mode):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, width)))
            self.biases.append(np.zeros(width))

    @classmethod
    def from_arrays(cls, mode: FeatureMode, seed: int, weights, biases) -> "SelectorModel":
        """A model holding the given parameters, with no random initialisation."""
        model = cls.__new__(cls)
        model.mode, model.seed = mode, seed
        model.weights, model.biases = list(weights), list(biases)
        return model

    @property
    def input_width(self) -> int:
        return self.weights[0].shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(n, width) inputs -> (n, 2) activations (playable, non-playable)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[np.newaxis, :]
        if x.shape[1] != self.input_width:
            raise DataError(f"model expects width {self.input_width}, got {x.shape[1]}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w + b
            if i < len(self.weights) - 1:
                x = np.maximum(x, 0.0)
        return x

    def _forward_cached(self, x: np.ndarray):
        pre: list[np.ndarray] = []
        post: list[np.ndarray] = [x]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = post[-1] @ w + b
            pre.append(z)
            post.append(np.maximum(z, 0.0) if i < len(self.weights) - 1 else z)
        return pre, post


def _targets(flags: np.ndarray) -> np.ndarray:
    out = np.zeros((len(flags), 2))
    out[:, 0] = flags
    out[:, 1] = ~flags
    return out


def weighted_mse(
    pred: np.ndarray, flags, config: TrainConfig = TrainConfig()
) -> float:
    """Mean over examples of w(class) * mean squared error against the one-hot."""
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim == 1:
        pred = pred[np.newaxis, :]
    flags = np.asarray(flags, dtype=bool).reshape(-1)
    weights = np.where(flags, config.weight_playable, config.weight_nonplayable)
    err = pred - _targets(flags)
    return float(np.mean(weights * np.mean(err * err, axis=1)))


def _loss_and_gradients(model: SelectorModel, x, flags, config: TrainConfig):
    n = len(x)
    pre, post = model._forward_cached(x)
    flags = np.asarray(flags, dtype=bool)
    weights = np.where(flags, config.weight_playable, config.weight_nonplayable)
    err = post[-1] - _targets(flags)
    loss = float(np.mean(weights * np.mean(err * err, axis=1)))

    # d(loss)/d(pred): the per-example mean over 2 outputs cancels the
    # squaring's factor 2
    delta = weights[:, np.newaxis] * err / n
    grad_w: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    grad_b: list[np.ndarray] = [np.empty(0)] * len(model.biases)
    for i in reversed(range(len(model.weights))):
        grad_w[i] = post[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (pre[i - 1] > 0.0)
    return loss, grad_w, grad_b


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_loss: float
    val_f1: float


@dataclass
class TrainingReport:
    rows: list[EpochRow] = field(default_factory=list)
    final_learning_rate: float = 0.0
    stopped_early: bool = False


@dataclass(frozen=True)
class ChartMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


def score_chart(predicted, truth) -> ChartMetrics:
    """Confusion counts and playable-class precision/recall/F1 (0, never NaN, when undefined)."""
    predicted = np.asarray(predicted, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if predicted.shape != truth.shape:
        raise DataError(
            f"predicted {predicted.shape} and truth {truth.shape} flags differ in length"
        )
    tp = int(np.sum(predicted & truth))
    fp = int(np.sum(predicted & ~truth))
    fn = int(np.sum(~predicted & truth))
    tn = int(np.sum(~predicted & ~truth))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ChartMetrics(precision, recall, f1, tp, fp, fn, tn)


def fit(
    model: SelectorModel,
    train_x: np.ndarray,
    train_flags: np.ndarray,
    val_x: np.ndarray,
    val_flags: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> TrainingReport:
    """Mini-batch gradient descent until the validation loss plateaus."""
    if len(train_x) == 0 or len(val_x) == 0:
        raise DataError("training and validation sets must be non-empty")
    train_flags = np.asarray(train_flags, dtype=bool)
    val_flags = np.asarray(val_flags, dtype=bool)

    rng = np.random.default_rng(config.seed)
    report = TrainingReport()
    learning_rate = config.learning_rate
    best = np.inf
    bad_epochs = 0

    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_x))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grad_w, grad_b = _loss_and_gradients(
                model, train_x[batch], train_flags[batch], config
            )
            for i in range(len(model.weights)):
                model.weights[i] -= learning_rate * grad_w[i]
                model.biases[i] -= learning_rate * grad_b[i]
            epoch_loss += loss * len(batch)

        val_out = model.forward(val_x)
        val_loss = weighted_mse(val_out, val_flags, config)
        val_f1 = score_chart(val_out[:, 0] > val_out[:, 1], val_flags).f1
        report.rows.append(EpochRow(epoch, epoch_loss / len(train_x), val_loss, val_f1))

        if val_loss < best - config.tolerance:
            best = val_loss
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs == 2:
                learning_rate *= 0.5
            if bad_epochs >= 3:
                report.stopped_early = True
                break

    report.final_learning_rate = learning_rate
    return report


# ---------------------------------------------------------------------------
# Song-grouped splits
# ---------------------------------------------------------------------------

SPLIT_NAMES = ("train", "validation", "test")


@dataclass(frozen=True)
class SplitPlan:
    """song -> train/validation/test; every chart of a song shares a split."""

    assignment: dict[str, str]

    def __post_init__(self):
        for song, part in self.assignment.items():
            if part not in SPLIT_NAMES:
                raise DataError(f"song {song!r} assigned to unknown split {part!r}")

    def songs(self, part: str) -> list[str]:
        return sorted(s for s, p in self.assignment.items() if p == part)


def make_split(songs, seed: int = 0) -> SplitPlan:
    """Shuffle songs and cut 80/10/10."""
    songs = sorted(set(songs))
    rng = np.random.default_rng(seed)
    order = [songs[i] for i in rng.permutation(len(songs))]
    n = len(order)
    train_end = int(n * 0.8)
    val_end = train_end + int(n * 0.1)
    assignment = {}
    for i, song in enumerate(order):
        if i < train_end:
            assignment[song] = "train"
        elif i < val_end:
            assignment[song] = "validation"
        else:
            assignment[song] = "test"
    return SplitPlan(assignment)


def train_selector(
    examples,
    split: SplitPlan,
    config: TrainConfig = TrainConfig(),
    mode: FeatureMode = FULL_MODE,
):
    """Train a fresh model on per-chart (song, features, flags) examples.

    examples need .song, .features (n, 299) and .playable (n,) attributes;
    charts of validation/test songs never touch the gradient.

    With config.normalize the raw columns (difficulty and alignment dwarf
    the 0/1 features) are z-scored against the training partition for the
    duration of the fit, then the affine transform is folded into the
    first layer, so the returned model still consumes raw feature rows.
    """
    parts: dict[str, list] = {name: [] for name in SPLIT_NAMES}
    for example in examples:
        if example.song not in split.assignment:
            raise DataError(f"song {example.song!r} missing from the split plan")
        parts[split.assignment[example.song]].append(example)
    if not parts["train"] or not parts["validation"]:
        raise DataError("split leaves an empty train or validation partition")

    def stack(items):
        x = np.concatenate([mode.apply(e.features) for e in items])
        y = np.concatenate([np.asarray(e.playable, dtype=bool) for e in items])
        return x, y

    model = SelectorModel(mode, config.seed)
    train_x, train_y = stack(parts["train"])
    val_x, val_y = stack(parts["validation"])
    if not config.normalize:
        report = fit(model, train_x, train_y, val_x, val_y, config)
        return model, report

    shift = train_x.mean(axis=0)
    scale = train_x.std(axis=0)
    scale[scale < 1e-9] = 1.0
    report = fit(
        model,
        (train_x - shift) / scale,
        train_y,
        (val_x - shift) / scale,
        val_y,
        config,
    )
    model.weights[0] = model.weights[0] / scale[:, None]
    model.biases[0] = model.biases[0] - shift @ model.weights[0]
    return model, report


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict_flags(model: SelectorModel, rows: np.ndarray) -> np.ndarray:
    """Batch playability from full-width feature rows (ties -> non-playable)."""
    out = model.forward(model.mode.apply(rows))
    return out[:, 0] > out[:, 1]


def predict_chart(
    model: SelectorModel,
    chart: Chart,
    grid: TimeGrid,
    curve: DifficultyCurve,
    labels,
    summary_source: str = "truth",
) -> np.ndarray:
    """Per-object playability for one chart.

    summary_source "truth" reads authored flags into the summary stream,
    "self" feeds the model's own prior predictions back in (sequential),
    and "none" zeroes the summary block.  Streaming modes require a model
    that actually consumes summary features.
    """
    if summary_source in ("truth", "self") and not model.mode.use_summary:
        raise DataError(
            f"summary_source {summary_source!r} conflicts with a model trained "
            f"without summary features"
        )
    if summary_source == "self":
        flags = np.zeros(len(chart.objects), dtype=bool)

        def feedback(row: np.ndarray, index: int) -> bool:
            out = model.forward(model.mode.apply(row))
            flags[index] = out[0, 0] > out[0, 1]
            return bool(flags[index])

        build_features(chart, grid, curve, labels, "self", feedback)
        return flags
    rows = build_features(chart, grid, curve, labels, summary_source)
    return predict_flags(model, rows)


def baseline_random(count: int, p: float = 0.3, seed: int = 0) -> np.ndarray:
    """Seeded Bernoulli(p) flags."""
    return np.random.default_rng(seed).random(count) < p


def baseline_all_playable(count: int) -> np.ndarray:
    return np.ones(count, dtype=bool)


# ---------------------------------------------------------------------------
# Model file: magic, version, feature-mode flags, seed, shapes, f32 weights
# ---------------------------------------------------------------------------

# version, mode flags, seed, layer count; then one (fan_in, fan_out) record per layer
SELECTOR_FORMAT = BinaryFormat(b"KSGS", 1, "BQI", "selector file", record="II")


def save_selector(path: str | Path, model: SelectorModel) -> None:
    flags = (1 if model.mode.use_difficulty else 0) | (2 if model.mode.use_summary else 0)
    shapes = [w.shape for w in model.weights]
    arrays = [a for pair in zip(model.weights, model.biases) for a in pair]
    SELECTOR_FORMAT.write(path, (flags, model.seed, len(shapes)), arrays, shapes)


def load_selector(path: str | Path) -> SelectorModel:
    (flags, seed, _), shapes, payload = SELECTOR_FORMAT.read(path)
    mode = FeatureMode(bool(flags & 1), bool(flags & 2))
    expected = layer_shapes(mode)
    if shapes != expected:
        raise DataError(f"{path}: layer shapes {shapes} do not match {expected}")
    arrays = SELECTOR_FORMAT.arrays(path, payload, [s for w in shapes for s in (w, w[1:])])
    return SelectorModel.from_arrays(mode, seed, arrays[0::2], arrays[1::2])


# ---------------------------------------------------------------------------
# Training report file: epoch<TAB>train_loss<TAB>val_loss<TAB>val_f1
# ---------------------------------------------------------------------------


def report_to_text(report: TrainingReport) -> str:
    return "".join(
        f"{r.epoch}\t{r.train_loss!r}\t{r.val_loss!r}\t{r.val_f1!r}\n" for r in report.rows
    )
