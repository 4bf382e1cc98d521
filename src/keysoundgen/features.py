"""Per-object feature vectors for the playability selector.

Each object gets 299 values: its window difficulty (1), an instrument
one-hot (27), which 16th-section of a beat it falls on (1), and summary
statistics (270) describing how often each instrument class was playable
over the trailing 2, 4, 8, 16 and 32 beats.

Summary windows are half-open [now - W, now): an object never summarizes
itself or anything simultaneous with it, which keeps the feature strictly
causal and lets generated charts stream their own predictions back in
(self-summary mode).  Counts are kept as integers and divided once, so
different traversal strategies produce bit-identical vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .audio import CATEGORY_COUNT, InstrumentLabel
from .bms import Chart
from .difficulty import DifficultyCurve, curve_value_at
from .errors import DataError
from .framing import BinaryFormat
from .timing import TimeGrid

SUMMARY_WINDOWS = (2.0, 4.0, 8.0, 16.0, 32.0)
SUMMARY_DIM = len(SUMMARY_WINDOWS) * CATEGORY_COUNT * 2  # 270
FEATURE_DIM = 1 + CATEGORY_COUNT + 1 + SUMMARY_DIM  # 299

COL_DIFFICULTY = 0
COL_ONEHOT = 1
COL_ALIGNMENT = 1 + CATEGORY_COUNT
COL_SUMMARY = COL_ALIGNMENT + 1

ALIGNMENT_SNAP = 1e-6


class HistoryEvent(NamedTuple):
    beat: float
    instrument: int
    playable: bool


def beat_alignment(beat: float) -> int:
    """Which 16th-section of its beat a position falls on (0 = on the beat).

    The fractional part is snapped to the nearest 16th within 1e-6 first,
    so times that drift a hair below a section boundary still land on it.
    """
    fractional = beat - floor(beat)
    sixteenths = fractional * 16.0
    nearest = round(sixteenths)
    if abs(sixteenths - nearest) < ALIGNMENT_SNAP:
        sixteenths = nearest
    return floor(sixteenths) % 16


class SummaryAccumulator:
    """Incremental summary over a beat-ordered event stream.

    One pointer admits events into the counts as `now` passes them; one
    pointer per window retires events that fall out of [now - W, now).
    Events and queries must both arrive in non-decreasing beat order.
    Vectors are window-major, then class-major, with each class's
    (playable, non-playable) shares adjacent.
    """

    def __init__(self):
        self._events: list[HistoryEvent] = []
        self._include = 0
        self._expire = [0] * len(SUMMARY_WINDOWS)
        self._playable = [[0] * CATEGORY_COUNT for _ in SUMMARY_WINDOWS]
        self._total = [[0] * CATEGORY_COUNT for _ in SUMMARY_WINDOWS]
        self._last_now: float | None = None

    def push(self, beat: float, instrument: int, playable: bool) -> None:
        if self._events and beat < self._events[-1].beat:
            raise DataError(
                f"summary events must arrive in beat order ({beat} after {self._events[-1].beat})"
            )
        if not 0 <= instrument < CATEGORY_COUNT:
            raise DataError(f"instrument index {instrument} outside 0..{CATEGORY_COUNT - 1}")
        self._events.append(HistoryEvent(beat, instrument, playable))

    def vector_at(self, now: float) -> np.ndarray:
        if self._last_now is not None and now < self._last_now:
            raise DataError(
                f"summary queries must arrive in beat order ({now} after {self._last_now})"
            )
        self._last_now = now
        events = self._events
        while self._include < len(events) and events[self._include].beat < now:
            event = events[self._include]
            for w in range(len(SUMMARY_WINDOWS)):
                self._total[w][event.instrument] += 1
                if event.playable:
                    self._playable[w][event.instrument] += 1
            self._include += 1

        out = np.zeros(SUMMARY_DIM, dtype=np.float64)
        for w, window in enumerate(SUMMARY_WINDOWS):
            low = now - window
            while self._expire[w] < self._include and events[self._expire[w]].beat < low:
                event = events[self._expire[w]]
                self._total[w][event.instrument] -= 1
                if event.playable:
                    self._playable[w][event.instrument] -= 1
                self._expire[w] += 1
            base = w * CATEGORY_COUNT * 2
            playable, total = self._playable[w], self._total[w]
            for i in range(CATEGORY_COUNT):
                if total[i]:
                    out[base + 2 * i] = playable[i] / total[i]
                    out[base + 2 * i + 1] = (total[i] - playable[i]) / total[i]
        return out


SUMMARY_SOURCES = ("truth", "self", "none")


def build_features(
    chart: Chart,
    grid: TimeGrid,
    curve: DifficultyCurve,
    labels,
    summary_source: str = "truth",
    predictor: Callable[[np.ndarray, int], bool] | None = None,
) -> np.ndarray:
    """Feature matrix aligned with chart.objects, shape (n, 299).

    labels holds one InstrumentLabel per object.  summary_source picks
    where the summary playability stream comes from: "truth" reads the
    chart's authored flags, "self" feeds each object's predicted flag
    back in (predictor(row, index) -> bool, required), and "none" zeroes
    the whole summary block.
    """
    if summary_source not in SUMMARY_SOURCES:
        raise DataError(f"summary_source must be one of {SUMMARY_SOURCES}, got {summary_source!r}")
    if summary_source == "self" and predictor is None:
        raise DataError("self-summary features need a predictor feedback hook")

    labels = list(labels)
    if len(labels) != len(chart.objects):
        raise DataError(f"{len(labels)} labels for {len(chart.objects)} objects")
    for i, label in enumerate(labels):
        if not isinstance(label, InstrumentLabel):
            raise DataError(f"object {i} has no instrument label")

    rows = np.zeros((len(chart.objects), FEATURE_DIM), dtype=np.float64)
    accumulator = SummaryAccumulator()

    for i, obj in enumerate(chart.objects):
        beat = grid.object_beats[i]
        row = rows[i]
        row[COL_DIFFICULTY] = curve_value_at(curve, grid.object_seconds[i])
        row[COL_ONEHOT + labels[i].index] = 1.0
        row[COL_ALIGNMENT] = float(beat_alignment(beat))
        if summary_source != "none":
            row[COL_SUMMARY:] = accumulator.vector_at(beat)

        if summary_source == "truth":
            accumulator.push(beat, labels[i].index, obj.playable)
        elif summary_source == "self":
            accumulator.push(beat, labels[i].index, bool(predictor(row.copy(), i)))
    return rows


# ---------------------------------------------------------------------------
# Ablation masks: which feature blocks a model consumes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureMode:
    """Feature blocks active for a model; inactive blocks are dropped,
    shrinking the input width (not zero-filled)."""

    use_difficulty: bool = True
    use_summary: bool = True

    @property
    def width(self) -> int:
        return (
            (1 if self.use_difficulty else 0)
            + CATEGORY_COUNT
            + 1
            + (SUMMARY_DIM if self.use_summary else 0)
        )

    def column_indices(self) -> np.ndarray:
        cols: list[int] = []
        if self.use_difficulty:
            cols.append(COL_DIFFICULTY)
        cols.extend(range(COL_ONEHOT, COL_SUMMARY))
        if self.use_summary:
            cols.extend(range(COL_SUMMARY, FEATURE_DIM))
        return np.asarray(cols, dtype=np.intp)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        if rows.ndim == 1:
            rows = rows[np.newaxis, :]
        if rows.shape[1] != FEATURE_DIM:
            raise DataError(f"expected {FEATURE_DIM}-wide feature rows, got {rows.shape[1]}")
        return rows[:, self.column_indices()]


FULL_MODE = FeatureMode(True, True)
NO_DIFFICULTY_MODE = FeatureMode(False, True)
NO_SUMMARY_MODE = FeatureMode(True, False)


# ---------------------------------------------------------------------------
# Feature dump file: magic, version, row/col counts, f32 little-endian
# ---------------------------------------------------------------------------

FEATURE_FORMAT = BinaryFormat(b"KSGF", 1, "II", "feature dump")  # rows, columns


def save_features(path: str | Path, rows: np.ndarray) -> None:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != FEATURE_DIM:
        raise DataError(f"feature dump needs an (n, {FEATURE_DIM}) matrix, got {rows.shape}")
    FEATURE_FORMAT.write(path, rows.shape, [rows])


def load_features(path: str | Path) -> np.ndarray:
    (n, cols), _, payload = FEATURE_FORMAT.read(path)
    if cols != FEATURE_DIM:
        raise DataError(f"{path}: expected {FEATURE_DIM} columns, got {cols}")
    return FEATURE_FORMAT.arrays(path, payload, [(n, cols)])[0]
