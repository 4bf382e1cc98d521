"""Per-object feature vectors for the playability selector.

Each object gets 299 values: its window difficulty (1), an instrument
one-hot (27), which 16th-section of a beat it falls on (1), and summary
statistics (270) describing how often each instrument class was playable
over the trailing 2, 4, 8, 16 and 32 beats.

Summary windows are half-open [now - W, now): an object never summarizes
itself or anything simultaneous with it, which keeps the feature strictly
causal and lets generated charts stream their own predictions back in
(self-summary mode).  Counts are cumulative integers, differenced per
window and divided once, so the truth and self modes produce bit-identical
vectors from the same flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import floor
from pathlib import Path
from typing import Callable

import numpy as np

from .audio import CATEGORY_COUNT, InstrumentLabel
from .bms import Chart
from .difficulty import DifficultyCurve, curve_value_at
from .errors import DataError
from .framing import BinaryFormat
from .timing import TimeGrid

SUMMARY_WINDOWS = (2.0, 4.0, 8.0, 16.0, 32.0)
WINDOW_EDGES = np.asarray((0.0,) + SUMMARY_WINDOWS)
SUMMARY_DIM = len(SUMMARY_WINDOWS) * CATEGORY_COUNT * 2  # 270
FEATURE_DIM = 1 + CATEGORY_COUNT + 1 + SUMMARY_DIM  # 299

COL_DIFFICULTY = 0
COL_ONEHOT = 1
COL_ALIGNMENT = 1 + CATEGORY_COUNT
COL_SUMMARY = COL_ALIGNMENT + 1

ALIGNMENT_SNAP = 1e-6


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


class SummaryCounts:
    """Playable shares per instrument class over trailing beat windows.

    `counts[i, c]` holds how many of objects 0..i-1 of class c were
    (playable, non-playable): cumulative with a leading zero row, so any
    index range [a, b) counts as row b minus row a.  `record` fills the
    rows in stream order; `vectors_at` finds each window [now - W, now)
    with `searchsorted` on the beats.  Vectors are window-major, then
    class-major, with each class's (playable, non-playable) shares adjacent.
    """

    def __init__(self, beats, instruments):
        self.beats = np.asarray(beats, dtype=np.float64)
        self.instruments = np.asarray(instruments, dtype=np.intp)
        if np.any(self.beats[1:] < self.beats[:-1]):
            raise DataError("summary events must arrive in beat order")
        if np.any((self.instruments < 0) | (self.instruments >= CATEGORY_COUNT)):
            raise DataError(f"instrument index outside 0..{CATEGORY_COUNT - 1}")
        self.counts = np.zeros((len(self.beats) + 1, CATEGORY_COUNT, 2), dtype=np.int32)
        self.recorded = 0

    def record(self, start: int, flags) -> None:
        """Playability flags of objects start, start + 1, ... in stream order."""
        flags = np.asarray(flags, dtype=bool).reshape(-1)
        end = start + len(flags)
        if start != self.recorded or end > len(self.beats):
            raise DataError(f"flags for objects {start}..{end - 1} recorded out of order")
        step = np.zeros((len(flags) + 1, CATEGORY_COUNT, 2), dtype=np.int32)
        step[np.arange(1, len(flags) + 1), self.instruments[start:end], (~flags).astype(np.intp)] = 1
        np.cumsum(step, axis=0, out=step)
        np.add(self.counts[start], step[1:], out=self.counts[start + 1 : end + 1])
        self.recorded = end

    def vectors_at(self, now) -> np.ndarray:
        """(m, 270) summary rows for m query beats (a scalar gives one row)."""
        now = np.asarray(now, dtype=np.float64).reshape(-1, 1)
        edges = self.beats.searchsorted(now - WINDOW_EDGES)  # [now, now - 2, ..., now - 32]
        if (edges[:, 0] > self.recorded).any():
            raise DataError(f"summary query reaches past the {self.recorded} recorded flags")
        ends = self.counts[edges]
        counts = ends[:, :1] - ends[:, 1:]
        # an empty window divides its zero counts by one
        shares = counts / np.maximum(counts[..., :1] + counts[..., 1:], 1)
        return shares.reshape(len(now), SUMMARY_DIM)


SUMMARY_SOURCES = ("truth", "self", "none")


def build_features(
    chart: Chart,
    grid: TimeGrid,
    curve: DifficultyCurve,
    labels,
    summary_source: str = "truth",
    predictor: Callable[[np.ndarray, int], np.ndarray] | None = None,
) -> np.ndarray:
    """Feature matrix aligned with chart.objects, shape (n, 299).

    labels holds one InstrumentLabel per object.  summary_source picks
    where the summary playability stream comes from: "truth" reads the
    chart's authored flags, "self" feeds predicted flags back in, and
    "none" zeroes the whole summary block.  Self mode steps one instant
    (run of equal beats) at a time: every object of an instant sees the
    same summary, so predictor(rows, start) -> (k,) bool receives the k
    finished rows of objects start..start+k-1 at once (required).
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
    for i, beat in enumerate(grid.object_beats):
        row = rows[i]
        row[COL_DIFFICULTY] = curve_value_at(curve, grid.object_seconds[i])
        row[COL_ONEHOT + labels[i].index] = 1.0
        row[COL_ALIGNMENT] = float(beat_alignment(beat))
    if summary_source == "none":
        return rows

    counts = SummaryCounts(grid.object_beats, [label.index for label in labels])
    if summary_source == "truth":
        counts.record(0, [obj.playable for obj in chart.objects])
        rows[:, COL_SUMMARY:] = counts.vectors_at(counts.beats)
        return rows
    # an instant starts wherever the beat changes
    starts = np.flatnonzero(np.diff(counts.beats, prepend=-np.inf)).tolist()
    for start, end in zip(starts, starts[1:] + [len(rows)]):
        rows[start:end, COL_SUMMARY:] = counts.vectors_at(counts.beats[start : start + 1])
        counts.record(start, predictor(rows[start:end].copy(), start))
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

    @cached_property
    def columns(self) -> np.ndarray:
        cols: list[int] = []
        if self.use_difficulty:
            cols.append(COL_DIFFICULTY)
        cols.extend(range(COL_ONEHOT, COL_SUMMARY))
        if self.use_summary:
            cols.extend(range(COL_SUMMARY, FEATURE_DIM))
        return np.asarray(cols, dtype=np.intp)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """This mode's columns as row-major rows; full-width rows come back as they are."""
        if rows.ndim == 1:
            rows = rows[np.newaxis, :]
        if rows.shape[1] != FEATURE_DIM:
            raise DataError(f"expected {FEATURE_DIM}-wide feature rows, got {rows.shape[1]}")
        if self.width == FEATURE_DIM:
            return rows
        return rows.take(self.columns, axis=1)


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
