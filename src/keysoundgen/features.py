"""Per-object feature vectors for the playability selector.

Each object gets 299 values: its window difficulty (1), an instrument
one-hot (27), which 16th-section of a beat it falls on (1), and summary
statistics (270) describing how often each instrument class was playable
over the trailing 2, 4, 8, 16 and 32 beats.

Summary windows are half-open [now - W, now): an object never summarizes
itself or anything simultaneous with it, which keeps the feature strictly
causal and lets generated charts stream their own predictions back in
(self-summary mode).  Counts are cumulative integers, differenced per window
and divided once, so truth and self modes give bit-identical vectors from
the same flags.  Window edges and class totals need no flags, so a chart
finds them once, and a self-fed instant only reads and divides its counts.
An instant is one TimeGrid instant: the objects at one exact beat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
PAIRS = CATEGORY_COUNT * 2  # (playable, non-playable) per class
SUMMARY_DIM = len(SUMMARY_WINDOWS) * PAIRS  # 270
FEATURE_DIM = 1 + CATEGORY_COUNT + 1 + SUMMARY_DIM  # 299

COL_DIFFICULTY = 0
COL_ONEHOT = 1
COL_ALIGNMENT = 1 + CATEGORY_COUNT
COL_SUMMARY = COL_ALIGNMENT + 1

ALIGNMENT_SNAP = 1e-6


def beat_alignment(beat):
    """Which 16th-section of its beat each given beat falls on (0 = on the beat).

    The fractional part is snapped to the nearest 16th (ties to even) within
    1e-6 first, so times that drift a hair below a boundary still land on it.
    """
    beat = np.asarray(beat, dtype=np.float64)
    sixteenths = (beat - np.floor(beat)) * 16.0
    nearest = np.round(sixteenths)
    snapped = np.where(np.abs(sixteenths - nearest) < ALIGNMENT_SNAP, nearest, sixteenths)
    return np.floor(snapped).astype(np.intp) % 16


class SummaryCounts:
    """Playable shares per instrument class over trailing beat windows.

    `pairs[i]` counts objects 0..i-1 of each class that were (playable,
    non-playable), and `totals[i]` objects 0..i-1 of each class, with a
    leading zero row, so [a, b) counts as row b minus row a.  `record` fills
    `pairs` in stream order.  A window [now - W, now) starts at row
    `searchsorted(now - W)`, an instant's first object or n, so no query
    reads a row inside an instant.  Vectors are window-major, then
    class-major, with each class's (playable, non-playable) shares adjacent.
    """

    def __init__(self, beats, instruments):
        self.beats = np.asarray(beats, dtype=np.float64)
        self.instruments = np.asarray(instruments, dtype=np.intp)
        if np.any(self.beats[1:] < self.beats[:-1]):
            raise DataError("summary events must arrive in beat order")
        if np.any((self.instruments < 0) | (self.instruments >= CATEGORY_COUNT)):
            raise DataError(f"instrument index outside 0..{CATEGORY_COUNT - 1}")
        self.nonplayable_columns = 2 * self.instruments + 1
        self.pairs = np.zeros((len(self.beats) + 1, PAIRS))
        classes = np.eye(CATEGORY_COUNT)[self.instruments]
        self.totals = np.cumsum(np.vstack((np.zeros(CATEGORY_COUNT), classes)), axis=0)
        self.recorded = 0

    def record(self, start: int, flags) -> None:
        """Playability flags of objects start, start + 1, ... in stream order."""
        flags = np.asarray(flags, dtype=bool).reshape(-1)
        end = start + len(flags)
        if start != self.recorded or end > len(self.beats):
            raise DataError(f"flags for objects {start}..{end - 1} recorded out of order")
        columns = self.nonplayable_columns[start:end] - flags
        if start < end and self.beats[start] == self.beats[end - 1]:
            # one instant: no query reads its inner rows, so only its end row is written
            np.add(self.pairs[start], np.bincount(columns, minlength=PAIRS), out=self.pairs[end])
        else:
            steps = np.cumsum(np.eye(PAIRS)[columns], axis=0)
            np.add(self.pairs[start], steps, out=self.pairs[start + 1 : end + 1])
        self.recorded = end

    def windows(self, now) -> tuple[np.ndarray, np.ndarray]:
        """(m, 6) rows [now, now - 2, ..., now - 32] and (m, 5, 54) divisors, each at least 1."""
        edges = self.beats.searchsorted(np.reshape(now, (-1, 1)) - WINDOW_EDGES)
        ends = self.totals[edges]
        totals = ends[:, :1] - ends[:, 1:]
        return edges, np.maximum(totals, 1.0, out=totals).repeat(2, axis=-1)

    def shares(self, edges, denominators, out=None) -> np.ndarray:
        """(..., 5, 54) shares of the windows from `windows`."""
        ends = self.pairs.take(edges, axis=0)
        counts = ends[..., :1, :] - ends[..., 1:, :]
        return np.divide(counts, denominators, out=counts if out is None else out)

    def vectors_at(self, now) -> np.ndarray:
        """(m, 270) summary rows for m query beats (a scalar gives one row)."""
        edges, denominators = self.windows(now)
        if (edges[:, 0] > self.recorded).any():
            raise DataError(f"summary query reaches past the {self.recorded} recorded flags")
        return self.shares(edges, denominators).reshape(len(edges), SUMMARY_DIM)


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
    "none" zeroes the whole summary block.  Self mode steps one TimeGrid
    instant at a time: every object of an instant sees the same summary,
    so predictor(rows, start) -> (k,) bool receives the k finished rows of
    objects start..start+k-1 at once, read-only (required).
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

    n = len(labels)
    instruments = np.fromiter((label.index for label in labels), dtype=np.intp, count=n)
    rows = np.zeros((n, FEATURE_DIM), dtype=np.float64)
    rows[:, COL_DIFFICULTY] = curve_value_at(curve, grid.object_seconds)
    rows[np.arange(n), COL_ONEHOT + instruments] = 1.0
    rows[:, COL_ALIGNMENT] = beat_alignment(grid.object_beats)
    if summary_source == "none":
        return rows

    counts = SummaryCounts(grid.object_beats, instruments)
    starts = np.flatnonzero(np.diff(grid.object_instants, prepend=-1))
    edges, denominators = counts.windows(counts.beats[starts])
    summary = rows[:, COL_SUMMARY:].reshape(n, len(SUMMARY_WINDOWS), PAIRS, copy=False)
    if summary_source == "truth":
        counts.record(0, [obj.playable for obj in chart.objects])
        summary[:] = np.repeat(counts.shares(edges, denominators), np.diff(starts, append=n), axis=0)
        return rows
    finished = rows.view()
    finished.flags.writeable = False
    bounds = starts.tolist() + [n]
    for start, end, edge, denominator in zip(bounds, bounds[1:], edges, denominators):
        counts.shares(edge, denominator, out=summary[start:end])
        counts.record(start, predictor(finished[start:end], start))
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
        return len(self.columns)

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
