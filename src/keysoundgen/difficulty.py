"""Strain-based difficulty model.

Each playable object adds strain to its control and to a shared overall
accumulator; both decay exponentially between events, so short gaps leave
more residual strain.  The chart is then cut into 0.4 s windows anchored
at t = 0; the maximum object strain inside a window is that window's
difficulty, and every object in the window (background ones included)
receives that value.  Overall chart difficulty is the sum of window
values, sorted descending, weighted by 0.9^rank.

Charts with no playable objects (score-only input at generation time)
fall back to virtual controls: each distinct sample id acts as a control
and every object contributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, isfinite

import numpy as np

from .bms import Chart
from .errors import DataError
from .timing import TimeGrid


@dataclass(frozen=True)
class StrainConfig:
    base_individual: float = 2.0
    base_overall: float = 1.0
    decay_individual: float = 0.125  # residual fraction after one second
    decay_overall: float = 0.30
    weight_individual: float = 1.0
    weight_overall: float = 1.0
    top_weight: float = 0.9
    window_seconds: float = 0.4

    def __post_init__(self):
        if not (isfinite(self.window_seconds) and self.window_seconds > 0):
            raise DataError(
                f"strain window_seconds must be finite and positive, got {self.window_seconds}"
            )
        for name in ("decay_individual", "decay_overall", "top_weight"):
            if not 0 < getattr(self, name) <= 1:
                raise DataError(f"strain {name} must be in (0, 1], got {getattr(self, name)}")
        for name in ("base_individual", "base_overall", "weight_individual", "weight_overall"):
            value = getattr(self, name)
            if not (isfinite(value) and value >= 0):
                raise DataError(f"strain {name} must be finite and at least 0, got {value}")


DEFAULT_STRAIN = StrainConfig()
MAX_CURVE_WINDOWS = 1_000_000  # 4.6 days of 0.4 s windows


@dataclass(frozen=True)
class ObjectStrain:
    individual: float
    overall: float

    def combined(self, config: StrainConfig = DEFAULT_STRAIN) -> float:
        return config.weight_individual * self.individual + config.weight_overall * self.overall


@dataclass(frozen=True)
class DifficultyCurve:
    """Windowed difficulty values and their weighted overall sum."""

    window_seconds: float
    values: tuple[float, ...]
    overall: float = 0.0


class ControlStrain:
    """Strain per control: decays by `decay` per second, and a press adds `base` per object.

    Controls are ints: lane values, control indices or sample ids.  The
    strain model keeps one for its controls and one, on control 0, for its
    overall accumulator; placement keeps its own.
    """

    def __init__(self, decay: float, base: float):
        self._decay = decay
        self._base = base
        self._strain: dict[int, float] = {}
        self._last: dict[int, float] = {}

    def at(self, control: int, t: float) -> float:
        """Residual strain of a control at time t (0 for a control never pressed)."""
        last = self._last.get(control)
        if last is None:
            return 0.0
        return self._strain[control] * self._decay ** (t - last)

    def press(self, control: int, t: float, count: int = 1) -> float:
        strain = self.at(control, t) + self._base * count
        self._strain[control] = strain
        self._last[control] = t
        return strain


def compute_strain(
    chart: Chart, grid: TimeGrid, config: StrainConfig = DEFAULT_STRAIN
) -> list[ObjectStrain | None]:
    """Per-object strain, aligned with chart.objects.

    Playable objects get an (individual, overall) pair; background objects
    get None.  If the chart has no playable objects at all, every object
    contributes with its sample id as a virtual control.
    """
    contributing = chart.playable_indices()
    if contributing:
        control_of = lambda obj: obj.lane.value
    else:
        contributing = list(range(len(chart.objects)))
        control_of = lambda obj: obj.sample.id

    result: list[ObjectStrain | None] = [None] * len(chart.objects)
    individual = ControlStrain(config.decay_individual, config.base_individual)
    overall = ControlStrain(config.decay_overall, config.base_overall)

    for group in grid.instant_groups(contributing):
        t = grid.object_seconds[group[0]]
        overall_strain = overall.press(0, t, len(group))
        for i in group:
            strain = individual.press(control_of(chart.objects[i]), t)
            result[i] = ObjectStrain(strain, overall_strain)
    return result


def difficulty_curve(
    chart: Chart,
    grid: TimeGrid,
    strains: list[ObjectStrain | None] | None = None,
    config: StrainConfig = DEFAULT_STRAIN,
) -> DifficultyCurve:
    if strains is None:
        strains = compute_strain(chart, grid, config)
    if not chart.objects:
        return DifficultyCurve(config.window_seconds, (), 0.0)

    times = grid.object_seconds
    last = max(times) / config.window_seconds
    if last >= MAX_CURVE_WINDOWS:
        raise DataError(
            f"chart lasts {max(times):.6g} s, more than {MAX_CURVE_WINDOWS} windows of "
            f"{config.window_seconds} s; check its BPM values"
        )
    values = [0.0] * (floor(last) + 1)
    for t, strain in zip(times, strains):
        if strain is None:
            continue
        w = floor(t / config.window_seconds)
        combined = strain.combined(config)
        if combined > values[w]:
            values[w] = combined
    return DifficultyCurve(config.window_seconds, tuple(values), overall_difficulty(values, config))


def overall_difficulty(values, config: StrainConfig = DEFAULT_STRAIN) -> float:
    """Window values sorted descending, weighted by top_weight ** rank, summed."""
    total = 0.0
    weight = 1.0
    for value in sorted(values, reverse=True):
        total += value * weight
        weight *= config.top_weight
    return total


def chart_difficulty(chart: Chart, config: StrainConfig = DEFAULT_STRAIN) -> DifficultyCurve:
    grid = TimeGrid(chart)
    return difficulty_curve(chart, grid, None, config)


# ---------------------------------------------------------------------------
# Curve file format: one "window_index<TAB>value" line per window
# ---------------------------------------------------------------------------


def curve_to_text(curve: DifficultyCurve) -> str:
    return "".join(f"{i}\t{value!r}\n" for i, value in enumerate(curve.values))


def curve_from_text(text: str, config: StrainConfig = DEFAULT_STRAIN) -> DifficultyCurve:
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"curve line {lineno}: expected 'index<TAB>value', got {line!r}")
        try:
            index, value = int(parts[0]), float(parts[1])
        except ValueError:
            raise DataError(f"curve line {lineno}: non-numeric field in {line!r}") from None
        if index != len(values):
            raise DataError(f"curve line {lineno}: expected window index {len(values)}, got {index}")
        if not (isfinite(value) and value >= 0):
            raise DataError(f"curve line {lineno}: negative or non-finite difficulty {value}")
        values.append(value)
    return DifficultyCurve(config.window_seconds, tuple(values), overall_difficulty(values, config))


def curve_value_at(curve: DifficultyCurve, seconds):
    """Difficulty of the window containing each given time (0 before the start and past the end)."""
    seconds = np.asarray(seconds, dtype=np.float64)
    windows = np.floor(seconds / curve.window_seconds)
    inside = (seconds >= 0) & (windows < len(curve.values))
    values = np.append(curve.values, 0.0)  # the last slot answers every time outside the curve
    return values[np.where(inside, windows, len(curve.values)).astype(np.intp)]
