"""Mapping from chart positions (measure + fraction) to beats and seconds.

A measure of length L spans 4*L beats, so position p inside measure m sits
at beat(m, p) = sum(4 * L_j for j < m) + 4 * L_m * p.  Beat arithmetic is
done on exact rationals and converted to float at the end.  Seconds come
from piecewise integration of 60/bpm between BPM change events.  No other
module turns a position into time: they index TimeGrid's per-object columns.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from .bms import Chart
from .errors import DataError


class TimeGrid:
    """Each object's beat (object_beats) and second (object_seconds) for one chart."""

    def __init__(self, chart: Chart):
        self._lengths = dict(chart.measure_lengths)
        last = chart.max_measure
        cumulative: list[Fraction] = [Fraction(0)]
        for measure in range(last + 1):
            cumulative.append(cumulative[-1] + 4 * self._length(measure))
        self._cumulative = cumulative

        # (beat, seconds at that beat, bpm from that beat on)
        anchors: list[tuple[float, float, float]] = []
        seconds = 0.0
        prev_beat = 0.0
        prev_bpm = chart.bpm_events[0].bpm
        for event in chart.bpm_events:
            beat = self.beats(event.measure, event.position)
            seconds += (beat - prev_beat) * 60.0 / prev_bpm
            anchors.append((beat, seconds, event.bpm))
            prev_beat, prev_bpm = beat, event.bpm
        self._anchors = anchors
        self._anchor_beats = [a[0] for a in anchors]

        # objects are sorted, so each instant is one run and is converted once
        self.object_beats: list[float] = []
        self.object_seconds: list[float] = []
        key = None
        for obj in chart.objects:
            if (obj.measure, obj.position) != key:
                key = (obj.measure, obj.position)
                beat = self.beats(*key)
                seconds = self._seconds_at_beat(beat)
                if not math.isfinite(seconds):
                    raise DataError(
                        f"object at measure {obj.measure} position {obj.position} "
                        f"has no finite time; a BPM in this chart is too small"
                    )
            self.object_beats.append(beat)
            self.object_seconds.append(seconds)

    def _length(self, measure: int) -> Fraction:
        return self._lengths.get(measure, Fraction(1))

    def beats_exact(self, measure: int, position: Fraction) -> Fraction:
        if measure < len(self._cumulative) - 1:
            base = self._cumulative[measure]
        else:
            # past the precomputed range; extend with default-length measures
            known = len(self._cumulative) - 1
            base = self._cumulative[known] + 4 * (measure - known)
        return base + 4 * self._length(measure) * Fraction(position)

    def beats(self, measure: int, position: Fraction | float) -> float:
        try:
            return float(self.beats_exact(measure, Fraction(position)))
        except OverflowError:
            raise DataError(
                f"measure {measure} position {position} lies past any finite beat; "
                f"a measure length in this chart is too large"
            ) from None

    def _seconds_at_beat(self, beat: float) -> float:
        # make_chart puts the first BPM event at beat 0, so every beat has an anchor
        i = bisect_right(self._anchor_beats, beat) - 1
        anchor_beat, anchor_seconds, bpm = self._anchors[i]
        return anchor_seconds + (beat - anchor_beat) * 60.0 / bpm
