"""Mapping from chart positions (measure + fraction) to beats and seconds.

A measure of length L spans 4*L beats, so position p inside measure m sits
at beat(m, p) = sum(4 * L_j for j < m) + 4 * L_m * p.  Beat arithmetic is
done on exact rationals and converted to float at the end.  Seconds come
from piecewise integration of 60/bpm between BPM change events.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .bms import Chart


class TimeGrid:
    """Precomputed beat/second lookup for one chart."""

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
        return float(self.beats_exact(measure, Fraction(position)))

    def seconds_at_beat(self, beat: float) -> float:
        i = bisect_right(self._anchor_beats, beat) - 1
        if i < 0:
            i = 0  # before the first anchor: extrapolate backwards at the initial BPM
        anchor_beat, anchor_seconds, bpm = self._anchors[i]
        return anchor_seconds + (beat - anchor_beat) * 60.0 / bpm

    def seconds(self, measure: int, position: Fraction | float) -> float:
        return self.seconds_at_beat(self.beats(measure, position))

    def object_times(self, chart: Chart) -> list[float]:
        return [self.seconds(o.measure, o.position) for o in chart.objects]
