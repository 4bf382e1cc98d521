"""Mapping from chart positions (measure + fraction) to beats and seconds.

A measure of length L spans 4*L beats, so position p inside measure m sits
at beat(m, p) = sum(4 * L_j for j < m) + 4 * L_m * p.  Beat arithmetic is
exact: each beat is one integer numerator over one integer denominator,
converted to float by a single int / int, which Python rounds correctly
(the same float as float(Fraction)).  Seconds come from piecewise
integration of 60/bpm between BPM change events.  No other module turns a
position into time: they index TimeGrid's per-object columns.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import groupby

from .bms import Chart
from .errors import DataError


def _measure_terms(base: Fraction, scale: Fraction) -> tuple[int, int, int]:
    """(a, b, c) with base + scale * n/d == (a*d + b*n) / (c*d) for any n/d."""
    return (
        base.numerator * scale.denominator,
        scale.numerator * base.denominator,
        base.denominator * scale.denominator,
    )


class TimeGrid:
    """Per-object columns for one chart, aligned with chart.objects.

    object_beats and object_seconds hold each object's time; object_instants
    numbers the distinct exact (measure, position) instants 0, 1, 2, ...
    """

    def __init__(self, chart: Chart):
        self._lengths = dict(chart.measure_lengths)
        base = Fraction(0)
        terms: list[tuple[int, int, int]] = []
        for measure in range(chart.max_measure + 1):
            scale = 4 * self._length(measure)
            terms.append(_measure_terms(base, scale))
            base += scale
        self._terms = terms
        self._end = base  # first beat past the last measure

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

        # Objects are sorted, so each instant is one run and is converted
        # once.  Positions are in [0, 1), so two objects share an instant
        # exactly when their exact beats are equal.
        self.object_beats: list[float] = []
        self.object_seconds: list[float] = []
        self.object_instants: list[int] = []
        instant = -1
        numerator, denominator = -1, 1  # below every beat
        measure = position = None
        for obj in chart.objects:
            if obj.position is not position or obj.measure != measure:
                measure, position = obj.measure, obj.position
                n, d = self._ratio(measure, position)
                if n * denominator != numerator * d:
                    numerator, denominator = n, d
                    instant += 1
                    beat = self._float_beat(measure, position, n, d)
                    seconds = self._seconds_at_beat(beat)
                    if not math.isfinite(seconds):
                        raise DataError(
                            f"object at measure {measure} position {position} "
                            f"has no finite time; a BPM in this chart is too small"
                        )
            self.object_beats.append(beat)
            self.object_seconds.append(seconds)
            self.object_instants.append(instant)

    def instant_groups(self, indices):
        """Split ascending object indices into runs sharing one instant."""
        for _, run in groupby(indices, self.object_instants.__getitem__):
            yield list(run)

    def _length(self, measure: int) -> Fraction:
        return self._lengths.get(measure, Fraction(1))

    def _ratio(self, measure: int, position: Fraction) -> tuple[int, int]:
        """The exact beat of (measure, position) as (numerator, denominator)."""
        if measure < len(self._terms):
            a, b, c = self._terms[measure]
        else:
            # past the precomputed range; extend with default-length measures
            base = self._end + 4 * (measure - len(self._terms))
            a, b, c = _measure_terms(base, 4 * self._length(measure))
        n, d = position.numerator, position.denominator
        return a * d + b * n, c * d

    @staticmethod
    def _float_beat(measure: int, position: Fraction, numerator: int, denominator: int) -> float:
        try:
            return numerator / denominator  # correctly rounded, as float(Fraction) is
        except OverflowError:
            raise DataError(
                f"measure {measure} position {position} lies past any finite beat; "
                f"a measure length in this chart is too large"
            ) from None

    def beats(self, measure: int, position: Fraction | float) -> float:
        position = Fraction(position)
        return self._float_beat(measure, position, *self._ratio(measure, position))

    def _seconds_at_beat(self, beat: float) -> float:
        # make_chart puts the first BPM event at beat 0, so every beat has an anchor
        i = bisect_right(self._anchor_beats, beat) - 1
        anchor_beat, anchor_seconds, bpm = self._anchors[i]
        return anchor_seconds + (beat - anchor_beat) * 60.0 / bpm
