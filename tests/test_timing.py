"""Beat and second conversion tests."""

from fractions import Fraction

import pytest

from keysoundgen.bms import BpmEvent, Lane, SampleRef, TimedObject, make_chart
from keysoundgen.errors import DataError
from keysoundgen.timing import TimeGrid


def grid(bpm_events, measure_lengths=None):
    return TimeGrid(make_chart([], {}, bpm_events, measure_lengths or {}))


def test_beats_default_measures():
    g = grid([BpmEvent(0, Fraction(0), 120.0)])
    assert g.beats(0, Fraction(0)) == 0.0
    assert g.beats(0, Fraction(1, 2)) == 2.0
    assert g.beats(1, Fraction(0)) == 4.0
    assert g.beats(3, Fraction(1, 4)) == 13.0


def test_beats_with_short_measure():
    # measure 1 is 3/4 long: 3 beats instead of 4
    g = grid([BpmEvent(0, Fraction(0), 120.0)], {1: Fraction(3, 4)})
    assert g.beats(1, Fraction(0)) == 4.0
    assert g.beats(1, Fraction(1, 2)) == 5.5
    assert g.beats(2, Fraction(0)) == 7.0


def test_beats_exact_is_rational():
    g = grid([BpmEvent(0, Fraction(0), 120.0)], {0: Fraction(7, 12)})
    assert Fraction(*g._ratio(0, Fraction(1, 3))) == Fraction(7, 9)
    assert Fraction(*g._ratio(1, Fraction(0))) == Fraction(7, 3)


def test_beats_past_precomputed_range():
    g = grid([BpmEvent(0, Fraction(0), 120.0)], {0: Fraction(2)})
    # max measure is 0; measure 5 extends with default-length measures
    assert g.beats(5, Fraction(0)) == 8.0 + 4.0 * 4


def seconds(bpm_events, positions):
    """object_seconds of a chart holding one background object per (measure, position)."""
    objects = [
        TimedObject(m, Fraction(p), SampleRef(1), Lane.BG) for m, p in positions
    ]
    return TimeGrid(make_chart(objects, {1: "a.wav"}, bpm_events)).object_seconds


def test_seconds_constant_bpm():
    # 120 bpm: half a second per beat
    times = seconds([BpmEvent(0, Fraction(0), 120.0)], [(0, 0), (1, 0), (2, Fraction(1, 2))])
    assert times[0] == 0.0
    assert times[1] == pytest.approx(2.0)
    assert times[2] == pytest.approx(5.0)


def test_seconds_with_bpm_change():
    # 4 beats at 120 (2 s), then 240 bpm (0.25 s per beat)
    events = [BpmEvent(0, Fraction(0), 120.0), BpmEvent(1, Fraction(0), 240.0)]
    assert seconds(events, [(1, 0), (2, 0)]) == [pytest.approx(2.0), pytest.approx(3.0)]


def test_seconds_mid_measure_bpm_change():
    events = [BpmEvent(0, Fraction(0), 60.0), BpmEvent(0, Fraction(1, 2), 120.0)]
    # first 2 beats at 60 bpm = 2 s, next 2 beats at 120 = 1 s
    assert seconds(events, [(0, Fraction(1, 2)), (1, 0)]) == [
        pytest.approx(2.0),
        pytest.approx(3.0),
    ]


def test_seconds_monotone_under_many_changes():
    events = [BpmEvent(0, Fraction(0), 100.0)]
    for m in range(1, 8):
        events.append(BpmEvent(m, Fraction(1, 4), 60.0 + 30.0 * (m % 4)))
    times = seconds(events, [(m, Fraction(k, 8)) for m in range(9) for k in range(8)])
    assert all(b > a for a, b in zip(times, times[1:]))


def test_time_columns_align_with_objects():
    chart = make_chart(
        [
            TimedObject(0, Fraction(1, 4), SampleRef(1), Lane.K1),
            TimedObject(0, Fraction(1, 4), SampleRef(1), Lane.BG),
            TimedObject(2, Fraction(0), SampleRef(1), Lane.BG),
        ],
        {1: "a.wav"},
        [BpmEvent(0, Fraction(0), 150.0)],
    )
    g = TimeGrid(chart)
    assert g.object_beats == [g.beats(o.measure, o.position) for o in chart.objects]
    assert g.object_beats == [1.0, 1.0, 8.0]
    # 150 bpm: 0.4 s per beat
    assert g.object_seconds == [0.4, 0.4, 8.0 * 60.0 / 150.0]


def test_instants_are_exact_not_float():
    # 1/10**20 and 2/10**20 of a measure land on the same float beat but
    # are different instants; 1/2 and 2/4 are one instant
    tiny = [Fraction(1, 10**20), Fraction(2, 10**20)]
    objects = [
        TimedObject(1, position, SampleRef(1), Lane.BG)
        for position in tiny + [Fraction(1, 2), Fraction(2, 4), Fraction(3, 4)]
    ]
    chart = make_chart(objects, {1: "a.wav"}, [BpmEvent(0, Fraction(0), 120.0)])
    g = TimeGrid(chart)
    assert g.object_beats[0] == g.object_beats[1] == 4.0
    assert g.object_instants == [0, 1, 2, 2, 3]
    assert list(g.instant_groups(range(5))) == [[0], [1], [2, 3], [4]]
    assert list(g.instant_groups([0, 2, 4])) == [[0], [2], [4]]
    assert list(g.instant_groups([])) == []


def test_beats_match_exact_fraction_conversion():
    # int / int of the unreduced beat is the float of the reduced Fraction
    lengths = {0: Fraction(3, 7), 2: Fraction(11, 13), 3: Fraction(10**30 + 1, 10**29)}
    chart = make_chart([], {}, [BpmEvent(0, Fraction(0), 120.0)], lengths)
    g = TimeGrid(chart)
    for measure in range(6):
        for position in (Fraction(0), Fraction(1, 3), Fraction(5, 97), Fraction(10**17 - 1, 10**17)):
            length = lambda j: lengths.get(j, Fraction(1))
            exact = sum(4 * length(j) for j in range(measure)) + 4 * length(measure) * position
            assert Fraction(*g._ratio(measure, position)) == exact
            assert g.beats(measure, position) == float(exact)


def test_non_finite_time_is_rejected():
    # 60 / 1e-310 overflows to infinity
    events = [BpmEvent(0, Fraction(0), 1e-310)]
    with pytest.raises(DataError, match="no finite time"):
        seconds(events, [(1, 0)])


def test_beat_past_float_range_is_rejected():
    events = [BpmEvent(0, Fraction(0), 120.0)]
    chart = make_chart(
        [TimedObject(1, Fraction(0), SampleRef(1), Lane.BG)],
        {1: "a.wav"},
        events,
        {0: Fraction(10**400)},
    )
    with pytest.raises(DataError, match="past any finite beat"):
        TimeGrid(chart)
