"""Strain model tests against a literal unrolled-sum oracle."""

import random
from fractions import Fraction

import pytest

from keysoundgen.bms import BpmEvent, Lane, SampleRef, TimedObject, make_chart
from keysoundgen.corpus import random_chart, random_score
from keysoundgen import difficulty
from keysoundgen.difficulty import (
    DifficultyCurve,
    StrainConfig,
    chart_difficulty,
    compute_strain,
    curve_from_text,
    curve_to_text,
    curve_value_at,
    difficulty_curve,
    overall_difficulty,
)
from keysoundgen.errors import DataError
from keysoundgen.timing import TimeGrid

CFG = StrainConfig()


def chart_from_notes(notes, bpm=120.0):
    """notes: list of (measure, position, lane). One shared sample."""
    table = {1: "a.wav"}
    objects = [
        TimedObject(m, Fraction(p), SampleRef(1, "a.wav"), lane, lane.playable)
        for m, p, lane in notes
    ]
    return make_chart(objects, table, [BpmEvent(0, Fraction(0), bpm)])


def oracle_strains(chart, config=CFG):
    """O(n^2) unrolled transcription of the strain recurrence.

    Individual strain after an event is the sum of decayed base amounts
    over every earlier event on the same control; overall strain is the
    same sum over simultaneous-group sizes.  No incremental state.
    """
    grid = TimeGrid(chart)
    contributing = [i for i, o in enumerate(chart.objects) if o.playable]
    if contributing:
        control = lambda o: o.lane
    else:
        contributing = list(range(len(chart.objects)))
        control = lambda o: o.sample.id

    groups = []
    for i in contributing:
        key = (chart.objects[i].measure, chart.objects[i].position)
        if groups and groups[-1][0] == key:
            groups[-1][1].append(i)
        else:
            groups.append((key, [i]))

    results = [None] * len(chart.objects)
    control_times = {}
    group_history = []  # (time, simultaneous count)
    for _, members in groups:
        t = grid.object_seconds[members[0]]
        group_history.append((t, len(members)))
        overall = sum(
            config.base_overall * k * config.decay_overall ** (t - s)
            for s, k in group_history
        )
        for i in members:
            c = control(chart.objects[i])
            control_times.setdefault(c, []).append(t)
            individual = sum(
                config.base_individual * config.decay_individual ** (t - s)
                for s in control_times[c]
            )
            results[i] = (individual, overall)
    return results


def assert_matches_oracle(chart, tolerance=1e-9):
    got = compute_strain(chart, TimeGrid(chart), CFG)
    expected = oracle_strains(chart, CFG)
    assert len(got) == len(expected)
    for ours, theirs in zip(got, expected):
        if theirs is None:
            assert ours is None
        else:
            assert ours is not None
            assert abs(ours.individual - theirs[0]) <= tolerance
            assert abs(ours.overall - theirs[1]) <= tolerance


# -- recurrence basics --------------------------------------------------------

def test_single_isolated_note():
    chart = chart_from_notes([(0, 0, Lane.K1)])
    (strain,) = compute_strain(chart, TimeGrid(chart))
    assert strain.individual == CFG.base_individual
    assert strain.overall == CFG.base_overall
    assert strain.combined() == CFG.base_individual + CFG.base_overall


def test_two_simultaneous_notes_beat_isolated_note():
    chart = chart_from_notes([(0, 0, Lane.K1), (0, 0, Lane.K2)])
    strains = compute_strain(chart, TimeGrid(chart))
    isolated = CFG.base_individual + CFG.base_overall
    for strain in strains:
        assert strain.combined() > isolated
    assert_matches_oracle(chart)


def test_short_gap_strains_more_than_long_gap():
    # at 120 bpm, 1/20 of a measure is 0.1 s and a full measure is 2 s
    close = chart_from_notes([(0, 0, Lane.K1), (0, Fraction(1, 20), Lane.K1)])
    far = chart_from_notes([(0, 0, Lane.K1), (1, 0, Lane.K1)])
    close_second = compute_strain(close, TimeGrid(close))[1]
    far_second = compute_strain(far, TimeGrid(far))[1]
    assert close_second.combined() > far_second.combined()
    assert_matches_oracle(close)
    assert_matches_oracle(far)


def test_background_objects_get_no_strain():
    table = {1: "a.wav", 2: "b.wav"}
    objects = [
        TimedObject(0, Fraction(0), SampleRef(1, "a.wav"), Lane.K1, True),
        TimedObject(0, Fraction(1, 2), SampleRef(2, "b.wav"), Lane.BG, False),
    ]
    chart = make_chart(objects, table, [BpmEvent(0, Fraction(0), 120.0)])
    strains = compute_strain(chart, TimeGrid(chart))
    assert strains[0] is not None
    assert strains[1] is None


def test_virtual_controls_when_no_playables():
    table = {1: "a.wav", 2: "b.wav"}
    objects = [
        TimedObject(0, Fraction(0), SampleRef(1, "a.wav"), Lane.BG, False),
        TimedObject(0, Fraction(0), SampleRef(2, "b.wav"), Lane.BG, False),
        TimedObject(0, Fraction(1, 2), SampleRef(1, "a.wav"), Lane.BG, False),
    ]
    chart = make_chart(objects, table, [BpmEvent(0, Fraction(0), 120.0)])
    strains = compute_strain(chart, TimeGrid(chart))
    assert all(s is not None for s in strains)
    # the third object shares sample 1 with the first: residual strain
    assert strains[2].individual > strains[0].individual
    assert_matches_oracle(chart)


def test_incremental_matches_oracle_on_random_charts():
    rng = random.Random(4821)
    for _ in range(40):
        assert_matches_oracle(random_chart(rng))
    for _ in range(10):
        chart, _ = random_score(rng)  # background-only: virtual-control mode
        assert_matches_oracle(chart)


def test_strain_state_never_negative():
    rng = random.Random(99)
    for _ in range(10):
        chart = random_chart(rng)
        for strain in compute_strain(chart, TimeGrid(chart)):
            if strain is not None:
                assert strain.individual >= 0.0
                assert strain.overall >= 0.0


# -- difficulty curve ---------------------------------------------------------

def test_curve_empty_chart():
    chart = make_chart([], {}, [BpmEvent(0, Fraction(0), 120.0)])
    curve = chart_difficulty(chart)
    assert curve.values == ()
    assert curve.overall == 0.0


def test_curve_window_max_shared_by_all_objects_in_window():
    # 120 bpm: a 16th is 0.125 s, so the first three 16ths share window 0
    chart = chart_from_notes(
        [(0, 0, Lane.K1), (0, Fraction(1, 16), Lane.K2), (0, Fraction(1, 8), Lane.K3)]
    )
    curve = chart_difficulty(chart)
    grid = TimeGrid(chart)
    per_object = [curve_value_at(curve, t) for t in grid.object_seconds]
    assert len(set(per_object)) == 1
    strains = compute_strain(chart, grid)
    assert per_object[0] == max(s.combined() for s in strains)


def test_curve_empty_windows_are_zero():
    chart = chart_from_notes([(0, 0, Lane.K1), (1, 0, Lane.K1)], bpm=120.0)
    curve = chart_difficulty(chart)
    # second note at 2.0 s -> window 5; windows 1..4 are silent
    assert len(curve.values) == 6
    assert curve.values[0] > 0.0
    assert curve.values[5] > 0.0
    assert all(v == 0.0 for v in curve.values[1:5])


def test_object_exactly_on_window_boundary_goes_right():
    # 150 bpm makes one beat exactly 0.4 s
    chart = chart_from_notes([(0, Fraction(1, 4), Lane.K1)], bpm=150.0)
    grid = TimeGrid(chart)
    assert grid.object_seconds[0] == 0.4
    curve = chart_difficulty(chart)
    assert curve.values[0] == 0.0
    assert curve.values[1] > 0.0


def test_curve_window_count_has_a_ceiling(monkeypatch):
    # 120 bpm: the note in measure 1 sits at 2.0 s, window index 5
    chart = chart_from_notes([(0, 0, Lane.K1), (1, 0, Lane.K1)], bpm=120.0)
    monkeypatch.setattr(difficulty, "MAX_CURVE_WINDOWS", 6)
    assert len(chart_difficulty(chart).values) == 6
    monkeypatch.setattr(difficulty, "MAX_CURVE_WINDOWS", 5)
    with pytest.raises(DataError, match="more than 5 windows"):
        chart_difficulty(chart)


@pytest.mark.parametrize("window", [0.0, -1.0, float("nan"), float("inf")])
def test_window_seconds_must_be_finite_and_positive(window):
    with pytest.raises(DataError, match="window_seconds"):
        StrainConfig(window_seconds=window)


def test_background_objects_inherit_window_difficulty():
    table = {1: "a.wav", 2: "b.wav"}
    objects = [
        TimedObject(0, Fraction(0), SampleRef(1, "a.wav"), Lane.K1, True),
        TimedObject(0, Fraction(1, 16), SampleRef(2, "b.wav"), Lane.BG, False),
    ]
    chart = make_chart(objects, table, [BpmEvent(0, Fraction(0), 120.0)])
    curve = chart_difficulty(chart)
    first, second = (curve_value_at(curve, t) for t in TimeGrid(chart).object_seconds)
    assert second == first > 0.0


# -- overall difficulty -------------------------------------------------------

def test_overall_examples():
    assert overall_difficulty(()) == 0.0
    assert overall_difficulty((10.0,)) == 10.0
    assert overall_difficulty((10.0, 5.0)) == 14.5
    assert overall_difficulty((5.0, 10.0)) == 14.5


def test_overall_matches_power_oracle():
    rng = random.Random(7)
    for _ in range(20):
        values = [rng.uniform(0, 30) for _ in range(rng.randint(0, 40))]
        got = overall_difficulty(tuple(values))
        expected = sum(v * 0.9**i for i, v in enumerate(sorted(values, reverse=True)))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_time_shift_moves_curve_by_whole_windows():
    # 150 bpm: one measure is 1.6 s = 4 windows; offsets dodge boundaries
    notes = [(0, Fraction(1, 32), Lane.K1), (0, Fraction(9, 32), Lane.K2),
             (1, Fraction(3, 32), Lane.K1)]
    shifted = [(m + 1, p, lane) for m, p, lane in notes]
    curve = chart_difficulty(chart_from_notes(notes, bpm=150.0))
    curve_shifted = chart_difficulty(chart_from_notes(shifted, bpm=150.0))
    assert len(curve_shifted.values) == len(curve.values) + 4
    assert all(v == 0.0 for v in curve_shifted.values[:4])
    for a, b in zip(curve.values, curve_shifted.values[4:]):
        assert abs(a - b) <= 1e-9


def test_densification_never_lowers_overall():
    rng = random.Random(314)
    for _ in range(15):
        chart = random_chart(rng)
        playable = [o for o in chart.objects if o.playable]
        if not playable:
            continue
        base = chart_difficulty(chart).overall
        # insert one more playable note on a free lane slot
        for lane in (Lane.K1, Lane.K2, Lane.K3, Lane.K4, Lane.K5, Lane.K6, Lane.K7, Lane.TT):
            measure = rng.randint(0, 3)
            position = Fraction(rng.randrange(16), 16)
            taken = any(
                o.measure == measure and o.position == position and o.lane == lane
                for o in chart.objects
            )
            if not taken:
                sid = next(iter(chart.sample_table))
                extra = TimedObject(
                    measure, position, SampleRef(sid, chart.sample_table[sid]), lane, True
                )
                denser = make_chart(
                    list(chart.objects) + [extra],
                    chart.sample_table,
                    chart.bpm_events,
                    chart.measure_lengths,
                )
                assert chart_difficulty(denser).overall >= base - 1e-12
                break


def test_scaling_bases_scales_everything_exactly():
    rng = random.Random(55)
    chart = random_chart(rng)
    doubled = StrainConfig(
        base_individual=CFG.base_individual * 2, base_overall=CFG.base_overall * 2
    )
    grid = TimeGrid(chart)
    ones = compute_strain(chart, grid, CFG)
    twos = compute_strain(chart, grid, doubled)
    for a, b in zip(ones, twos):
        if a is None:
            assert b is None
            continue
        assert b.individual == 2.0 * a.individual
        assert b.overall == 2.0 * a.overall
    assert (
        difficulty_curve(chart, grid, None, doubled).overall
        == 2.0 * difficulty_curve(chart, grid, None, CFG).overall
    )


# -- curve file ---------------------------------------------------------------

def test_curve_file_roundtrip():
    chart = chart_from_notes([(0, 0, Lane.K1), (2, Fraction(1, 2), Lane.K2)])
    curve = chart_difficulty(chart)
    recovered = curve_from_text(curve_to_text(curve))
    assert recovered.values == curve.values
    assert recovered.overall == curve.overall


def test_curve_file_rejects_bad_lines():
    with pytest.raises(DataError, match="index"):
        curve_from_text("1\t3.0\n")
    with pytest.raises(DataError, match="fields|expected"):
        curve_from_text("0 3.0\n")
    with pytest.raises(DataError, match="negative"):
        curve_from_text("0\t-1.0\n")


def test_curve_value_lookup():
    curve = DifficultyCurve(0.4, (1.0, 2.0, 3.0))
    assert curve_value_at(curve, 0.0) == 1.0
    assert curve_value_at(curve, 0.79) == 2.0
    assert curve_value_at(curve, 5.0) == 0.0
    assert curve_value_at(curve, -0.1) == 0.0
