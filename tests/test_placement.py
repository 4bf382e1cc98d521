"""Control assignment: collision freedom, balance, turntable handling."""

import random
from fractions import Fraction

import pytest

from keysoundgen.bms import BpmEvent, Lane, SampleRef, TimedObject, make_chart
from keysoundgen.errors import PlacementOverflowError
from keysoundgen.placement import (
    CONTROL_LANES,
    apply_selection,
    assign_controls,
)

from charts import random_score
from keysoundgen.timing import TimeGrid


def background_chart(slots, sample_count=None):
    """slots: list of (measure, position [, sample_id]); everything on BG."""
    normalized = []
    for slot in slots:
        if len(slot) == 3:
            normalized.append((slot[0], Fraction(slot[1]), slot[2]))
        else:
            normalized.append((slot[0], Fraction(slot[1]), 1))
    ids = sorted({sid for _, _, sid in normalized})
    table = {sid: f"s{sid}.wav" for sid in ids}
    objects = [
        TimedObject(m, p, SampleRef(sid), Lane.BG)
        for m, p, sid in normalized
    ]
    return make_chart(objects, table, [BpmEvent(0, Fraction(0), 120.0)])


def test_single_fresh_object_lands_on_first_key():
    chart = background_chart([(0, 0)])
    lanes = assign_controls(chart, TimeGrid(chart), [True])
    assert lanes == [Lane.K1]


def test_unflagged_objects_stay_in_background():
    chart = background_chart([(0, 0), (0, Fraction(1, 2))])
    lanes = assign_controls(chart, TimeGrid(chart), [True, False])
    assert lanes == [Lane.K1, Lane.BG]


def test_group_of_eight_fills_every_control():
    chart = background_chart([(0, 0, sid) for sid in range(1, 9)])
    lanes = assign_controls(chart, TimeGrid(chart), [True] * 8)
    assert sorted(lanes, key=lambda l: l.value) == sorted(
        CONTROL_LANES, key=lambda l: l.value
    )


def test_group_of_nine_overflows():
    chart = background_chart([(0, 0, sid) for sid in range(1, 10)])
    with pytest.raises(PlacementOverflowError, match="9 simultaneous"):
        assign_controls(chart, TimeGrid(chart), [True] * 9)


def test_seven_simultaneous_leave_turntable_alone():
    chart = background_chart([(0, 0, sid) for sid in range(1, 8)])
    lanes = assign_controls(chart, TimeGrid(chart), [True] * 7)
    assert Lane.TT not in lanes


def test_consecutive_notes_spread_across_hands():
    # 16ths at 120 bpm: each press leaves residual strain on its control
    chart = background_chart([(0, Fraction(i, 16), i + 1) for i in range(4)])
    lanes = assign_controls(chart, TimeGrid(chart), [True] * 4)
    assert lanes[0] == Lane.K1
    assert len(set(lanes)) == 4


def test_fresh_control_beats_rested_one():
    # residual strain never decays to exactly zero, so an untouched
    # control always wins the argmin over one that was pressed before
    chart = background_chart([(0, 0), (10, 0)])
    lanes = assign_controls(chart, TimeGrid(chart), [True, True])
    assert lanes == [Lane.K1, Lane.K2]


def test_scratch_prefers_turntable():
    chart = background_chart([(0, 0, 1), (0, 0, 2)])
    lanes = assign_controls(
        chart, TimeGrid(chart), [True, True], scratch_samples={2}
    )
    assert lanes[1] == Lane.TT
    assert lanes[0] in CONTROL_LANES[:-1]


def test_two_scratches_at_once_overflow_to_keys():
    chart = background_chart([(0, 0, 1), (0, 0, 2)])
    lanes = assign_controls(
        chart, TimeGrid(chart), [True, True], scratch_samples={1, 2}
    )
    # sample-id order: first scratch takes the turntable, second gets a key
    assert lanes[0] == Lane.TT
    assert lanes[1] == Lane.K1


def test_flag_length_mismatch():
    chart = background_chart([(0, 0)])
    with pytest.raises(ValueError):
        assign_controls(chart, TimeGrid(chart), [True, False])


def test_assignment_is_deterministic():
    rng = random.Random(11)
    chart, flags = random_score(rng)
    grid = TimeGrid(chart)
    first = assign_controls(chart, grid, flags)
    second = assign_controls(chart, grid, flags)
    assert first == second


def test_fuzzed_scores_place_without_collisions():
    rng = random.Random(60601)
    for _ in range(150):
        chart, flags = random_score(rng)
        placed = apply_selection(chart, flags)
        seen = set()
        for obj in placed.objects:
            if obj.playable:
                key = (obj.measure, obj.position, obj.lane)
                assert key not in seen
                seen.add(key)


def test_apply_selection_conserves_objects():
    rng = random.Random(424)
    for _ in range(50):
        chart, flags = random_score(rng)
        placed = apply_selection(chart, flags)
        assert len(placed.objects) == len(chart.objects)
        before = sorted(
            (o.measure, o.position, o.sample.id) for o in chart.objects
        )
        after = sorted(
            (o.measure, o.position, o.sample.id) for o in placed.objects
        )
        assert before == after
        assert sum(o.playable for o in placed.objects) == sum(flags)


def test_apply_selection_flags_map_to_lanes():
    chart = background_chart([(0, 0, 1), (0, Fraction(1, 2), 2), (1, 0, 3)])
    placed = apply_selection(chart, [True, False, True])
    playability = {
        (o.measure, o.position): o.playable for o in placed.objects
    }
    assert playability[(0, Fraction(0))] is True
    assert playability[(0, Fraction(1, 2))] is False
    assert playability[(1, Fraction(0))] is True
