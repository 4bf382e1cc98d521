"""Feature vector tests: alignment, rolling summaries, modes, dump format."""

import random
from fractions import Fraction

import numpy as np
import pytest

from keysoundgen.audio import load_taxonomy
from keysoundgen.bms import BpmEvent, Lane, SampleRef, TimedObject, make_chart
from keysoundgen.difficulty import chart_difficulty
from keysoundgen.errors import DataError
from keysoundgen.features import (
    ALIGNMENT_SNAP,
    COL_ALIGNMENT,
    COL_DIFFICULTY,
    COL_ONEHOT,
    COL_SUMMARY,
    FEATURE_DIM,
    FULL_MODE,
    NO_DIFFICULTY_MODE,
    NO_SUMMARY_MODE,
    SUMMARY_DIM,
    SUMMARY_WINDOWS,
    FeatureMode,
    HistoryEvent,
    SummaryAccumulator,
    beat_alignment,
    build_features,
    load_features,
    save_features,
)
from keysoundgen.timing import TimeGrid

TAXONOMY = load_taxonomy()
CLASSES = 27


def oracle_summary(history, now):
    """Counting oracle: per (window, class) tally playable/non-playable shares."""
    vector = []
    for window in SUMMARY_WINDOWS:
        for class_index in range(CLASSES):
            playable = 0
            total = 0
            for event in history:
                if now - window <= event.beat < now and event.instrument == class_index:
                    total += 1
                    if event.playable:
                        playable += 1
            if total == 0:
                vector.extend([0.0, 0.0])
            else:
                vector.extend([playable / total, (total - playable) / total])
    return vector


def summarize(history, now):
    """The production summary: push the whole history, then read the vector at now."""
    acc = SummaryAccumulator()
    for event in history:
        acc.push(*event)
    return acc.vector_at(now)


def random_history(rng, count, span=40.0):
    events = sorted(rng.uniform(0.0, span) for _ in range(count))
    return [
        HistoryEvent(beat, rng.randrange(CLASSES), rng.random() < 0.4)
        for beat, _ in zip(events, range(count))
    ]


# -- beat alignment -----------------------------------------------------------

def test_alignment_examples():
    assert beat_alignment(7.0) == 0
    assert beat_alignment(3.5) == 8
    assert beat_alignment(2.0625) == 1
    assert beat_alignment(0.25) == 4
    assert beat_alignment(1.1) == 1  # 0.1 * 16 = 1.6 floors to 1


def test_alignment_snaps_near_slot_boundaries():
    # just below slot 4, within snapping distance
    assert beat_alignment(0.25 - ALIGNMENT_SNAP / 32) == 4
    # clearly below slot 4, outside snapping distance
    assert beat_alignment(0.25 - 1e-3) == 3
    # snapping across the beat boundary wraps to slot 0
    assert beat_alignment(1.0 - ALIGNMENT_SNAP / 32) == 0


def test_alignment_range():
    rng = random.Random(12)
    for _ in range(500):
        assert 0 <= beat_alignment(rng.uniform(0, 64)) <= 15


# -- summaries ----------------------------------------------------------------

def test_summary_empty_history():
    vector = summarize([], 10.0)
    assert vector.shape == (SUMMARY_DIM,)
    assert not vector.any()


def test_summary_single_event_counts_in_every_window():
    drum = TAXONOMY.label("drum").index
    history = [HistoryEvent(9.0, drum, True)]
    vector = summarize(history, 10.0)
    for w, _ in enumerate(SUMMARY_WINDOWS):
        assert vector[w * CLASSES * 2 + drum * 2] == 1.0
        assert vector[w * CLASSES * 2 + drum * 2 + 1] == 0.0
    assert sum(vector) == float(len(SUMMARY_WINDOWS))


def test_summary_window_cutoffs_are_half_open():
    drum = 0
    # at the lower edge of the 2-beat window: included
    assert summarize([HistoryEvent(8.0, drum, True)], 10.0)[drum * 2] == 1.0
    # at "now": excluded everywhere
    assert not summarize([HistoryEvent(10.0, drum, True)], 10.0).any()
    # just before the 2-beat window starts: excluded there, included in 4-beat
    vector = summarize([HistoryEvent(7.5, drum, True)], 10.0)
    assert vector[drum * 2] == 0.0
    assert vector[CLASSES * 2 + drum * 2] == 1.0


def test_summary_mixed_ratio():
    history = [HistoryEvent(9.0, 3, True), HistoryEvent(9.5, 3, False)]
    vector = summarize(history, 10.0)
    assert vector[3 * 2] == 0.5
    assert vector[3 * 2 + 1] == 0.5


def test_summary_matches_counting_oracle():
    rng = random.Random(2026)
    for _ in range(100):
        history = random_history(rng, rng.randint(0, 60))
        now = rng.uniform(0.0, 45.0)
        assert summarize(history, now).tolist() == oracle_summary(history, now)


def test_summary_shares_sum_to_zero_or_one():
    rng = random.Random(31)
    history = random_history(rng, 80)
    vector = summarize(history, 20.0)
    for i in range(0, SUMMARY_DIM, 2):
        total = vector[i] + vector[i + 1]
        assert total == 0.0 or abs(total - 1.0) <= 1e-9


def test_accumulator_matches_batch_summary():
    rng = random.Random(77)
    for _ in range(20):
        history = random_history(rng, rng.randint(0, 50))
        acc = SummaryAccumulator()
        cursor = 0
        for probe in sorted(rng.uniform(0.0, 45.0) for _ in range(8)):
            while cursor < len(history) and history[cursor].beat < probe:
                event = history[cursor]
                acc.push(event.beat, event.instrument, event.playable)
                cursor += 1
            assert acc.vector_at(probe).tolist() == oracle_summary(history[:cursor], probe)


def test_accumulator_rejects_backward_pushes():
    acc = SummaryAccumulator()
    acc.push(5.0, 0, True)
    with pytest.raises(DataError):
        acc.push(4.0, 0, True)


def test_accumulator_rejects_backward_queries():
    acc = SummaryAccumulator()
    acc.vector_at(5.0)
    with pytest.raises(DataError):
        acc.vector_at(4.0)


# -- per-chart feature rows ---------------------------------------------------

def label_all(chart, name="drum"):
    return [TAXONOMY.label(name)] * len(chart.objects)


def simple_chart(notes):
    """notes: (measure, position, lane, sample_id)."""
    table = {sid: f"s{sid}.wav" for _, _, _, sid in notes}
    objects = [
        TimedObject(m, Fraction(p), SampleRef(sid, table[sid]), lane, lane.playable)
        for m, p, lane, sid in notes
    ]
    return make_chart(objects, table, [BpmEvent(0, Fraction(0), 120.0)])


def features_for(chart, labels=None, **kwargs):
    grid = TimeGrid(chart)
    curve = chart_difficulty(chart)
    if labels is None:
        labels = label_all(chart)
    return build_features(chart, grid, curve, labels, **kwargs)


def test_feature_row_layout():
    # measure position 1/8 is beat 0.5: halfway through a beat, slot 8
    chart = simple_chart([(0, 0, Lane.K1, 1), (0, Fraction(1, 8), Lane.BG, 2)])
    rows = features_for(chart, labels=[TAXONOMY.label("kick"), TAXONOMY.label("piano")])
    assert rows.shape == (2, FEATURE_DIM)
    kick = TAXONOMY.label("kick").index
    piano = TAXONOMY.label("piano").index
    assert rows[0, COL_ONEHOT + kick] == 1.0
    assert rows[1, COL_ONEHOT + piano] == 1.0
    assert np.count_nonzero(rows[0, COL_ONEHOT:COL_ALIGNMENT]) == 1
    assert rows[0, COL_ALIGNMENT] == 0.0
    assert rows[1, COL_ALIGNMENT] == 8.0
    # first object in the chart sees an empty history
    assert not rows[0, COL_SUMMARY:].any()
    # second object sees the kick one half-beat back
    assert rows[1, COL_SUMMARY + 2 * kick] == 1.0


def test_feature_difficulty_column_tracks_curve():
    chart = simple_chart([(0, 0, Lane.K1, 1), (2, 0, Lane.K1, 1)])
    grid = TimeGrid(chart)
    curve = chart_difficulty(chart)
    rows = build_features(chart, grid, curve, label_all(chart))
    from keysoundgen.difficulty import curve_value_at

    for row, t in zip(rows, grid.object_seconds):
        assert row[COL_DIFFICULTY] == curve_value_at(curve, t)


def test_truth_summaries_match_oracle_per_object():
    rng = random.Random(501)
    from keysoundgen.corpus import random_chart

    for _ in range(10):
        chart = random_chart(rng)
        if not chart.objects:
            continue
        labels = [TAXONOMY.label_at(rng.randrange(CLASSES)) for _ in chart.objects]
        grid = TimeGrid(chart)
        rows = build_features(chart, grid, chart_difficulty(chart), labels)
        beats = [grid.beats(o.measure, o.position) for o in chart.objects]
        for k, obj in enumerate(chart.objects):
            history = [
                HistoryEvent(beats[j], labels[j].index, chart.objects[j].playable)
                for j in range(len(chart.objects))
                if beats[j] < beats[k]
            ]
            assert rows[k, COL_SUMMARY:].tolist() == oracle_summary(history, beats[k])


def test_simultaneous_objects_do_not_see_each_other():
    chart = simple_chart([(0, 0, Lane.K1, 1), (0, 0, Lane.K2, 2)])
    rows = features_for(chart)
    assert not rows[0, COL_SUMMARY:].any()
    assert not rows[1, COL_SUMMARY:].any()


def test_summary_causality_future_edits_do_not_leak():
    base = [(0, 0, Lane.K1, 1), (0, Fraction(1, 4), Lane.K2, 1), (1, 0, Lane.K3, 1)]
    grown = base + [(2, 0, Lane.K4, 1), (2, Fraction(1, 2), Lane.BG, 1)]
    rows_base = features_for(simple_chart(base))
    rows_grown = features_for(simple_chart(grown))
    assert np.array_equal(rows_base, rows_grown[: len(base)])


def test_summary_source_none_zeroes_the_block():
    chart = simple_chart([(0, 0, Lane.K1, 1), (0, Fraction(1, 2), Lane.K2, 1)])
    rows = features_for(chart, summary_source="none")
    assert rows.shape == (2, FEATURE_DIM)
    assert not rows[:, COL_SUMMARY:].any()
    truth = features_for(chart)
    assert np.array_equal(rows[:, :COL_SUMMARY], truth[:, :COL_SUMMARY])


def test_summary_source_self_uses_predictor_not_truth():
    notes = [(0, 0, Lane.K1, 1), (0, Fraction(1, 2), Lane.K2, 1), (1, 0, Lane.K3, 1)]
    chart = simple_chart(notes)
    flipped_objects = [
        TimedObject(o.measure, o.position, o.sample, Lane.BG, False)
        for o in chart.objects
    ]
    flipped = make_chart(flipped_objects, chart.sample_table, chart.bpm_events)

    seen = []

    def always_playable(row, index):
        seen.append(index)
        return True

    # same difficulty curve for both so only summary provenance can differ
    grid = TimeGrid(chart)
    curve = chart_difficulty(chart)
    labels = label_all(chart)
    a = build_features(chart, grid, curve, labels, "self", always_playable)
    b = build_features(flipped, TimeGrid(flipped), curve, labels, "self", always_playable)
    # self-predicted summaries ignore the charts' own playability flags
    assert np.array_equal(a, b)
    assert seen == [0, 1, 2, 0, 1, 2]
    # the predictor said "playable", so non-playable shares stay zero
    assert not a[:, COL_SUMMARY + 1 :: 2].any()
    assert a[2, COL_SUMMARY:].any()


def test_self_predictor_required():
    chart = simple_chart([(0, 0, Lane.K1, 1)])
    with pytest.raises(DataError, match="predictor"):
        features_for(chart, summary_source="self")


def test_unknown_summary_source():
    chart = simple_chart([(0, 0, Lane.K1, 1)])
    with pytest.raises(DataError):
        features_for(chart, summary_source="oracle")


def test_label_count_must_match():
    chart = simple_chart([(0, 0, Lane.K1, 1)])
    with pytest.raises(DataError):
        features_for(chart, labels=[])


# -- feature modes ------------------------------------------------------------

def test_mode_widths():
    assert FULL_MODE.width == 299
    assert NO_DIFFICULTY_MODE.width == 298
    assert NO_SUMMARY_MODE.width == 29
    assert FeatureMode(use_difficulty=False, use_summary=False).width == 28


def test_mode_apply_selects_columns():
    chart = simple_chart([(0, 0, Lane.K1, 1), (1, 0, Lane.K2, 1)])
    rows = features_for(chart)
    no_diff = NO_DIFFICULTY_MODE.apply(rows)
    assert no_diff.shape == (2, 298)
    assert np.array_equal(no_diff, rows[:, 1:])
    bare = NO_SUMMARY_MODE.apply(rows)
    assert bare.shape == (2, 29)
    assert np.array_equal(bare, rows[:, :29])


def test_mode_apply_rejects_wrong_width():
    with pytest.raises(DataError):
        FULL_MODE.apply(np.zeros((3, 29)))


# -- dump format --------------------------------------------------------------

def test_feature_dump_roundtrip(tmp_path):
    # quarters survive the float32 round trip exactly
    rows = np.arange(2 * FEATURE_DIM, dtype=np.float64).reshape(2, FEATURE_DIM) / 4.0
    path = tmp_path / "rows.bin"
    save_features(path, rows)
    back = load_features(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, rows)


def test_feature_dump_rejects_truncation(tmp_path):
    rows = np.ones((3, FEATURE_DIM))
    path = tmp_path / "rows.bin"
    save_features(path, rows)
    data = path.read_bytes()
    path.write_bytes(data[:-2])
    with pytest.raises(DataError):
        load_features(path)


def test_feature_dump_rejects_bad_magic(tmp_path):
    path = tmp_path / "rows.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_features(path)
