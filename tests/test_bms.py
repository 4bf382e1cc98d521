"""Parser and emitter tests, including the exact round-trip property."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from keysoundgen.bms import (
    BpmEvent,
    Lane,
    Metadata,
    SampleRef,
    TimedObject,
    base36_decode,
    base36_encode,
    chart_from_json,
    chart_to_json,
    emit_bms,
    emit_bms_bytes,
    make_chart,
    parse_bms,
    parse_bms_bytes,
    with_lanes,
)
from keysoundgen import bms
from keysoundgen.errors import BmsParseError, DataError
from keysoundgen.timing import TimeGrid


def simple_chart(**overrides):
    table = {1: "kick.wav", 2: "snare.wav", 37: "bass.wav"}
    kwargs = dict(
        objects=[
            TimedObject(0, Fraction(0), SampleRef(1), Lane.K1),
            TimedObject(0, Fraction(1, 2), SampleRef(2), Lane.K3),
            TimedObject(1, Fraction(0), SampleRef(37), Lane.BG),
            TimedObject(1, Fraction(3, 4), SampleRef(1), Lane.TT),
        ],
        sample_table=table,
        bpm_events=[BpmEvent(0, Fraction(0), 150.0)],
        measure_lengths={1: Fraction(3, 4)},
        metadata=Metadata("Test Song", "Somebody", "7"),
    )
    kwargs.update(overrides)
    return make_chart(**kwargs)


# -- base36 ------------------------------------------------------------------

def test_base36_known_values():
    assert base36_decode("00") == 0
    assert base36_decode("01") == 1
    assert base36_decode("0Z") == 35
    assert base36_decode("10") == 36
    assert base36_decode("ZZ") == 1295
    assert base36_encode(0) == "00"
    assert base36_encode(36) == "10"
    assert base36_encode(1295) == "ZZ"


def test_base36_roundtrip_all():
    for v in range(1296):
        assert base36_decode(base36_encode(v)) == v


def test_base36_lowercase_and_errors():
    assert base36_decode("zz") == 1295
    with pytest.raises(BmsParseError):
        base36_decode("!!")
    with pytest.raises(BmsParseError):
        base36_decode("A")
    with pytest.raises(DataError):
        base36_encode(1296)


# -- parsing -----------------------------------------------------------------

def test_parse_minimal_document():
    chart = parse_bms(
        "#TITLE song\n"
        "#ARTIST me\n"
        "#BPM 120\n"
        "#WAV01 kick.wav\n"
        "#00111:01\n"
    )
    assert chart.metadata.title == "song"
    assert chart.metadata.artist == "me"
    assert chart.bpm_events == (BpmEvent(0, Fraction(0), 120.0),)
    assert len(chart.objects) == 1
    obj = chart.objects[0]
    assert obj.measure == 1
    assert obj.position == Fraction(0)
    assert obj.lane is Lane.K1
    assert obj.playable
    assert obj.sample == SampleRef(1)
    assert chart.sample_table == {1: "kick.wav"}


def test_parse_positions_are_exact_fractions():
    chart = parse_bms(
        "#BPM 120\n"
        "#WAV01 a.wav\n"
        "#00001:000100000001\n"
    )
    assert [o.position for o in chart.objects] == [Fraction(1, 6), Fraction(5, 6)]


def test_parse_rest_tokens_produce_no_objects():
    chart = parse_bms("#BPM 120\n#WAV01 a.wav\n#00001:00000000\n")
    assert chart.objects == ()


def test_parse_lane_channels():
    lines = ["#BPM 120", "#WAV01 a.wav"]
    expect = {}
    for ch, lane in [(11, Lane.K1), (12, Lane.K2), (13, Lane.K3), (14, Lane.K4),
                     (15, Lane.K5), (16, Lane.TT), (18, Lane.K6), (19, Lane.K7)]:
        lines.append(f"#001{ch:02d}:01")
        expect[ch] = lane
    chart = parse_bms("\n".join(lines) + "\n")
    assert sorted(o.lane.name for o in chart.objects) == sorted(l.name for l in expect.values())
    assert all(o.playable for o in chart.objects)


def test_parse_bgm_channel_not_playable():
    chart = parse_bms("#BPM 120\n#WAV01 a.wav\n#00301:01\n")
    assert chart.objects[0].lane is Lane.BG
    assert not chart.objects[0].playable


def test_parse_measure_length_decimal():
    chart = parse_bms("#BPM 120\n#WAV01 a.wav\n#00202:0.75\n#00201:01\n")
    assert chart.measure_lengths == {2: Fraction(3, 4)}


def test_parse_measure_length_fraction_form():
    chart = parse_bms("#BPM 120\n#WAV01 a.wav\n#00202:7/8\n#00201:01\n")
    assert chart.measure_lengths == {2: Fraction(7, 8)}


def test_parse_bpm_channel_hex():
    chart = parse_bms("#BPM 120\n#WAV01 a.wav\n#00103:78F0\n#00101:01\n")
    assert chart.bpm_events == (
        BpmEvent(0, Fraction(0), 120.0),
        BpmEvent(1, Fraction(0), 120.0),
        BpmEvent(1, Fraction(1, 2), 240.0),
    )


def test_parse_bpm_indexed():
    chart = parse_bms(
        "#BPM 120\n#BPM01 173.5\n#WAV01 a.wav\n#00208:0001\n#00201:01\n"
    )
    assert chart.bpm_events[-1] == BpmEvent(2, Fraction(1, 2), 173.5)


def test_parse_bpm_indexed_undefined_is_error():
    with pytest.raises(BmsParseError, match="no #BPM02"):
        parse_bms("#BPM 120\n#WAV01 a.wav\n#00208:02\n#00201:01\n")


def test_parse_missing_initial_bpm():
    with pytest.raises(BmsParseError, match="initial"):
        parse_bms("#WAV01 a.wav\n#00101:01\n")


def test_parse_undefined_wav_reference():
    with pytest.raises(BmsParseError, match="no #WAV"):
        parse_bms("#BPM 120\n#00101:02\n")


def test_parse_odd_length_data_is_error():
    with pytest.raises(BmsParseError, match="even-length"):
        parse_bms("#BPM 120\n#WAV01 a.wav\n#00101:010\n")


def test_parse_error_carries_line_number():
    with pytest.raises(BmsParseError) as info:
        parse_bms("#BPM 120\n#WAV01 a.wav\n#00101:0\n")
    assert info.value.line == 3
    assert "line 3" in str(info.value)


def test_parse_rest_only_message_yields_nothing_but_bad_data_still_raises():
    chart = parse_bms("#BPM 120\n#WAV01 a.wav\n#00111:0000\n#00108:00\n#00103:0000\n")
    assert chart.objects == ()
    assert len(chart.bpm_events) == 1
    for data in ("000", "", "0"):
        with pytest.raises(BmsParseError, match="even-length") as info:
            parse_bms(f"#BPM 120\n#WAV01 a.wav\n#00111:{data}\n")
        assert info.value.line == 3


@pytest.mark.parametrize("channel", [1, 8, 11, 12, 13, 14, 15, 16, 18, 19])
@pytest.mark.parametrize("token", ["0!", "Z-"])
def test_parse_invalid_token_raises_with_its_line(channel, token):
    text = f"#BPM 120\n#BPM01 150\n#WAV01 a.wav\n#001{channel:02d}:0100{token}01\n"
    with pytest.raises(BmsParseError, match="invalid base-36 character") as info:
        parse_bms(text)
    assert info.value.line == 4


def test_parse_invalid_token_on_skipped_channel_only_warns():
    # channel 17 is unused in the 7+1 layout: its data is never decoded
    chart = parse_bms("#BPM 120\n#WAV01 a.wav\n#00117:0!\n")
    assert chart.objects == ()
    assert [w.line for w in chart.warnings] == [3]


def test_parse_invalid_hex_bpm_token_raises_with_its_line():
    with pytest.raises(BmsParseError, match="invalid hex BPM token 'Z-'") as info:
        parse_bms("#BPM 120\n#00103:00Z-\n")
    assert info.value.line == 2


@pytest.mark.parametrize("token", ["+1", "-1", "\u0660\u0661", "1_"])
def test_parse_hex_bpm_token_needs_two_ascii_hex_digits(token):
    # int(token, 16) would take a sign, Arabic-Indic digits or an underscore
    with pytest.raises(BmsParseError, match="invalid hex BPM token") as info:
        parse_bms(f"#BPM 120\n#WAV01 a.wav\n#00101:01\n#00103:{token}\n")
    assert info.value.line == 4


def test_parse_lowercase_data_matches_uppercase():
    header = "#BPM 120\n#BPM0A 150\n#WAVZZ a.wav\n#WAVAB b.wav\n"
    upper = header + "#00111:ZZ00AB00\n#00101:ABZZ\n#00108:0A00\n#00103:00FF\n"
    lower = header + "#00111:zz00aB00\n#00101:abzz\n#00108:0a00\n#00103:00ff\n"
    expected = parse_bms(upper)
    assert len(expected.objects) == 4
    assert len(expected.bpm_events) == 3
    assert parse_bms(lower) == expected


def test_parse_lowercase_undefined_reference_names_uppercase_token():
    with pytest.raises(BmsParseError, match="token 'AB' references sample id 371") as info:
        parse_bms("#BPM 120\n#WAV01 a.wav\n#00111:ab\n")
    assert info.value.line == 3
    with pytest.raises(BmsParseError, match="BPM index '0A' has no #BPM0A"):
        parse_bms("#BPM 120\n#00108:0a\n")


def test_parse_equal_positions_from_different_slot_counts():
    # 1/2 of a 2-token line and 2/4 of a 4-token line are the same instant
    chart = parse_bms("#BPM 120\n#WAV01 a.wav\n#WAV02 b.wav\n#00112:00000200\n#00111:0001\n")
    assert [(o.lane, o.position) for o in chart.objects] == [
        (Lane.K1, Fraction(1, 2)),
        (Lane.K2, Fraction(1, 2)),
    ]
    table = {1: "a.wav", 2: "b.wav"}
    fresh = make_chart(
        [
            TimedObject(1, Fraction(2, 4), SampleRef(2), Lane.K2),
            TimedObject(1, Fraction(1, 2), SampleRef(1), Lane.K1),
        ],
        table,
        [BpmEvent(0, Fraction(0), 120.0)],
    )
    assert chart == fresh
    assert TimeGrid(chart).object_instants == [0, 0]
    # and they still collide when both are playable on one lane
    with pytest.raises(DataError, match="share"):
        parse_bms("#BPM 120\n#WAV01 a.wav\n#WAV02 b.wav\n#00111:00000200\n#00111:0001\n")


def test_json_positions_equal_parsed_shared_positions():
    text = (
        "#BPM 120\n#WAV01 a.wav\n#WAV02 b.wav\n#WAV03 c.wav\n"
        "#00111:01020301\n#00112:0203\n#00101:0102030102030102\n#00201:0000000001\n"
    )
    chart = parse_bms(text)
    again = chart_from_json(chart_to_json(chart))
    assert again == chart
    assert emit_bms(again) == emit_bms(chart)
    assert TimeGrid(again).object_beats == TimeGrid(chart).object_beats


def test_parse_warns_and_skips_unsupported():
    chart = parse_bms(
        "#BPM 120\n"
        "#WAV01 a.wav\n"
        "#RANDOM 2\n"
        "#00121:01\n"
        "#00151:01\n"
        "#00117:01\n"
        "#STOP01 48\n"
        "#00101:01\n"
    )
    assert len(chart.objects) == 1
    messages = " ".join(w.message for w in chart.warnings)
    assert "random" in messages
    assert "2P" in messages
    assert "long-note" in messages
    assert "channel 17" in messages
    assert "stop" in messages
    lines = sorted(w.line for w in chart.warnings)
    assert lines == [3, 4, 5, 6, 7]


def test_parse_ignores_non_directive_lines():
    chart = parse_bms("; comment\n#BPM 120\nrandom prose\n#WAV01 a.wav\n#00101:01\n")
    assert len(chart.objects) == 1
    assert chart.warnings == ()


def test_parse_last_wav_definition_wins():
    chart = parse_bms("#BPM 120\n#WAV01 a.wav\n#WAV01 b.wav\n#00101:01\n")
    assert chart.sample_table[1] == "b.wav"
    assert chart.sample_table[chart.objects[0].sample.id] == "b.wav"


def test_parse_bytes_shift_jis_fallback():
    text = "#TITLE 曲\n#BPM 120\n#WAV01 a.wav\n#00101:01\n"
    chart = parse_bms_bytes(text.encode("shift_jis"))
    assert chart.metadata.title == "曲"


def test_parse_bytes_utf8_bom():
    text = "#TITLE 曲\n#BPM 120\n#WAV01 a.wav\n#00101:01\n"
    chart = parse_bms_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert chart.metadata.title == "曲"


# -- chart invariants --------------------------------------------------------

def test_make_chart_sorts_canonically():
    table = {1: "a.wav", 2: "b.wav"}
    objs = [
        TimedObject(1, Fraction(0), SampleRef(2), Lane.BG),
        TimedObject(0, Fraction(1, 2), SampleRef(1), Lane.K2),
        TimedObject(0, Fraction(1, 2), SampleRef(2), Lane.K1),
        TimedObject(0, Fraction(0), SampleRef(1), Lane.K1),
    ]
    chart = make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])
    keys = [(o.measure, o.position, o.lane.name) for o in chart.objects]
    assert keys == [
        (0, Fraction(0), "K1"),
        (0, Fraction(1, 2), "K1"),
        (0, Fraction(1, 2), "K2"),
        (1, Fraction(0), "BG"),
    ]


def test_timed_object_is_four_fields_and_playable_follows_lane():
    assert [f.name for f in dataclasses.fields(TimedObject)] == [
        "measure", "position", "sample", "lane"
    ]
    assert [f.name for f in dataclasses.fields(SampleRef)] == ["id"]
    for lane in Lane:
        obj = TimedObject(0, Fraction(0), SampleRef(1), lane)
        assert obj.playable is (lane is not Lane.BG)


def test_make_chart_rejects_sample_missing_from_table():
    objs = [TimedObject(0, Fraction(0), SampleRef(2), Lane.K1)]
    with pytest.raises(DataError, match="sample id 2 missing from table"):
        make_chart(objs, {1: "a.wav"}, [BpmEvent(0, Fraction(0), 120.0)])


def test_sample_table_is_read_only():
    table = {1: "kick.wav", 2: "snare.wav", 37: "bass.wav"}
    chart = simple_chart(sample_table=table)
    with pytest.raises(TypeError):
        chart.sample_table[1] = "other.wav"
    with pytest.raises(TypeError):
        del chart.sample_table[1]
    # the chart holds its own copy: editing the caller's dict changes nothing
    table[1] = "other.wav"
    assert chart.sample_table[1] == "kick.wav"
    assert chart.sample_table == {1: "kick.wav", 2: "snare.wav", 37: "bass.wav"}
    assert chart == simple_chart()
    doc = json.loads(chart_to_json(chart))
    assert doc["samples"] == {"1": "kick.wav", "2": "snare.wav", "37": "bass.wav"}
    assert chart_from_json(chart_to_json(chart)) == chart


def test_make_chart_rejects_playable_collision():
    table = {1: "a.wav", 2: "b.wav"}
    objs = [
        TimedObject(0, Fraction(0), SampleRef(1), Lane.K1),
        TimedObject(0, Fraction(0), SampleRef(2), Lane.K1),
    ]
    with pytest.raises(DataError, match="share"):
        make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])


def test_make_chart_allows_background_collision():
    table = {1: "a.wav", 2: "b.wav"}
    objs = [
        TimedObject(0, Fraction(0), SampleRef(1), Lane.BG),
        TimedObject(0, Fraction(0), SampleRef(2), Lane.BG),
    ]
    chart = make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])
    assert len(chart.objects) == 2


def test_make_chart_checks_positions_exactly():
    # these positions round to the float 0.0, 1.0 or overflow it
    def chart_at(position):
        obj = TimedObject(0, position, SampleRef(1), Lane.BG)
        return make_chart([obj], {1: "a.wav"}, [BpmEvent(0, Fraction(0), 120.0)])

    for position in (Fraction(1, 10**400), 1 - Fraction(1, 10**400)):
        assert chart_at(position).objects[0].position == position
    for position in (Fraction(1), Fraction(-1, 10**400), Fraction(10**400)):
        with pytest.raises(DataError, match=r"outside \[0, 1\)"):
            chart_at(position)


def test_with_lanes_reorders_within_an_instant():
    # the lane is part of the sort key, so swapping lanes can swap objects
    table = {1: "a.wav", 2: "b.wav"}
    bpm = [BpmEvent(0, Fraction(0), 120.0)]
    s1, s2 = SampleRef(1), SampleRef(2)
    chart = make_chart(
        [
            TimedObject(0, Fraction(0), s1, Lane.BG),
            TimedObject(0, Fraction(0), s2, Lane.K1),
        ],
        table,
        bpm,
    )
    assert [(o.lane, o.sample.id) for o in chart.objects] == [(Lane.K1, 2), (Lane.BG, 1)]
    swapped = with_lanes(chart, [Lane.BG, Lane.K1])
    assert [(o.lane, o.sample.id) for o in swapped.objects] == [(Lane.K1, 1), (Lane.BG, 2)]
    assert swapped == make_chart(
        [
            TimedObject(0, Fraction(0), s2, Lane.BG),
            TimedObject(0, Fraction(0), s1, Lane.K1),
        ],
        table,
        bpm,
    )
    with pytest.raises(DataError, match="share"):
        with_lanes(chart, [Lane.K1, Lane.K1])


def test_make_chart_requires_initial_bpm_event():
    with pytest.raises(DataError):
        make_chart([], {}, [])
    with pytest.raises(DataError, match="measure 0"):
        make_chart([], {}, [BpmEvent(1, Fraction(0), 120.0)])


def test_make_chart_drops_default_measure_lengths():
    chart = make_chart([], {}, [BpmEvent(0, Fraction(0), 120.0)], {0: Fraction(1), 1: Fraction(2)})
    assert chart.measure_lengths == {1: Fraction(2)}


def test_make_chart_dedupes_bpm_events_last_wins():
    chart = make_chart(
        [],
        {},
        [
            BpmEvent(0, Fraction(0), 120.0),
            BpmEvent(1, Fraction(0), 150.0),
            BpmEvent(1, Fraction(0), 180.0),
        ],
    )
    assert chart.bpm_events == (
        BpmEvent(0, Fraction(0), 120.0),
        BpmEvent(1, Fraction(0), 180.0),
    )


# -- emission ----------------------------------------------------------------

def test_emit_contains_expected_sections():
    text = emit_bms(simple_chart())
    assert "#TITLE Test Song" in text
    assert "#ARTIST Somebody" in text
    assert "#PLAYLEVEL 7" in text
    assert "#BPM 150" in text
    assert "#WAV01 kick.wav" in text
    assert "#WAV11 bass.wav" in text  # 37 -> "11" in base 36
    assert "#00102:0.75" in text
    assert "#00011:01" in text


def test_emit_bgm_layers_stack_simultaneous_objects():
    table = {1: "a.wav", 2: "b.wav", 3: "c.wav"}
    objs = [
        TimedObject(0, Fraction(0), SampleRef(1), Lane.BG),
        TimedObject(0, Fraction(0), SampleRef(2), Lane.BG),
        TimedObject(0, Fraction(1, 2), SampleRef(3), Lane.BG),
    ]
    chart = make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])
    lines = [l for l in emit_bms(chart).splitlines() if l.startswith("#00001:")]
    # the second layer holds only the position-0 leftover, packed alone
    assert lines == ["#00001:0103", "#00001:02"]


def test_emit_packs_lcm_denominator():
    table = {1: "a.wav"}
    objs = [
        TimedObject(0, Fraction(1, 3), SampleRef(1), Lane.K1),
        TimedObject(0, Fraction(1, 4), SampleRef(1), Lane.K1),
    ]
    chart = make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])
    line = next(l for l in emit_bms(chart).splitlines() if l.startswith("#00011:"))
    data = line.split(":")[1]
    assert len(data) == 24  # 12 slots * 2 chars
    assert data[2 * 3 : 2 * 3 + 2] == "01"  # 1/4 of 12
    assert data[2 * 4 : 2 * 4 + 2] == "01"  # 1/3 of 12


def test_emit_refuses_lines_past_slot_ceiling(monkeypatch):
    monkeypatch.setattr(bms, "MAX_MESSAGE_SLOTS", 1000)
    table = {1: "a.wav"}
    bpm = [BpmEvent(0, Fraction(0), 120.0)]

    def keyed(*positions):
        return make_chart(
            [TimedObject(0, p, SampleRef(1), Lane.K1) for p in positions], table, bpm
        )

    # lcm(8, 125) = 1000 slots fits; lcm(7, 11, 13) = 1001 does not
    assert "#00011:" in emit_bms(keyed(Fraction(1, 8), Fraction(1, 125)))
    with pytest.raises(DataError, match="1001 slots"):
        emit_bms(keyed(Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)))
    with pytest.raises(DataError, match="1009 slots"):
        emit_bms(keyed(Fraction(1, 1009)))

    # three background lines of 7, 11 and 13 tokens in one measure parse,
    # but stack into one layer that needs 1001 slots
    lines = ["#00001:01" + "00" * (n - 2) + "01" for n in (7, 11, 13)]
    chart = parse_bms("#BPM 120\n#WAV01 a.wav\n" + "\n".join(lines) + "\n")
    assert len(chart.objects) == 6
    with pytest.raises(DataError, match="1001 slots"):
        emit_bms(chart)


def test_message_slot_ceiling_holds_before_any_allocation():
    # _message_slots only computes the lcm, so the full-size cases run here
    # without a list of that size ever being built
    assert bms.MAX_MESSAGE_SLOTS == 1_000_000
    with pytest.raises(DataError, match="1000000007 slots"):
        bms._message_slots([(Fraction(1, 1000000007), "01")])
    entries = [(Fraction(1, n), "01") for n in (997, 991, 983)]
    with pytest.raises(DataError, match=f"{997 * 991 * 983} slots"):
        bms._message_slots(entries)
    assert bms._message_slots([(Fraction(1, 3360), "01"), (Fraction(1, 7), "01")]) == 3360


def test_message_slot_ceiling_stops_at_first_overflow(monkeypatch):
    # the lcm of these 2000 primes has thousands of digits; the check must
    # stop at the first two, whose product 31 * 37 already passes 1000
    monkeypatch.setattr(bms, "MAX_MESSAGE_SLOTS", 1000)
    primes = [n for n in range(31, 20000) if all(n % d for d in range(2, math.isqrt(n) + 1))][:2000]
    assert len(primes) == 2000
    entries = [(Fraction(1, p), "01") for p in primes]
    with pytest.raises(DataError, match=r"at least 1147 slots"):
        bms._message_slots(entries)
    objs = [TimedObject(0, pos, SampleRef(1), Lane.K1) for pos, _ in entries]
    chart = make_chart(objs, {1: "a.wav"}, [BpmEvent(0, Fraction(0), 120.0)])
    # the line holds its positions in ascending order, so the largest prime comes first
    with pytest.raises(DataError, match=f"at least {primes[-1]} slots"):
        emit_bms(chart)


def test_emit_non_ten_smooth_measure_length_uses_fraction():
    chart = make_chart(
        [],
        {},
        [BpmEvent(0, Fraction(0), 120.0)],
        {1: Fraction(2, 3)},
    )
    assert "#00102:2/3" in emit_bms(chart)


def test_emit_bytes_has_bom():
    assert emit_bms_bytes(simple_chart()).startswith(b"\xef\xbb\xbf")


# -- round-trips -------------------------------------------------------------

def test_roundtrip_simple_chart():
    chart = simple_chart()
    again = parse_bms(emit_bms(chart))
    assert again == chart


def test_roundtrip_preserves_unicode_metadata():
    chart = simple_chart(metadata=Metadata("曲のタイトル", "アーティスト", None))
    again = parse_bms_bytes(emit_bms_bytes(chart))
    assert again.metadata == chart.metadata


def test_roundtrip_random_charts():
    from keysoundgen.corpus import random_chart

    rng = random.Random(20260816)
    for _ in range(60):
        chart = random_chart(rng)
        again = parse_bms_bytes(emit_bms_bytes(chart))
        assert again == chart


def test_json_roundtrip():
    chart = simple_chart()
    again = chart_from_json(chart_to_json(chart))
    assert again == chart


def test_json_rejects_garbage():
    with pytest.raises(DataError):
        chart_from_json("{}")


@pytest.mark.parametrize("bpm", ["nan", "inf", "-inf", "0"])
def test_json_rejects_non_finite_or_non_positive_bpm(bpm):
    doc = json.loads(chart_to_json(simple_chart()))
    doc["bpm_events"][0][2] = float(bpm)
    with pytest.raises(DataError, match="not finite and positive"):
        chart_from_json(json.dumps(doc))


@pytest.mark.parametrize("bpm", ["nan", "inf"])
def test_parse_rejects_non_finite_bpm(bpm):
    with pytest.raises(DataError, match="not finite and positive"):
        parse_bms(f"#BPM {bpm}\n#WAV01 kick.wav\n#00111:01\n")
    with pytest.raises(DataError, match="not finite and positive"):
        parse_bms(f"#BPM 120\n#BPM01 {bpm}\n#WAV01 kick.wav\n#00108:01\n#00111:01\n")
