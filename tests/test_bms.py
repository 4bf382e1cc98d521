"""Parser and emitter tests, including the exact round-trip property."""

import json
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
)
from keysoundgen.errors import BmsParseError, DataError


def simple_chart(**overrides):
    table = {1: "kick.wav", 2: "snare.wav", 37: "bass.wav"}
    kwargs = dict(
        objects=[
            TimedObject(0, Fraction(0), SampleRef(1, "kick.wav"), Lane.K1, True),
            TimedObject(0, Fraction(1, 2), SampleRef(2, "snare.wav"), Lane.K3, True),
            TimedObject(1, Fraction(0), SampleRef(37, "bass.wav"), Lane.BG, False),
            TimedObject(1, Fraction(3, 4), SampleRef(1, "kick.wav"), Lane.TT, True),
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
    assert obj.sample == SampleRef(1, "kick.wav")


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
    assert chart.objects[0].sample.file_name == "b.wav"


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
        TimedObject(1, Fraction(0), SampleRef(2, "b.wav"), Lane.BG, False),
        TimedObject(0, Fraction(1, 2), SampleRef(1, "a.wav"), Lane.K2, True),
        TimedObject(0, Fraction(1, 2), SampleRef(2, "b.wav"), Lane.K1, True),
        TimedObject(0, Fraction(0), SampleRef(1, "a.wav"), Lane.K1, True),
    ]
    chart = make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])
    keys = [(o.measure, o.position, o.lane.name) for o in chart.objects]
    assert keys == [
        (0, Fraction(0), "K1"),
        (0, Fraction(1, 2), "K1"),
        (0, Fraction(1, 2), "K2"),
        (1, Fraction(0), "BG"),
    ]


def test_make_chart_rejects_playable_collision():
    table = {1: "a.wav", 2: "b.wav"}
    objs = [
        TimedObject(0, Fraction(0), SampleRef(1, "a.wav"), Lane.K1, True),
        TimedObject(0, Fraction(0), SampleRef(2, "b.wav"), Lane.K1, True),
    ]
    with pytest.raises(DataError, match="share"):
        make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])


def test_make_chart_allows_background_collision():
    table = {1: "a.wav", 2: "b.wav"}
    objs = [
        TimedObject(0, Fraction(0), SampleRef(1, "a.wav"), Lane.BG, False),
        TimedObject(0, Fraction(0), SampleRef(2, "b.wav"), Lane.BG, False),
    ]
    chart = make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])
    assert len(chart.objects) == 2


def test_make_chart_rejects_mismatched_playable_flag():
    table = {1: "a.wav"}
    objs = [TimedObject(0, Fraction(0), SampleRef(1, "a.wav"), Lane.K1, False)]
    with pytest.raises(DataError, match="playable"):
        make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])


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
        TimedObject(0, Fraction(0), SampleRef(1, "a.wav"), Lane.BG, False),
        TimedObject(0, Fraction(0), SampleRef(2, "b.wav"), Lane.BG, False),
        TimedObject(0, Fraction(1, 2), SampleRef(3, "c.wav"), Lane.BG, False),
    ]
    chart = make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])
    lines = [l for l in emit_bms(chart).splitlines() if l.startswith("#00001:")]
    # the second layer holds only the position-0 leftover, packed alone
    assert lines == ["#00001:0103", "#00001:02"]


def test_emit_packs_lcm_denominator():
    table = {1: "a.wav"}
    objs = [
        TimedObject(0, Fraction(1, 3), SampleRef(1, "a.wav"), Lane.K1, True),
        TimedObject(0, Fraction(1, 4), SampleRef(1, "a.wav"), Lane.K1, True),
    ]
    chart = make_chart(objs, table, [BpmEvent(0, Fraction(0), 120.0)])
    line = next(l for l in emit_bms(chart).splitlines() if l.startswith("#00011:"))
    data = line.split(":")[1]
    assert len(data) == 24  # 12 slots * 2 chars
    assert data[2 * 3 : 2 * 3 + 2] == "01"  # 1/4 of 12
    assert data[2 * 4 : 2 * 4 + 2] == "01"  # 1/3 of 12


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
