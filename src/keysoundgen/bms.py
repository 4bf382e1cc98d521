"""Be-Music Source chart representation, parsing, and emission.

Supported subset: single-player (1P) charts with instantaneous keysounds.
Header directives #WAVxx, #BPM, #BPMxx, #TITLE, #ARTIST, #PLAYLEVEL and
channel messages are handled; 2P channels, long notes, stop sequences
and #RANDOM control flow are skipped with a warning record.

Object positions are exact rationals within their measure, so message
round-trips never accumulate floating point drift.  Measure lengths are
emitted as exact decimals when the denominator allows it and as "n/d"
fractions otherwise (our parser accepts both).
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from pathlib import Path

from .errors import BmsParseError, DataError

BASE36_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
MAX_SAMPLE_ID = 36 * 36 - 1  # "ZZ"
MAX_MEASURE = 999  # measure numbers are three digits

_RE_MESSAGE = re.compile(r"^(\d{3})([0-9A-Za-z]{2}):(.*)$")


def base36_decode(token: str, line: int | None = None) -> int:
    """Decode a two-character base-36 token ("00".."ZZ") to 0..1295."""
    if len(token) != 2:
        raise BmsParseError(f"expected a two-character token, got {token!r}", line)
    value = 0
    for ch in token.upper():
        digit = BASE36_ALPHABET.find(ch)
        if digit < 0:
            raise BmsParseError(f"invalid base-36 character in token {token!r}", line)
        value = value * 36 + digit
    return value


def base36_encode(value: int) -> str:
    """Encode 0..1295 as a two-character base-36 token."""
    if not 0 <= value <= MAX_SAMPLE_ID:
        raise DataError(f"value {value} out of base-36 token range")
    return BASE36_ALPHABET[value // 36] + BASE36_ALPHABET[value % 36]


class Lane(enum.Enum):
    """One of the 8 player controls (7 keys + turntable) or the background."""

    K1 = 1
    K2 = 2
    K3 = 3
    K4 = 4
    K5 = 5
    K6 = 6
    K7 = 7
    TT = 8
    BG = 9

    @property
    def playable(self) -> bool:
        return self is not Lane.BG

    @property
    def order(self) -> int:
        return self.value


# 1P object channels.  Channel 16 is the turntable; 17 is unused by the
# 7+1 layout and is treated as an unknown channel.
LANE_BY_CHANNEL = {
    11: Lane.K1,
    12: Lane.K2,
    13: Lane.K3,
    14: Lane.K4,
    15: Lane.K5,
    16: Lane.TT,
    18: Lane.K6,
    19: Lane.K7,
}
CHANNEL_BY_LANE = {lane: ch for ch, lane in LANE_BY_CHANNEL.items()}

CHANNEL_BGM = 1
CHANNEL_MEASURE_LENGTH = 2
CHANNEL_BPM = 3
CHANNEL_BPM_INDEXED = 8


@dataclass(frozen=True)
class SampleRef:
    """Binding of a sample id to the audio file it plays."""

    id: int
    file_name: str

    def __post_init__(self):
        if not 1 <= self.id <= MAX_SAMPLE_ID:
            raise DataError(f"sample id {self.id} outside 1..{MAX_SAMPLE_ID}")


@dataclass(frozen=True)
class TimedObject:
    """One keysound event within a chart."""

    measure: int
    position: Fraction
    sample: SampleRef
    lane: Lane
    playable: bool


@dataclass(frozen=True)
class BpmEvent:
    measure: int
    position: Fraction
    bpm: float


@dataclass(frozen=True)
class Metadata:
    title: str = ""
    artist: str = ""
    difficulty_label: str | None = None


@dataclass(frozen=True)
class ParseWarning:
    line: int
    message: str


@dataclass(frozen=True)
class Chart:
    """A full chart: timed objects, timing events, and the sample table.

    Immutable after construction; build through :func:`make_chart` so the
    canonical ordering and invariants hold.
    """

    objects: tuple[TimedObject, ...]
    sample_table: dict[int, str]
    bpm_events: tuple[BpmEvent, ...]
    measure_lengths: dict[int, Fraction]
    metadata: Metadata = Metadata()
    warnings: tuple[ParseWarning, ...] = field(default=(), compare=False)

    @property
    def max_measure(self) -> int:
        last = 0
        if self.objects:
            last = max(last, max(o.measure for o in self.objects))
        if self.bpm_events:
            last = max(last, max(e.measure for e in self.bpm_events))
        if self.measure_lengths:
            last = max(last, max(self.measure_lengths))
        return last

    def playable_indices(self) -> list[int]:
        return [i for i, o in enumerate(self.objects) if o.playable]


def _object_sort_key(obj: TimedObject):
    return (obj.measure, obj.position, obj.lane.order, obj.sample.id)


def make_chart(
    objects,
    sample_table: dict[int, str],
    bpm_events,
    measure_lengths: dict[int, Fraction] | None = None,
    metadata: Metadata = Metadata(),
    warnings=(),
) -> Chart:
    """Canonicalize and validate chart contents.

    Sorts objects by (measure, position, lane, sample id), drops default
    measure lengths, dedupes BPM events by position (last one wins), and
    checks every invariant the rest of the pipeline relies on.
    """
    objs = tuple(sorted(objects, key=_object_sort_key))
    table = dict(sample_table)

    lengths = {}
    for measure, length in (measure_lengths or {}).items():
        frac = Fraction(length)
        if frac <= 0:
            raise DataError(f"measure {measure} has non-positive length {length}")
        if not 0 <= measure <= MAX_MEASURE:
            raise DataError(f"measure length index {measure} outside 0..{MAX_MEASURE}")
        if frac != 1:
            lengths[int(measure)] = frac

    deduped: dict[tuple[int, Fraction], BpmEvent] = {}
    for event in bpm_events:
        if not (math.isfinite(event.bpm) and event.bpm > 0):
            raise DataError(f"BPM {event.bpm} at measure {event.measure} is not finite and positive")
        if not 0 <= event.measure <= MAX_MEASURE or not 0 <= event.position < 1:
            raise DataError(
                f"BPM event at {event.measure}+{event.position} is outside measures "
                f"0..{MAX_MEASURE} or positions [0, 1)"
            )
        deduped[(event.measure, event.position)] = BpmEvent(
            int(event.measure), Fraction(event.position), float(event.bpm)
        )
    events = tuple(sorted(deduped.values(), key=lambda e: (e.measure, e.position)))
    if not events:
        raise DataError("chart has no BPM events; an initial BPM is required")
    if events[0].measure != 0 or events[0].position != 0:
        raise DataError("first BPM event must sit at measure 0, position 0")

    seen_playable: set[tuple[int, Fraction, Lane]] = set()
    for obj in objs:
        if not 0 <= obj.measure <= MAX_MEASURE:
            raise DataError(f"object measure {obj.measure} outside 0..{MAX_MEASURE}")
        if not 0 <= obj.position < 1:
            raise DataError(f"object position {obj.position} outside [0, 1)")
        if obj.playable != obj.lane.playable:
            raise DataError(
                f"object at {obj.measure}+{obj.position} has playable={obj.playable} "
                f"but lane {obj.lane.name}"
            )
        if obj.sample.id not in table:
            raise DataError(f"object references sample id {obj.sample.id} missing from table")
        if table[obj.sample.id] != obj.sample.file_name:
            raise DataError(
                f"sample id {obj.sample.id} bound to {table[obj.sample.id]!r} "
                f"but object carries {obj.sample.file_name!r}"
            )
        if obj.playable:
            key = (obj.measure, obj.position, obj.lane)
            if key in seen_playable:
                raise DataError(
                    f"two playable objects share measure {obj.measure} position "
                    f"{obj.position} lane {obj.lane.name}"
                )
            seen_playable.add(key)

    return Chart(objs, table, events, lengths, metadata, tuple(warnings))


def instant_groups(chart: Chart, indices):
    """Split ascending object indices into runs sharing an exact (measure, position)."""
    group: list[int] = []
    key = None
    for i in indices:
        obj = chart.objects[i]
        obj_key = (obj.measure, obj.position)
        if obj_key != key and group:
            yield group
            group = []
        key = obj_key
        group.append(i)
    if group:
        yield group


def with_lanes(chart: Chart, lanes) -> Chart:
    """Rebuild a chart with new lane assignments (playability follows the lane)."""
    new_objects = [
        replace(obj, lane=lane, playable=lane.playable)
        for obj, lane in zip(chart.objects, lanes, strict=True)
    ]
    return make_chart(
        new_objects,
        chart.sample_table,
        chart.bpm_events,
        chart.measure_lengths,
        chart.metadata,
        chart.warnings,
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_bms(text: str) -> Chart:
    """Parse a BMS document into a Chart.

    Raises BmsParseError (with the line number) on malformed lines,
    references to undefined samples, or a missing initial BPM.  Unknown
    channels and unsupported directives are skipped and recorded in the
    chart's warnings.
    """
    wav_table: dict[int, str] = {}
    bpm_defs: dict[int, float] = {}
    header_bpm: float | None = None
    title = ""
    artist = ""
    difficulty_label: str | None = None
    warnings: list[ParseWarning] = []
    messages: list[tuple[int, int, int, str]] = []  # (line, measure, channel, data)

    skipped_directives = {
        "STOP": "stop definition",
        "LNOBJ": "long-note marker",
        "LNTYPE": "long-note mode",
        "RANDOM": "random control flow",
        "SETRANDOM": "random control flow",
        "IF": "random control flow",
        "ELSEIF": "random control flow",
        "ELSE": "random control flow",
        "ENDIF": "random control flow",
        "ENDRANDOM": "random control flow",
    }

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or not line.startswith("#"):
            continue  # non-directive lines are comments
        body = line[1:]

        match = _RE_MESSAGE.match(body)
        if match:
            measure = int(match.group(1))
            channel_token = match.group(2)
            if not channel_token.isdigit():
                warnings.append(ParseWarning(lineno, f"unknown channel {channel_token!r}, skipped"))
                continue
            messages.append((lineno, measure, int(channel_token), match.group(3).strip()))
            continue

        parts = body.split(None, 1)
        key = parts[0].upper()
        value = parts[1].strip() if len(parts) > 1 else ""

        if key == "BPM":
            header_bpm = _parse_float(value, "initial BPM", lineno)
        elif key.startswith("BPM") and len(key) == 5:
            bpm_defs[base36_decode(key[3:5], lineno)] = _parse_float(value, "BPM definition", lineno)
        elif key.startswith("WAV") and len(key) == 5:
            if not value:
                raise BmsParseError(f"#{key} has no file name", lineno)
            sample_id = base36_decode(key[3:5], lineno)
            if sample_id == 0:
                raise BmsParseError("#WAV00 is reserved for the rest marker", lineno)
            wav_table[sample_id] = value
        elif key == "TITLE":
            title = value
        elif key == "ARTIST":
            artist = value
        elif key == "PLAYLEVEL":
            difficulty_label = value
        else:
            matched = next((name for name in skipped_directives if key.startswith(name)), None)
            if matched:
                warnings.append(
                    ParseWarning(lineno, f"unsupported {skipped_directives[matched]} #{key}, skipped")
                )
            else:
                warnings.append(ParseWarning(lineno, f"unknown directive #{key}, skipped"))

    if header_bpm is None:
        raise BmsParseError("document defines no initial #BPM")

    objects: list[TimedObject] = []
    bpm_events: list[BpmEvent] = [BpmEvent(0, Fraction(0), header_bpm)]
    measure_lengths: dict[int, Fraction] = {}

    for lineno, measure, channel, data in messages:
        if channel == CHANNEL_MEASURE_LENGTH:
            try:
                length = Fraction(data)
            except (ValueError, ZeroDivisionError):
                raise BmsParseError(f"invalid measure length {data!r}", lineno) from None
            if length <= 0:
                raise BmsParseError(f"measure length must be positive, got {data!r}", lineno)
            measure_lengths[measure] = length
            continue

        if channel == CHANNEL_BPM:
            for position, token in _iter_pairs(data, lineno):
                try:
                    value = int(token, 16)
                except ValueError:
                    raise BmsParseError(f"invalid hex BPM token {token!r}", lineno) from None
                if value == 0:
                    continue
                bpm_events.append(BpmEvent(measure, position, float(value)))
            continue

        if channel == CHANNEL_BPM_INDEXED:
            for position, token in _iter_pairs(data, lineno):
                index = base36_decode(token, lineno)
                if index == 0:
                    continue
                if index not in bpm_defs:
                    raise BmsParseError(f"BPM index {token!r} has no #BPM{token} definition", lineno)
                bpm_events.append(BpmEvent(measure, position, bpm_defs[index]))
            continue

        if channel == CHANNEL_BGM or channel in LANE_BY_CHANNEL:
            lane = LANE_BY_CHANNEL.get(channel, Lane.BG)
            for position, token in _iter_pairs(data, lineno):
                sample_id = base36_decode(token, lineno)
                if sample_id == 0:
                    continue  # "00" marks a rest
                if sample_id not in wav_table:
                    raise BmsParseError(
                        f"token {token!r} references sample id {sample_id} with no #WAV definition",
                        lineno,
                    )
                objects.append(
                    TimedObject(
                        measure=measure,
                        position=position,
                        sample=SampleRef(sample_id, wav_table[sample_id]),
                        lane=lane,
                        playable=lane.playable,
                    )
                )
            continue

        if channel == 17:
            warnings.append(ParseWarning(lineno, "channel 17 is unused in the 7+1 layout, skipped"))
        elif 21 <= channel <= 29:
            warnings.append(ParseWarning(lineno, f"2P channel {channel:02d} not supported, skipped"))
        elif 51 <= channel <= 69:
            warnings.append(ParseWarning(lineno, f"long-note channel {channel:02d} not supported, skipped"))
        elif channel == 9:
            warnings.append(ParseWarning(lineno, "stop channel 09 not supported, skipped"))
        else:
            warnings.append(ParseWarning(lineno, f"unknown channel {channel:02d}, skipped"))

    return make_chart(
        objects,
        wav_table,
        bpm_events,
        measure_lengths,
        Metadata(title, artist, difficulty_label),
        warnings,
    )


def _parse_float(value: str, what: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise BmsParseError(f"invalid {what} {value!r}", lineno) from None


def _iter_pairs(data: str, lineno: int):
    """Split channel message data into (position, token) pairs."""
    if not data or len(data) % 2 != 0:
        raise BmsParseError(f"message data {data!r} must be a non-empty even-length token string", lineno)
    count = len(data) // 2
    for i in range(count):
        yield Fraction(i, count), data[2 * i : 2 * i + 2].upper()


def parse_bms_bytes(data: bytes) -> Chart:
    """Decode raw bytes (UTF-8 if a BOM is present, else Shift-JIS) and parse."""
    if data.startswith(b"\xef\xbb\xbf"):
        text = data.decode("utf-8-sig")
    else:
        try:
            text = data.decode("shift_jis")
        except UnicodeDecodeError as exc:
            raise BmsParseError(f"cannot decode document as Shift-JIS: {exc}") from None
    return parse_bms(text)


def load_bms(path: str | Path) -> Chart:
    return parse_bms_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def emit_bms(chart: Chart) -> str:
    """Serialize a Chart as BMS text with a deterministic layout.

    Measure/channel messages use the least common multiple of the object
    position denominators; simultaneous background objects are stacked
    into extra channel-01 lines.
    """
    for obj in chart.objects:
        if obj.sample.id not in chart.sample_table:
            raise DataError(f"object references sample id {obj.sample.id} missing from table")

    lines: list[str] = []
    meta = chart.metadata
    if meta.title:
        lines.append(f"#TITLE {meta.title}")
    if meta.artist:
        lines.append(f"#ARTIST {meta.artist}")
    if meta.difficulty_label is not None:
        lines.append(f"#PLAYLEVEL {meta.difficulty_label}")

    initial = chart.bpm_events[0]
    lines.append(f"#BPM {_format_number(initial.bpm)}")

    later_events = chart.bpm_events[1:]
    if len(later_events) > MAX_SAMPLE_ID:
        raise DataError("too many BPM change events to index")
    for i, event in enumerate(later_events, start=1):
        lines.append(f"#BPM{base36_encode(i)} {_format_number(event.bpm)}")

    for sample_id in sorted(chart.sample_table):
        lines.append(f"#WAV{base36_encode(sample_id)} {chart.sample_table[sample_id]}")

    lines.append("")

    bpm_by_measure: dict[int, list[tuple[Fraction, int]]] = {}
    for i, event in enumerate(later_events, start=1):
        bpm_by_measure.setdefault(event.measure, []).append((event.position, i))

    lanes_by_measure: dict[int, dict[Lane, list[TimedObject]]] = {}
    bgm_by_measure: dict[int, list[TimedObject]] = {}
    for obj in chart.objects:
        if obj.lane is Lane.BG:
            bgm_by_measure.setdefault(obj.measure, []).append(obj)
        else:
            lanes_by_measure.setdefault(obj.measure, {}).setdefault(obj.lane, []).append(obj)

    measures = sorted(
        set(chart.measure_lengths)
        | set(bpm_by_measure)
        | set(lanes_by_measure)
        | set(bgm_by_measure)
    )

    for measure in measures:
        if measure in chart.measure_lengths:
            lines.append(f"#{measure:03d}{CHANNEL_MEASURE_LENGTH:02d}:{_format_fraction(chart.measure_lengths[measure])}")
        if measure in bpm_by_measure:
            entries = [(pos, base36_encode(idx)) for pos, idx in bpm_by_measure[measure]]
            lines.append(f"#{measure:03d}{CHANNEL_BPM_INDEXED:02d}:{_pack_message(entries)}")
        for lane in sorted(lanes_by_measure.get(measure, {}), key=lambda l: CHANNEL_BY_LANE[l]):
            entries = [
                (o.position, base36_encode(o.sample.id))
                for o in lanes_by_measure[measure][lane]
            ]
            lines.append(f"#{measure:03d}{CHANNEL_BY_LANE[lane]:02d}:{_pack_message(entries)}")
        for layer in _bgm_layers(bgm_by_measure.get(measure, [])):
            lines.append(f"#{measure:03d}{CHANNEL_BGM:02d}:{layer}")

    lines.append("")
    return "\n".join(lines)


def _pack_message(entries: list[tuple[Fraction, str]]) -> str:
    denominator = lcm(*(pos.denominator for pos, _ in entries)) if entries else 1
    tokens = ["00"] * denominator
    for pos, token in entries:
        slot = pos.numerator * (denominator // pos.denominator)
        tokens[slot] = token
    return "".join(tokens)


def _bgm_layers(objects: list[TimedObject]) -> list[str]:
    """Stack simultaneous background objects into parallel channel-01 lines."""
    if not objects:
        return []
    by_pos: dict[Fraction, list[TimedObject]] = {}
    for obj in objects:
        by_pos.setdefault(obj.position, []).append(obj)
    depth = max(len(group) for group in by_pos.values())
    layers = []
    for level in range(depth):
        entries = [
            (pos, base36_encode(group[level].sample.id))
            for pos, group in sorted(by_pos.items())
            if len(group) > level
        ]
        layers.append(_pack_message(entries))
    return layers


def _format_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_fraction(frac: Fraction) -> str:
    """Exact decimal when the denominator is 10-smooth, else "n/d"."""
    if frac.denominator == 1:
        return str(frac.numerator)
    twos = fives = 0
    d = frac.denominator
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{frac.numerator}/{frac.denominator}"
    k = max(twos, fives)
    scaled = frac.numerator * 10**k // frac.denominator
    digits = str(scaled).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}".rstrip("0").rstrip(".")


def emit_bms_bytes(chart: Chart) -> bytes:
    """UTF-8 with a BOM, so a re-parse picks the same decoder."""
    return b"\xef\xbb\xbf" + emit_bms(chart).encode("utf-8")


def save_bms(path: str | Path, chart: Chart) -> None:
    Path(path).write_bytes(emit_bms_bytes(chart))


# ---------------------------------------------------------------------------
# JSON interchange (CLI `parse` / `emit` round-trip format)
# ---------------------------------------------------------------------------


def chart_to_json(chart: Chart) -> str:
    doc = {
        "title": chart.metadata.title,
        "artist": chart.metadata.artist,
        "difficulty_label": chart.metadata.difficulty_label,
        "samples": {str(i): name for i, name in sorted(chart.sample_table.items())},
        "bpm_events": [[e.measure, str(e.position), e.bpm] for e in chart.bpm_events],
        "measure_lengths": {str(m): str(l) for m, l in sorted(chart.measure_lengths.items())},
        "objects": [
            {
                "measure": o.measure,
                "position": str(o.position),
                "sample": o.sample.id,
                "lane": o.lane.name,
            }
            for o in chart.objects
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False)


def chart_from_json(text: str) -> Chart:
    try:
        doc = json.loads(text)
        table = {int(i): str(name) for i, name in doc["samples"].items()}
        objects = [
            TimedObject(
                measure=int(o["measure"]),
                position=Fraction(o["position"]),
                sample=SampleRef(int(o["sample"]), table[int(o["sample"])]),
                lane=Lane[o["lane"]],
                playable=Lane[o["lane"]].playable,
            )
            for o in doc["objects"]
        ]
        events = [BpmEvent(int(m), Fraction(p), float(b)) for m, p, b in doc["bpm_events"]]
        lengths = {int(m): Fraction(l) for m, l in doc.get("measure_lengths", {}).items()}
        metadata = Metadata(
            doc.get("title", ""), doc.get("artist", ""), doc.get("difficulty_label")
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"invalid chart JSON: {exc}") from None
    return make_chart(objects, table, events, lengths, metadata)
