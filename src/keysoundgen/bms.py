"""Be-Music Source chart representation, parsing, and emission.

Supported subset: single-player (1P) charts with instantaneous keysounds.
Header directives #WAVxx, #BPM, #BPMxx, #TITLE, #ARTIST, #PLAYLEVEL and
channel messages are handled; 2P channels, long notes, stop sequences
and #RANDOM control flow are skipped with a warning record.

A chart object is (measure, position, sample id, lane).  Its lane alone
says whether it is playable (every lane but BG is a control), and the
chart's sample table alone names each sample's file.

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
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .errors import BmsParseError, DataError

BASE36_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
MAX_SAMPLE_ID = 36 * 36 - 1  # "ZZ"
MAX_MEASURE = 999  # measure numbers are three digits
# An emitted message line has one slot per step of the lcm of its position
# denominators; generated charts need at most a few thousand.
MAX_MESSAGE_SLOTS = 1_000_000

_RE_MESSAGE = re.compile(r"^(\d{3})([0-9A-Za-z]{2}):(.*)$")


def base36_decode(token: str, line: int | None = None) -> int:
    """Decode a two-character base-36 token ("00".."ZZ", any case) to 0..1295."""
    value = _BASE36_VALUES.get(token)
    if value is None:
        if len(token) != 2:
            raise BmsParseError(f"expected a two-character token, got {token!r}", line)
        raise BmsParseError(f"invalid base-36 character in token {token!r}", line)
    return value


def base36_encode(value: int) -> str:
    """Encode 0..1295 as a two-character base-36 token."""
    if not 0 <= value <= MAX_SAMPLE_ID:
        raise DataError(f"value {value} out of base-36 token range")
    return BASE36_ALPHABET[value // 36] + BASE36_ALPHABET[value % 36]


# Every token in every mix of upper and lower case, mapped to its value.
_BASE36_VALUES = {
    high + low: 36 * i + j
    for i, first in enumerate(BASE36_ALPHABET)
    for high in {first, first.lower()}
    for j, second in enumerate(BASE36_ALPHABET)
    for low in {second, second.lower()}
}

# Channel 03 BPM tokens: exactly two ASCII hex digits (tokens arrive uppercased).
_HEX_VALUES = {f"{value:02X}": value for value in range(256)}


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


_BG = Lane.BG

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
    """An object's sample id, 1..1295.

    An object is (measure, position, sample id, lane): the chart's sample
    table names the file, and the lane alone makes the object playable.
    """

    id: int

    def __post_init__(self):
        if not 1 <= self.id <= MAX_SAMPLE_ID:
            raise DataError(f"sample id {self.id} outside 1..{MAX_SAMPLE_ID}")


@dataclass(frozen=True)
class TimedObject:
    """One keysound event: (measure, position, sample id, lane)."""

    measure: int
    position: Fraction
    sample: SampleRef
    lane: Lane

    @property
    def playable(self) -> bool:  # exactly when the lane is a control
        return self.lane is not _BG


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
    sample_table: Mapping[int, str]  # read-only: every object's sample id stays in it
    bpm_events: tuple[BpmEvent, ...]
    measure_lengths: Mapping[int, Fraction]  # read-only: every length stays positive
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


def make_chart(
    objects,
    sample_table: Mapping[int, str],
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
    objects = list(objects)
    try:
        # float() is monotone, so the exact position compare only runs on
        # float ties, and positions shared by one parse tie by identity
        keys = [
            (o.measure, float(o.position), o.position, o.lane.value, o.sample.id)
            for o in objects
        ]
    except OverflowError:  # a position past float range is far outside [0, 1)
        position = max((obj.position for obj in objects), key=abs)
        raise DataError(f"object position {position} outside [0, 1)") from None
    order = sorted(range(len(objects)), key=keys.__getitem__)
    objs = tuple(objects[i] for i in order)
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

    # objects sharing (measure, position, lane) are adjacent in sorted order
    last_playable = None
    for i in order:
        obj = objects[i]
        if not 0 <= obj.measure <= MAX_MEASURE:
            raise DataError(f"object measure {obj.measure} outside 0..{MAX_MEASURE}")
        # a float strictly inside (0, 1) proves the exact position is too
        if not 0.0 < keys[i][1] < 1.0 and not 0 <= obj.position < 1:
            raise DataError(f"object position {obj.position} outside [0, 1)")
        if obj.sample.id not in table:
            raise DataError(f"object references sample id {obj.sample.id} missing from table")
        if obj.playable:
            key = keys[i][:4]
            if key == last_playable:
                raise DataError(
                    f"two playable objects share measure {obj.measure} position "
                    f"{obj.position} lane {obj.lane.name}"
                )
            last_playable = key

    return Chart(
        objs, MappingProxyType(table), events, MappingProxyType(lengths), metadata, tuple(warnings)
    )


def with_lanes(chart: Chart, lanes) -> Chart:
    """Rebuild a chart with new lane assignments (playability follows the lane)."""
    new_objects = [
        TimedObject(obj.measure, obj.position, obj.sample, lane)
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
    positions: dict[tuple[int, int], Fraction] = {}  # see _iter_pairs
    samples = {sample_id: SampleRef(sample_id) for sample_id in wav_table}  # shared per id

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
            for position, token in _iter_pairs(data, lineno, positions):
                value = _HEX_VALUES.get(token)
                if value is None:
                    raise BmsParseError(f"invalid hex BPM token {token!r}", lineno)
                if value == 0:
                    continue
                bpm_events.append(BpmEvent(measure, position, float(value)))
            continue

        if channel == CHANNEL_BPM_INDEXED:
            for position, token in _iter_pairs(data, lineno, positions):
                index = base36_decode(token, lineno)
                if index not in bpm_defs:
                    raise BmsParseError(f"BPM index {token!r} has no #BPM{token} definition", lineno)
                bpm_events.append(BpmEvent(measure, position, bpm_defs[index]))
            continue

        if channel == CHANNEL_BGM or channel in LANE_BY_CHANNEL:
            lane = LANE_BY_CHANNEL.get(channel, Lane.BG)
            for position, token in _iter_pairs(data, lineno, positions):
                sample_id = base36_decode(token, lineno)
                sample = samples.get(sample_id)
                if sample is None:
                    raise BmsParseError(
                        f"token {token!r} references sample id {sample_id} with no #WAV definition",
                        lineno,
                    )
                objects.append(TimedObject(measure, position, sample, lane))
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


def _iter_pairs(data: str, lineno: int, positions: dict[tuple[int, int], Fraction]):
    """Split channel message data into (position, uppercase token) pairs, skipping "00" rests.

    positions maps (slot, slot count) to one shared Fraction per value for
    the whole parse, so equal positions are one object and compare by
    identity.
    """
    if not data or len(data) % 2 != 0:
        raise BmsParseError(f"message data {data!r} must be a non-empty even-length token string", lineno)
    count = len(data) // 2
    for i in range(count):
        token = data[2 * i : 2 * i + 2]
        if token == "00":
            continue
        position = positions.get((i, count))
        if position is None:
            g = gcd(i, count)
            position = positions.setdefault((i // g, count // g), Fraction(i, count))
            positions[i, count] = position
        yield position, token.upper()


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

    Each message line is keyed (measure, rank, channel) and the lines are
    written in key order.  Rank 0 is the measure length, 1 the BPM changes,
    2 the lanes and 3 + depth each channel-01 line: simultaneous background
    objects are stacked, the k-th object at a position going to depth k.
    A line packs its positions into the least common multiple of their
    denominators.
    """
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

    # rank 0 holds the formatted length; every other rank, (position, token) entries
    messages: dict[tuple[int, int, int], list | str] = {
        (measure, 0, CHANNEL_MEASURE_LENGTH): _format_fraction(length)
        for measure, length in chart.measure_lengths.items()
    }
    for i, event in enumerate(later_events, start=1):
        key = (event.measure, 1, CHANNEL_BPM_INDEXED)
        messages.setdefault(key, []).append((event.position, base36_encode(i)))
    depth = 0
    previous = None  # (measure, position) of the last background object
    for obj in chart.objects:
        if obj.lane is Lane.BG:
            # objects are sorted, so a position's background objects are adjacent
            here = (obj.measure, obj.position)
            depth = depth + 1 if here == previous else 0
            previous = here
            key = (obj.measure, 3 + depth, CHANNEL_BGM)
        else:
            key = (obj.measure, 2, CHANNEL_BY_LANE[obj.lane])
        messages.setdefault(key, []).append((obj.position, base36_encode(obj.sample.id)))

    for (measure, rank, channel), message in sorted(messages.items()):
        text = message if rank == 0 else _pack_message(message)
        lines.append(f"#{measure:03d}{channel:02d}:{text}")

    lines.append("")
    return "\n".join(lines)


def _message_slots(entries: list[tuple[Fraction, str]]) -> int:
    """Slots in one message line: the lcm of its position denominators, capped.

    The lcm grows one denominator at a time and is refused as soon as it
    passes the ceiling, so many large coprime denominators cost no more
    than the first few of them.
    """
    slots = 1
    for pos, _ in entries:
        slots = lcm(slots, pos.denominator)
        if slots > MAX_MESSAGE_SLOTS:
            raise DataError(
                f"a message line needs at least {slots} slots to hold its positions, "
                f"more than {MAX_MESSAGE_SLOTS}; use coarser positions"
            )
    return slots


def _pack_message(entries: list[tuple[Fraction, str]]) -> str:
    denominator = _message_slots(entries)
    tokens = ["00"] * denominator
    for pos, token in entries:
        slot = pos.numerator * (denominator // pos.denominator)
        tokens[slot] = token
    return "".join(tokens)


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
                sample=SampleRef(int(o["sample"])),
                lane=Lane[o["lane"]],
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
