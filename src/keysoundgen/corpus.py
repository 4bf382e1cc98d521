"""Procedurally composed corpora: charts, playability rules, and audio.

Real keysound chart collections cannot be redistributed, so experiments
run on synthetic songs instead.  Each song draws a BPM, a handful of
instruments, and a playability role per instrument: kicks and snares are
always playable and textures (hat, noise, fx) never are.  The melodics
are split into two fixed sections, and each song choreographs one
section while the other stays in the background.  Which section, is the
song's convention: it is constant within a song and invisible to the
instrument identity alone, so a model can only recover it from the
trailing summary features.  Both sections appear in every song, keeping
the playable share (and so the strain profile) level across the two
conventions rather than leaking them through the difficulty input.

The module also builds fuzz charts for round-trip testing and seeded
tone waveforms (sine / square / noise) for classifier corpora and sample
WAV generation.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, Taxonomy, Waveform, fingerprint, load_taxonomy, write_wave
from .bms import (
    BpmEvent,
    Chart,
    Lane,
    Metadata,
    SampleRef,
    TimedObject,
    make_chart,
)
from .errors import DataError
from .placement import apply_selection

ALWAYS_BACKGROUND = ("hat", "noise", "fx")
SECTIONS = (
    ("bass", "piano", "lead", "bell"),
    ("pluck", "organ", "strings", "guitar"),
)

SIXTEENTHS = [Fraction(i, 16) for i in range(16)]


@dataclass(frozen=True)
class CorpusConfig:
    songs: int = 60
    seed: int = 0
    min_measures: int = 12
    max_measures: int = 20

    def __post_init__(self):
        if self.songs < 1:
            raise DataError(f"corpus songs must be at least 1, got {self.songs}")
        # random.Random seeds an int by its absolute value, so -7 would repeat 7
        if not 0 <= self.seed < 2**64:
            raise DataError(f"corpus seed must be in [0, 2**64), got {self.seed}")
        # BMS numbers measures 0..999, and a chart's odd-length measure is drawn from 1..measures-1
        if not 2 <= self.min_measures <= self.max_measures <= 1000:
            raise DataError(
                "corpus measures need 2 <= min_measures <= max_measures <= 1000, "
                f"got {self.min_measures} and {self.max_measures}"
            )


@dataclass(frozen=True)
class CorpusEntry:
    song: str
    chart: Chart


@dataclass(frozen=True)
class SongPlan:
    name: str
    bpm: float
    instruments: tuple[str, ...]
    roles: dict[str, bool]  # instrument -> playable for this whole song
    variants: dict[str, int]  # instrument -> sample variant count


def _plan_song(rng: random.Random, name: str) -> SongPlan:
    instruments = ["kick", "snare", "hat"]
    if rng.random() < 0.5:
        instruments.append("noise")
    if rng.random() < 0.4:
        instruments.append("fx")
    for section in SECTIONS:
        instruments.extend(rng.sample(section, rng.randint(1, 3)))
    has_scratch = rng.random() < 0.35
    if has_scratch:
        instruments.append("scratch")

    played = SECTIONS[rng.randrange(2)]
    roles = {}
    for instrument in instruments:
        if instrument in ALWAYS_BACKGROUND:
            roles[instrument] = False
        elif instrument in SECTIONS[0] or instrument in SECTIONS[1]:
            roles[instrument] = instrument in played
        else:
            roles[instrument] = True  # kick, snare, scratch

    return SongPlan(
        name=name,
        bpm=float(rng.choice([120, 128, 135, 140, 145, 150, 160, 170, 180])),
        instruments=tuple(instruments),
        roles=roles,
        variants={instrument: rng.randint(1, 2) for instrument in instruments},
    )


def _measure_slots(rng: random.Random, instrument: str, density: float) -> list[Fraction]:
    """Which 16th slots of one measure an instrument hits."""
    if instrument == "kick":
        slots = {0, 4, 8, 12}
        slots.update(i for i in (2, 6, 10, 14) if rng.random() < 0.15 * density)
    elif instrument == "snare":
        slots = {4, 12}
        slots.update(i for i in (10, 15) if rng.random() < 0.1 * density)
    elif instrument == "hat":
        step = 2 if rng.random() < 0.6 else 4
        slots = set(range(0, 16, step))
    elif instrument == "scratch":
        slots = {i for i in (0, 8) if rng.random() < 0.35}
    elif instrument in ("noise", "fx"):
        slots = {i for i in range(16) if rng.random() < 0.04}
    elif instrument == "bass":
        slots = {i for i in range(0, 16, 2) if rng.random() < 0.35 + 0.25 * density}
    else:  # section melodics
        slots = {i for i in range(16) if rng.random() < 0.12 + 0.16 * density}
    return [SIXTEENTHS[i] for i in sorted(slots)]


def _song_chart(rng: random.Random, plan: SongPlan, level: int, measures: int) -> Chart:
    density = level / 3.0

    sample_ids: dict[tuple[str, int], int] = {}
    table: dict[int, str] = {}
    next_id = 1
    for instrument in plan.instruments:
        for variant in range(plan.variants[instrument]):
            sample_ids[(instrument, variant)] = next_id
            table[next_id] = f"{instrument}{variant:02d}.wav"
            next_id += 1

    objects = []
    flags = []
    for measure in range(measures):
        for instrument in plan.instruments:
            for position in _measure_slots(rng, instrument, density):
                variant = rng.randrange(plan.variants[instrument])
                sid = sample_ids[(instrument, variant)]
                objects.append(TimedObject(measure, position, SampleRef(sid), Lane.BG))
                flags.append(plan.roles[instrument])

    lengths = {}
    if rng.random() < 0.3:
        lengths[rng.randrange(1, measures)] = Fraction(rng.choice([1, 3, 2]), 2)

    chart = make_chart(
        objects,
        table,
        [BpmEvent(0, Fraction(0), plan.bpm)],
        lengths,
        Metadata(title=plan.name, artist="corpus", difficulty_label=str(level)),
    )
    # make_chart re-sorts, so align the flags with the canonical order
    flag_by_key = {}
    for obj, flag in zip(objects, flags):
        flag_by_key[(obj.measure, obj.position, obj.sample.id)] = flag
    ordered_flags = [flag_by_key[(o.measure, o.position, o.sample.id)] for o in chart.objects]

    scratch_ids = {sid for (inst, _), sid in sample_ids.items() if inst == "scratch"}
    return apply_selection(chart, ordered_flags, scratch_ids)


def build_corpus(config: CorpusConfig = CorpusConfig()) -> list[CorpusEntry]:
    """Composed charts for selector experiments, one or two per song.

    Simultaneous playables never exceed 8: per slot each instrument
    sounds at most once, and at most 6 playable instruments exist
    (kick, snare, scratch, and up to three melodics from the song's
    played section).
    """
    rng = random.Random(config.seed)
    entries = []
    for s in range(config.songs):
        plan = _plan_song(rng, f"song{s:03d}")
        charts = 2 if rng.random() < 0.4 else 1
        base_level = rng.randint(1, 4)
        for c in range(charts):
            measures = rng.randint(config.min_measures, config.max_measures)
            entries.append(
                CorpusEntry(plan.name, _song_chart(rng, plan, base_level + c, measures))
            )
    return entries


# ---------------------------------------------------------------------------
# Fuzz charts for round-trip testing
# ---------------------------------------------------------------------------

_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32)
_TITLE_WORDS = ("storm", "雨", "neon", "夜景", "pulse", "echo", "glass", "零")


def random_chart(rng: random.Random) -> Chart:
    """A structurally random but valid chart (round-trip fuzz input)."""
    sample_count = rng.randint(1, 12)
    ids = rng.sample(range(1, 1296), sample_count)
    table = {sid: f"s{sid:04d}.wav" for sid in ids}

    objects = []
    used_playable: set[tuple[int, Fraction, Lane]] = set()
    for _ in range(rng.randint(1, 30)):
        measure = rng.randint(0, 9)
        denominator = rng.choice(_DENOMINATORS)
        position = Fraction(rng.randrange(denominator), denominator)
        sid = rng.choice(ids)
        lane = rng.choice([Lane.BG] * 4 + list(Lane)[:8])
        if lane is not Lane.BG:
            if (measure, position, lane) in used_playable:
                lane = Lane.BG
            else:
                used_playable.add((measure, position, lane))
        objects.append(TimedObject(measure, position, SampleRef(sid), lane))

    events = [BpmEvent(0, Fraction(0), float(rng.choice([120, 150, 174, 200])))]
    for _ in range(rng.randint(0, 3)):
        denominator = rng.choice(_DENOMINATORS)
        events.append(
            BpmEvent(
                rng.randint(0, 9),
                Fraction(rng.randrange(denominator), denominator),
                float(rng.randint(60, 300)),
            )
        )

    lengths = {}
    for _ in range(rng.randint(0, 2)):
        lengths[rng.randint(0, 9)] = rng.choice(
            [Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(2, 3), Fraction(7, 8)]
        )

    metadata = Metadata(
        title=" ".join(rng.sample(_TITLE_WORDS, 2)) if rng.random() < 0.8 else "",
        artist="fuzz" if rng.random() < 0.8 else "",
        difficulty_label=str(rng.randint(1, 12)) if rng.random() < 0.5 else None,
    )
    return make_chart(objects, table, events, lengths, metadata)


# ---------------------------------------------------------------------------
# Tones: classifier corpora and synthetic sample WAVs
# ---------------------------------------------------------------------------

TONE_KINDS = ("sine", "square", "noise")


def make_tone(
    kind: str,
    frequency: float = 440.0,
    duration: float = 0.5,
    decay: float = 6.0,
    rng: np.random.Generator | None = None,
    phase: float = 0.0,
) -> Waveform:
    """One seeded synthetic one-shot at 16 kHz, peak-normalized."""
    if kind not in TONE_KINDS:
        raise DataError(f"tone kind must be one of {TONE_KINDS}, got {kind!r}")
    t = np.arange(int(duration * SAMPLE_RATE)) / SAMPLE_RATE
    if kind == "noise":
        if rng is None:
            rng = np.random.default_rng(0)
        signal = rng.standard_normal(len(t))
    else:
        signal = np.sin(2.0 * np.pi * frequency * t + phase)
        if kind == "square":
            signal = np.sign(signal) + 0.0
    signal = signal * np.exp(-decay * t)
    peak = np.max(np.abs(signal))
    return Waveform(signal / peak if peak > 0 else signal, SAMPLE_RATE)


TONE_CATEGORIES = {"sine": "lead", "square": "synth", "noise": "noise"}
_TONE_DECAYS = {"sine": (1.5, 2.5), "square": (6.0, 8.0), "noise": (11.0, 14.0)}


def tone_corpus(per_class: int = 100, seed: int = 0, taxonomy: Taxonomy | None = None):
    """(Spectrogram, InstrumentLabel) pairs, per_class of each tone kind.

    Each kind pairs a spectral silhouette (one low peak, odd-harmonic
    comb, broadband) with its own decay range, the way instrument
    families differ by envelope as much as by spectrum.  Fundamentals
    stay inside one spectrogram band (420-480 Hz) so the silhouettes
    are stable across draws: the classes separate under a plain
    nearest-centroid rule, which is the floor any trained classifier
    has to clear.
    """
    taxonomy = taxonomy or load_taxonomy()
    rng = np.random.default_rng(seed)
    corpus = []
    for kind in TONE_KINDS:
        label = taxonomy.label(TONE_CATEGORIES[kind])
        low, high = _TONE_DECAYS[kind]
        for _ in range(per_class):
            frequency = float(np.exp(rng.uniform(np.log(420.0), np.log(480.0))))
            wave = make_tone(
                kind,
                frequency,
                duration=0.6,
                decay=float(rng.uniform(low, high)),
                rng=rng,
                phase=float(rng.uniform(0.0, 2.0 * np.pi)),
            )
            corpus.append((fingerprint(wave), label))
    return corpus


# Characteristic (kind, frequency, decay) per corpus instrument, so the
# synthesized sample set is classifiable by ear and by spectrogram.
INSTRUMENT_TONES = {
    "kick": ("sine", 55.0, 18.0),
    "snare": ("noise", 0.0, 16.0),
    "hat": ("noise", 0.0, 40.0),
    "noise": ("noise", 0.0, 3.0),
    "fx": ("square", 1760.0, 2.5),
    "bass": ("sine", 110.0, 5.0),
    "piano": ("sine", 440.0, 5.0),
    "lead": ("sine", 880.0, 4.0),
    "bell": ("sine", 1320.0, 7.0),
    "pluck": ("sine", 660.0, 11.0),
    "organ": ("square", 330.0, 3.0),
    "strings": ("square", 220.0, 2.0),
    "guitar": ("square", 440.0, 6.0),
    "scratch": ("noise", 0.0, 9.0),
}


def instrument_wave(instrument: str, variant: int = 0) -> Waveform:
    if instrument not in INSTRUMENT_TONES:
        raise DataError(f"no tone recipe for instrument {instrument!r}")
    kind, frequency, decay = INSTRUMENT_TONES[instrument]
    detune = 1.0 + 0.06 * variant
    rng = np.random.default_rng(zlib.crc32(f"{instrument}:{variant}".encode()))
    return make_tone(kind, frequency * detune, duration=0.4, decay=decay, rng=rng)


def write_corpus_samples(directory: str | Path, entries) -> int:
    """Write every sample file the corpus charts reference; returns count."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = 0
    seen = set()
    for entry in entries:
        for name in entry.chart.sample_table.values():
            if name in seen:
                continue
            seen.add(name)
            stem = Path(name).stem
            instrument, variant = stem[:-2], int(stem[-2:])
            write_wave(directory / name, instrument_wave(instrument, variant))
            written += 1
    return written
