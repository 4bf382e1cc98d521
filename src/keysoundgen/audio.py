"""Audio sample ingestion, spectrogram fingerprints, and instrument labels.

Samples are PCM WAV files; anything else must be converted first (OGG
decoding is deliberately out of scope, keeping ingestion bit-exact).
Every waveform is mixed down to mono, resampled to 16 kHz, and peak
normalized.  Fingerprints are 32-frame by 32-band magnitude spectrograms
of the first second of audio, the fixed-shape input the classifier
expects.

Instrument categories live in a replaceable taxonomy file (one
"synonym<TAB>category" pair per line, 27 categories).  Training labels
are derived from file names by longest-synonym substring match; files
with no recognizable name get no label.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError

SAMPLE_RATE = 16000
CLIP_SAMPLES = 16000  # 1.0 s analysis window
MAX_RESAMPLED = 600 * SAMPLE_RATE  # ten minutes of 16 kHz audio
FRAME = 500
NFFT = 512
SPEC_FRAMES = 32
SPEC_BANDS = 32
CATEGORY_COUNT = 27


@dataclass(frozen=True)
class Waveform:
    """Mono amplitude samples in [-1, 1] at 16 kHz."""

    samples: np.ndarray
    rate: int = SAMPLE_RATE


@dataclass(frozen=True)
class Spectrogram:
    """Fixed-shape (32 frames, 32 bands) non-negative magnitude matrix."""

    values: np.ndarray

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class InstrumentLabel:
    index: int
    name: str


@dataclass(frozen=True)
class Taxonomy:
    """27 ordered instrument categories plus a synonym dictionary."""

    categories: tuple[str, ...]
    synonyms: dict[str, str]

    def __post_init__(self):
        if len(self.categories) != CATEGORY_COUNT:
            raise DataError(
                f"taxonomy must define exactly {CATEGORY_COUNT} categories, "
                f"got {len(self.categories)}"
            )
        if len(set(self.categories)) != len(self.categories):
            raise DataError("taxonomy categories must be unique")

    def label(self, category: str) -> InstrumentLabel:
        try:
            return InstrumentLabel(self.categories.index(category), category)
        except ValueError:
            raise DataError(f"unknown instrument category {category!r}") from None

    def label_at(self, index: int) -> InstrumentLabel:
        if not 0 <= index < len(self.categories):
            raise DataError(f"instrument index {index} outside 0..{CATEGORY_COUNT - 1}")
        return InstrumentLabel(index, self.categories[index])


def load_taxonomy(path: str | Path | None = None) -> Taxonomy:
    """Read a taxonomy file; None loads the packaged default."""
    if path is None:
        text = resources.files(__package__).joinpath("taxonomy.txt").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    categories: list[str] = []
    synonyms: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"taxonomy line {lineno}: expected 'synonym<TAB>category'")
        synonym, category = parts[0].strip().lower(), parts[1].strip()
        if not synonym or not category:
            raise DataError(f"taxonomy line {lineno}: empty field")
        if synonym in synonyms:
            raise DataError(f"taxonomy line {lineno}: duplicate synonym {synonym!r}")
        if category not in categories:
            categories.append(category)
        synonyms[synonym] = category
    return Taxonomy(tuple(categories), synonyms)


def label_from_filename(name: str, taxonomy: Taxonomy) -> InstrumentLabel | None:
    """Longest-synonym substring match on the file stem, or None.

    Length ties break toward the earliest match position, then the
    alphabetically first synonym, so labeling is deterministic.
    """
    stem = Path(name).stem.lower()
    best = None
    for synonym, category in taxonomy.synonyms.items():
        at = stem.find(synonym)
        if at < 0:
            continue
        key = (-len(synonym), at, synonym)
        if best is None or key < best[0]:
            best = (key, category)
    return taxonomy.label(best[1]) if best else None


# ---------------------------------------------------------------------------
# WAV ingestion
# ---------------------------------------------------------------------------


def load_wave(path: str | Path) -> Waveform:
    """Read a PCM WAV file: mono mix-down, 16 kHz, peak-normalized."""
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as handle:
            channels = handle.getnchannels()
            width = handle.getsampwidth()
            rate = handle.getframerate()
            frames = handle.getnframes()
            raw = handle.readframes(frames)
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{path}: not a readable WAV file ({exc})") from None

    if frames == 0:
        raise DataError(f"{path}: zero-length audio")
    if width == 1:
        data = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    elif width == 2:
        data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    else:
        raise DataError(f"{path}: unsupported sample width {8 * width} bits (need 8 or 16)")

    data = data.reshape(-1, channels).mean(axis=1)

    if rate != SAMPLE_RATE:
        if rate <= 0:
            raise DataError(f"{path}: invalid sample rate {rate}")
        count = max(1, round(len(data) * SAMPLE_RATE / rate))
        if count > MAX_RESAMPLED:
            raise DataError(
                f"{path}: resampling {len(data)} frames at {rate} Hz gives {count} samples, "
                f"more than {MAX_RESAMPLED}"
            )
        positions = np.arange(count) * (rate / SAMPLE_RATE)
        data = np.interp(positions, np.arange(len(data)), data)

    peak = np.max(np.abs(data))
    if peak == 0:
        raise DataError(f"{path}: silent audio sample")
    return Waveform(data / peak, SAMPLE_RATE)


def write_wave(path: str | Path, waveform: Waveform) -> None:
    """Write a mono 16-bit PCM WAV (test fixtures and synthetic corpora)."""
    clipped = np.clip(np.asarray(waveform.samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(waveform.rate)
        handle.writeframes(pcm.tobytes())


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def fingerprint(waveform: Waveform) -> Spectrogram:
    """Magnitude spectrogram of the first second: 32 frames x 32 bands.

    Short inputs are zero-padded, long ones cropped, so every sample in a
    run shares one shape.  The matrix is scaled into [0, 1] by its own
    peak (an all-zero matrix stays zero).
    """
    if waveform.rate != SAMPLE_RATE:
        raise DataError(f"fingerprint needs a {SAMPLE_RATE} Hz waveform, got {waveform.rate}")
    x = np.zeros(CLIP_SAMPLES, dtype=np.float64)
    source = np.asarray(waveform.samples, dtype=np.float64)[:CLIP_SAMPLES]
    x[: len(source)] = source

    frames = x.reshape(SPEC_FRAMES, FRAME) * np.hanning(FRAME)
    spectrum = np.abs(np.fft.rfft(frames, n=NFFT, axis=1))[:, : NFFT // 2]
    bands = spectrum.reshape(SPEC_FRAMES, SPEC_BANDS, -1).mean(axis=2)

    peak = bands.max()
    if peak > 0:
        bands = bands / peak
    return Spectrogram(bands)


# ---------------------------------------------------------------------------
# Label manifests (file name -> category, one tab-separated pair per line)
# ---------------------------------------------------------------------------


def format_manifest(rows) -> str:
    return "".join(f"{name}\t{category}\n" for name, category in rows)


def parse_manifest(text: str) -> list[tuple[str, str]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"manifest line {lineno}: expected 'file<TAB>category'")
        rows.append((parts[0], parts[1]))
    return rows
