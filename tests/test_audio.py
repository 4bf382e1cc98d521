"""WAV ingestion, fingerprints, taxonomy, and label manifests."""

import wave

import numpy as np
import pytest

from keysoundgen import audio
from keysoundgen.audio import (
    CATEGORY_COUNT,
    CLIP_SAMPLES,
    SAMPLE_RATE,
    SPEC_BANDS,
    SPEC_FRAMES,
    Taxonomy,
    Waveform,
    fingerprint,
    format_manifest,
    label_from_filename,
    load_taxonomy,
    load_wave,
    parse_manifest,
    write_wave,
)
from keysoundgen.errors import DataError

TAXONOMY = load_taxonomy()


def sine(frequency, seconds=1.0, rate=SAMPLE_RATE, amplitude=0.8):
    t = np.arange(int(seconds * rate)) / rate
    return amplitude * np.sin(2 * np.pi * frequency * t)


# -- WAV loading --------------------------------------------------------------

def test_load_wave_roundtrip_shape_and_values(tmp_path):
    path = tmp_path / "tone.wav"
    samples = sine(440.0, 0.25)
    write_wave(path, Waveform(samples))
    loaded = load_wave(path)
    assert loaded.rate == SAMPLE_RATE
    assert len(loaded.samples) == len(samples)
    assert np.max(np.abs(loaded.samples)) == pytest.approx(1.0)
    # peak normalization preserves the waveform's shape
    reference = samples / np.max(np.abs(samples))
    assert np.allclose(loaded.samples, reference, atol=2e-4)


def test_load_wave_resamples_32k_to_16k(tmp_path):
    path = tmp_path / "hi.wav"
    samples = sine(440.0, 0.5, rate=32000)
    write_wave(path, Waveform(samples, rate=32000))
    loaded = load_wave(path)
    assert loaded.rate == SAMPLE_RATE
    assert len(loaded.samples) == len(samples) // 2
    assert np.allclose(loaded.samples, sine(440.0, 0.5) / 0.8, atol=0.02)


def refuse_allocation(*args, **kwargs):
    raise AssertionError("load_wave built the resampled signal")


def test_load_wave_bounds_the_resampled_length_before_allocating(tmp_path, monkeypatch):
    path = tmp_path / "hi.wav"
    write_wave(path, Waveform(sine(440.0, 0.5, rate=32000), rate=32000))
    monkeypatch.setattr(audio, "MAX_RESAMPLED", 8000)
    assert len(load_wave(path).samples) == 8000
    monkeypatch.setattr(audio, "MAX_RESAMPLED", 7999)
    monkeypatch.setattr(audio.np, "arange", refuse_allocation)
    monkeypatch.setattr(audio.np, "interp", refuse_allocation)
    with pytest.raises(DataError, match="more than 7999"):
        load_wave(path)


def test_load_wave_rejects_a_one_hertz_header(tmp_path, monkeypatch):
    # 1000 frames at 1 Hz would resample to 16 million samples
    path = tmp_path / "slow.wav"
    write_wave(path, Waveform(sine(0.1, 1000.0, rate=1), rate=1))
    monkeypatch.setattr(audio.np, "arange", refuse_allocation)
    monkeypatch.setattr(audio.np, "interp", refuse_allocation)
    with pytest.raises(DataError, match="1 Hz"):
        load_wave(path)


def test_load_wave_mixes_stereo_down(tmp_path):
    path = tmp_path / "stereo.wav"
    left = np.full(100, 0.5)
    right = np.full(100, -0.25)
    interleaved = np.empty(200)
    interleaved[0::2] = left
    interleaved[1::2] = right
    pcm = np.round(interleaved * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(2)
        handle.setsampwidth(2)
        handle.setframerate(SAMPLE_RATE)
        handle.writeframes(pcm.tobytes())
    loaded = load_wave(path)
    assert len(loaded.samples) == 100
    # mean of the two channels is 0.125, normalized to 1.0 by its own peak
    assert np.allclose(loaded.samples, 1.0, atol=1e-3)


def test_load_wave_accepts_8_bit(tmp_path):
    path = tmp_path / "lofi.wav"
    data = (np.round(sine(440.0, 0.1) * 127.0) + 128.0).astype(np.uint8)
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(1)
        handle.setframerate(SAMPLE_RATE)
        handle.writeframes(data.tobytes())
    loaded = load_wave(path)
    assert np.max(np.abs(loaded.samples)) == pytest.approx(1.0)
    assert np.allclose(loaded.samples, sine(440.0, 0.1) / 0.8, atol=0.02)


def test_load_wave_rejects_unsupported_width(tmp_path):
    path = tmp_path / "deep.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(4)
        handle.setframerate(SAMPLE_RATE)
        handle.writeframes(b"\x00" * 400)
    with pytest.raises(DataError, match="32 bits"):
        load_wave(path)


def test_load_wave_rejects_empty_and_silent(tmp_path):
    empty = tmp_path / "empty.wav"
    with wave.open(str(empty), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(SAMPLE_RATE)
        handle.writeframes(b"")
    with pytest.raises(DataError, match="zero-length"):
        load_wave(empty)

    silent = tmp_path / "silent.wav"
    write_wave(silent, Waveform(np.zeros(256)))
    with pytest.raises(DataError, match="silent"):
        load_wave(silent)


def test_load_wave_rejects_garbage(tmp_path):
    path = tmp_path / "not.wav"
    path.write_bytes(b"definitely not audio")
    with pytest.raises(DataError, match="not.wav"):
        load_wave(path)


# -- fingerprints -------------------------------------------------------------

def test_fingerprint_shape_is_fixed():
    for length in (100, CLIP_SAMPLES, 3 * CLIP_SAMPLES):
        spec = fingerprint(Waveform(sine(440.0)[:length]))
        assert spec.shape == (SPEC_FRAMES, SPEC_BANDS)
        assert (spec.values >= 0.0).all()


def test_fingerprint_of_silence_is_zero():
    spec = fingerprint(Waveform(np.zeros(CLIP_SAMPLES)))
    assert not spec.values.any()


def test_fingerprint_normalized_peak_is_one():
    spec = fingerprint(Waveform(sine(440.0)))
    assert spec.values.max() == 1.0


def test_fingerprint_1khz_lands_in_band_4():
    # 1000 Hz -> rfft bin 1000 / (16000/512) = 32 -> band 32 // 8 = 4
    spec = fingerprint(Waveform(sine(1000.0)))
    assert (spec.values.argmax(axis=1) == 4).all()


def test_fingerprint_normalization_hides_gain():
    loud = fingerprint(Waveform(sine(700.0, amplitude=0.9)))
    quiet = fingerprint(Waveform(sine(700.0, amplitude=0.09)))
    assert np.allclose(loud.values, quiet.values, atol=1e-9)


def test_fingerprint_rejects_wrong_rate():
    with pytest.raises(DataError, match="16000"):
        fingerprint(Waveform(np.zeros(100), rate=44100))


# -- taxonomy -----------------------------------------------------------------

def test_default_taxonomy_has_27_categories():
    assert len(TAXONOMY.categories) == CATEGORY_COUNT
    assert TAXONOMY.categories[0] == "drum"
    assert "other" in TAXONOMY.categories
    for category in TAXONOMY.categories:
        assert category in TAXONOMY.synonyms.values()


def test_label_lookup():
    kick = TAXONOMY.label("kick")
    assert TAXONOMY.label_at(kick.index) == kick
    with pytest.raises(DataError):
        TAXONOMY.label("theremin")
    with pytest.raises(DataError):
        TAXONOMY.label_at(27)


def test_label_from_filename_examples():
    assert label_from_filename("drums01.ogg", TAXONOMY).name == "drum"
    assert label_from_filename("PianoChordA.wav", TAXONOMY).name == "piano"
    assert label_from_filename("xQ3_.wav", TAXONOMY) is None
    # longest synonym wins: "bassdrum" beats "bass"
    assert label_from_filename("bassdrum2.wav", TAXONOMY).name == "kick"
    assert label_from_filename("BASS_01.wav", TAXONOMY).name == "bass"


def test_label_from_filename_tie_breaks():
    taxonomy = Taxonomy(
        tuple(TAXONOMY.categories),
        {**TAXONOMY.synonyms, "aa": "kick", "bb": "snare"},
    )
    # equal length: earliest match position wins
    assert label_from_filename("xbbaa.wav", taxonomy).name == "snare"
    # equal length and position impossible for distinct synonyms at one spot,
    # so alphabetical order decides between synonyms at equal (len, pos)
    assert label_from_filename("aabb.wav", taxonomy).name == "kick"


def test_taxonomy_file_roundtrip(tmp_path):
    path = tmp_path / "tax.txt"
    lines = []
    for category in TAXONOMY.categories:
        lines.append(f"{category}\t{category}")
    lines.append("boom\tkick")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    taxonomy = load_taxonomy(path)
    assert taxonomy.categories == TAXONOMY.categories
    assert taxonomy.synonyms["boom"] == "kick"


def test_taxonomy_file_errors(tmp_path):
    path = tmp_path / "tax.txt"
    path.write_text("drum drum\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        load_taxonomy(path)
    path.write_text("drum\tdrum\ndrum\tkick\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate"):
        load_taxonomy(path)
    path.write_text("drum\tdrum\n", encoding="utf-8")
    with pytest.raises(DataError, match="27"):
        load_taxonomy(path)


# -- manifests ----------------------------------------------------------------

def test_manifest_roundtrip():
    rows = [("kick01.wav", "kick"), ("pad 2.wav", "pad")]
    assert parse_manifest(format_manifest(rows)) == rows


def test_manifest_rejects_malformed_lines():
    with pytest.raises(DataError, match="line 2"):
        parse_manifest("a.wav\tkick\nbroken line\n")
