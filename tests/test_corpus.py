"""Synthetic corpus generators: structure, roles, ratios, tones."""

import random
from pathlib import Path

import numpy as np
import pytest

from keysoundgen.audio import label_from_filename, load_taxonomy, load_wave
from keysoundgen.corpus import (
    ALWAYS_BACKGROUND,
    SECTIONS,
    CorpusConfig,
    TONE_CATEGORIES,
    TONE_KINDS,
    build_corpus,
    instrument_wave,
    make_tone,
    random_chart,
    tone_corpus,
    write_corpus_samples,
)
from keysoundgen.errors import DataError

from charts import ALWAYS_PLAYABLE, random_score, ratio_chart

TAXONOMY = load_taxonomy()
SMALL = CorpusConfig(songs=8, seed=3, min_measures=4, max_measures=6)


def instrument_of(chart, obj):
    return Path(chart.sample_table[obj.sample.id]).stem[:-2]


def test_corpus_size_and_song_names():
    entries = build_corpus(SMALL)
    assert len(entries) >= SMALL.songs
    songs = {e.song for e in entries}
    assert len(songs) == SMALL.songs
    for entry in entries:
        assert entry.chart.metadata.title == entry.song
        assert entry.chart.objects


def test_corpus_roles_are_constant_per_song():
    for entry in build_corpus(SMALL):
        by_instrument = {}
        for obj in entry.chart.objects:
            by_instrument.setdefault(instrument_of(entry.chart, obj), set()).add(obj.playable)
        for instrument, states in by_instrument.items():
            assert len(states) == 1, f"{instrument} flips within one song"
            if instrument in ALWAYS_PLAYABLE or instrument == "scratch":
                assert states == {True}
            if instrument in ALWAYS_BACKGROUND:
                assert states == {False}


def test_corpus_roles_differ_between_songs():
    entries = build_corpus(CorpusConfig(songs=20, seed=0, min_measures=4, max_measures=5))
    melodic_roles = {}
    for entry in entries:
        for obj in entry.chart.objects:
            instrument = instrument_of(entry.chart, obj)
            if instrument in ("piano", "bass", "lead"):
                melodic_roles.setdefault(instrument, set()).add(obj.playable)
    # with 20 songs both conventions must occur somewhere
    assert any(states == {True, False} for states in melodic_roles.values())


def test_corpus_plays_exactly_one_section_per_song():
    entries = build_corpus(CorpusConfig(songs=20, seed=0, min_measures=4, max_measures=5))
    for entry in entries:
        states = [set(), set()]
        for obj in entry.chart.objects:
            instrument = instrument_of(entry.chart, obj)
            for k, section in enumerate(SECTIONS):
                if instrument in section:
                    states[k].add(obj.playable)
        # both sections sound in every song; one is choreographed, one is not
        assert states[0] in ({True}, {False})
        assert states[1] in ({True}, {False})
        assert states[0] != states[1]


def test_corpus_groups_never_exceed_eight():
    for entry in build_corpus(SMALL):
        counts = {}
        for obj in entry.chart.objects:
            if obj.playable:
                key = (obj.measure, obj.position)
                counts[key] = counts.get(key, 0) + 1
        assert all(count <= 8 for count in counts.values())


def test_corpus_sample_names_map_to_taxonomy():
    for entry in build_corpus(SMALL):
        for name in entry.chart.sample_table.values():
            assert label_from_filename(name, TAXONOMY) is not None, name


def test_corpus_is_deterministic():
    assert build_corpus(SMALL) == build_corpus(SMALL)
    other = build_corpus(CorpusConfig(songs=8, seed=4, min_measures=4, max_measures=6))
    assert other != build_corpus(SMALL)


# -- fuzz generators ----------------------------------------------------------

def test_random_chart_reaches_varied_shapes():
    rng = random.Random(1)
    titles = set()
    bpm_counts = set()
    for _ in range(50):
        chart = random_chart(rng)
        titles.add(chart.metadata.title)
        bpm_counts.add(len(chart.bpm_events))
        assert chart.objects
    assert len(titles) > 10
    assert bpm_counts != {1}


def test_random_score_respects_group_budget():
    rng = random.Random(2)
    for _ in range(30):
        chart, flags = random_score(rng, max_group=5)
        counts = {}
        for obj, flag in zip(chart.objects, flags):
            if flag:
                key = (obj.measure, obj.position)
                counts[key] = counts.get(key, 0) + 1
        assert all(count <= 5 for count in counts.values())


# -- exact-ratio charts -------------------------------------------------------

def test_ratio_chart_is_exact():
    chart = ratio_chart(total=200, playable_ratio=0.3)
    assert len(chart.objects) == 200
    assert sum(o.playable for o in chart.objects) == 60


def test_ratio_chart_rejects_non_integral_splits():
    with pytest.raises(DataError):
        ratio_chart(total=7, playable_ratio=0.3)


# -- tones --------------------------------------------------------------------

def test_make_tone_kinds_and_normalization():
    for kind in TONE_KINDS:
        wave = make_tone(kind, 440.0, rng=np.random.default_rng(0))
        assert np.max(np.abs(wave.samples)) == pytest.approx(1.0)
        assert wave.rate == 16000
    with pytest.raises(DataError):
        make_tone("sawtooth")


def test_tone_corpus_shape_and_labels():
    corpus = tone_corpus(per_class=5, seed=1)
    assert len(corpus) == 5 * len(TONE_KINDS)
    names = {label.name for _, label in corpus}
    assert names == set(TONE_CATEGORIES.values())
    for spec, _ in corpus:
        assert spec.shape == (32, 32)


def test_tone_corpus_is_deterministic():
    a = tone_corpus(per_class=3, seed=9)
    b = tone_corpus(per_class=3, seed=9)
    for (spec_a, label_a), (spec_b, label_b) in zip(a, b):
        assert np.array_equal(spec_a.values, spec_b.values)
        assert label_a == label_b


def test_tone_classes_separate_under_nearest_centroid():
    """Sanity oracle: the corpus must be separable before any training."""
    train = tone_corpus(per_class=30, seed=0)
    probe = tone_corpus(per_class=10, seed=1)
    centroids = {}
    for spec, label in train:
        bucket = centroids.setdefault(label.index, [])
        bucket.append(spec.values.reshape(-1))
    for index in centroids:
        centroids[index] = np.mean(centroids[index], axis=0)

    correct = 0
    for spec, label in probe:
        flat = spec.values.reshape(-1)
        nearest = min(centroids, key=lambda i: np.sum((flat - centroids[i]) ** 2))
        correct += nearest == label.index
    assert correct / len(probe) >= 0.95


def test_instrument_waves_are_deterministic():
    a = instrument_wave("kick", 0)
    b = instrument_wave("kick", 0)
    assert np.array_equal(a.samples, b.samples)
    c = instrument_wave("kick", 1)
    assert not np.array_equal(a.samples, c.samples)
    with pytest.raises(DataError):
        instrument_wave("theremin")


def test_write_corpus_samples_covers_every_reference(tmp_path):
    entries = build_corpus(SMALL)
    count = write_corpus_samples(tmp_path, entries)
    names = {
        name for entry in entries for name in entry.chart.sample_table.values()
    }
    assert count == len(names)
    for name in names:
        wave = load_wave(tmp_path / name)
        assert len(wave.samples) > 0
        assert label_from_filename(name, TAXONOMY) is not None
