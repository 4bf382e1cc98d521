"""Label resolution and chart featurization."""

from fractions import Fraction

import pytest

from keysoundgen.audio import load_taxonomy
from keysoundgen.bms import (
    BpmEvent,
    Lane,
    Metadata,
    SampleRef,
    TimedObject,
    make_chart,
    save_bms,
)
from keysoundgen.corpus import build_corpus, CorpusConfig
from keysoundgen.dataset import (
    featurize_chart,
    featurize_corpus,
    load_chart_dir,
    resolve_labels,
    scratch_sample_ids,
)
from keysoundgen.errors import DataError
from keysoundgen.features import FEATURE_DIM

TAXONOMY = load_taxonomy()


def mixed_chart():
    table = {1: "kick00.wav", 2: "mystery.wav", 3: "scratch00.wav"}
    objects = [
        TimedObject(0, Fraction(0), SampleRef(1), Lane.K1),
        TimedObject(0, Fraction(1, 2), SampleRef(2), Lane.BG),
        TimedObject(1, Fraction(0), SampleRef(3), Lane.TT),
    ]
    return make_chart(objects, table, [BpmEvent(0, Fraction(0), 140.0)])


def test_resolve_labels_priority():
    chart = mixed_chart()
    names = [label.name for label in resolve_labels(chart, TAXONOMY)]
    assert names == ["kick", "other", "scratch"]
    # a manifest entry overrides the filename match
    manifest = {"mystery.wav": "pad", "kick00.wav": "tom"}
    names = [label.name for label in resolve_labels(chart, TAXONOMY, manifest)]
    assert names == ["tom", "pad", "scratch"]


def test_resolve_labels_rejects_unknown_manifest_category():
    chart = mixed_chart()
    with pytest.raises(DataError, match="unknown instrument category"):
        resolve_labels(chart, TAXONOMY, {"mystery.wav": "didgeridoo"})


def test_scratch_sample_ids():
    chart = mixed_chart()
    labels = resolve_labels(chart, TAXONOMY)
    assert scratch_sample_ids(chart, labels) == {3}


def test_featurize_chart_aligns_everything():
    chart = mixed_chart()
    example = featurize_chart("songA", chart, TAXONOMY)
    assert example.song == "songA"
    assert example.features.shape == (3, FEATURE_DIM)
    assert example.playable.tolist() == [True, False, True]
    assert example.difficulty == example.curve.overall > 0.0


def test_featurize_corpus_covers_every_entry():
    entries = build_corpus(CorpusConfig(songs=3, seed=1, min_measures=3, max_measures=4))
    examples = featurize_corpus(entries, TAXONOMY)
    assert len(examples) == len(entries)
    for entry, example in zip(entries, examples):
        assert example.song == entry.song
        assert len(example.playable) == len(entry.chart.objects)


def test_load_chart_dir_groups_by_title(tmp_path):
    table = {1: "kick00.wav"}
    objects = [TimedObject(0, Fraction(0), SampleRef(1), Lane.K1)]
    titled = make_chart(
        objects, table, [BpmEvent(0, Fraction(0), 120.0)],
        metadata=Metadata(title="same song"),
    )
    untitled = make_chart(objects, table, [BpmEvent(0, Fraction(0), 120.0)])
    save_bms(tmp_path / "a.bms", titled)
    save_bms(tmp_path / "b.bms", titled)
    save_bms(tmp_path / "c.bms", untitled)

    entries = load_chart_dir(tmp_path)
    assert [e.song for e in entries] == ["same song", "same song", "c"]

    with pytest.raises(DataError, match="no .bms files"):
        load_chart_dir(tmp_path / "empty")
