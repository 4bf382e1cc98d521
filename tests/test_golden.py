"""Golden outputs: sha256 pins of round-tripped BMS, feature matrices, curves,
placed charts and self-fed rollout decisions.

A change that must keep outputs byte- or bit-identical keeps these digests.
A change that alters an output on purpose updates the pin and says why.
Nothing here trains to convergence, so the whole file runs in a few seconds.
"""

import hashlib
import random

import pytest

from keysoundgen.audio import load_taxonomy
from keysoundgen.bms import emit_bms_bytes, parse_bms_bytes
from keysoundgen.corpus import CorpusConfig, build_corpus, random_chart, random_score
from keysoundgen.dataset import featurize_corpus, resolve_labels, scratch_sample_ids
from keysoundgen.difficulty import curve_to_text, difficulty_curve
from keysoundgen.features import build_features
from keysoundgen.placement import apply_selection
from keysoundgen.selector import TrainConfig, make_split, predict_chart, train_selector
from keysoundgen.timing import TimeGrid


@pytest.fixture(scope="module")
def taxonomy():
    return load_taxonomy(None)


@pytest.fixture(scope="module")
def fuzz():
    rng = random.Random(16)
    return [random_chart(rng) for _ in range(200)]


@pytest.fixture(scope="module")
def corpus_charts():
    return [entry.chart for entry in build_corpus(CorpusConfig(songs=4, seed=0))]


def test_bms_round_trip_is_pinned(fuzz):
    digest = hashlib.sha256()
    for chart in fuzz:
        digest.update(emit_bms_bytes(parse_bms_bytes(emit_bms_bytes(chart))))
    assert digest.hexdigest() == "c984282a5ce0633361e535a86bcce632c0d7ff6a10a1439d6a4872a74c96349b"


def test_features_and_curves_are_pinned(corpus_charts, fuzz, taxonomy):
    truth, none, curves = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for chart in corpus_charts + fuzz:
        grid = TimeGrid(chart)
        curve = difficulty_curve(chart, grid)
        labels = resolve_labels(chart, taxonomy)
        truth.update(build_features(chart, grid, curve, labels, "truth").tobytes())
        none.update(build_features(chart, grid, curve, labels, "none").tobytes())
        curves.update(curve_to_text(curve).encode())
    assert truth.hexdigest() == "25ecfb0c5e848e17d81776da93c15378f94cc35fd3442b9494dcc50f09983a66"
    assert none.hexdigest() == "025e55e1db072c7d9886a9b4bfce2ac390927527d2745912414c1f1b521e516c"
    assert curves.hexdigest() == "bac494f2eb35e1cb1b7bd06ff7b4b2c435ede1f470c2eb354d2310a97f557220"


def test_placement_is_pinned(corpus_charts):
    rng = random.Random(16)
    inputs = [random_score(rng) for _ in range(50)]
    inputs += [(chart, [obj.playable for obj in chart.objects]) for chart in corpus_charts]
    digest = hashlib.sha256()
    for chart, flags in inputs:
        digest.update(emit_bms_bytes(apply_selection(chart, flags)))
    assert digest.hexdigest() == "7da10ea68cea09b7c6b967d47773fc2017b4fd2698cdd0526c0943591c9ceca0"


def test_self_rollout_decisions_are_pinned(taxonomy):
    examples = featurize_corpus(build_corpus(CorpusConfig(songs=10, seed=0)), taxonomy)
    split = make_split([example.song for example in examples], 0)
    digest = hashlib.sha256()
    for normalize in (False, True):
        model, _ = train_selector(
            examples, split, TrainConfig(max_epochs=3, normalize=normalize, seed=0)
        )
        for example in examples[:6]:
            chart = example.chart
            flags = predict_chart(
                model, chart, TimeGrid(chart), example.curve, example.labels, "self"
            )
            digest.update(flags.tobytes())
            scratch = scratch_sample_ids(chart, example.labels)
            digest.update(emit_bms_bytes(apply_selection(chart, flags, scratch)))
    assert digest.hexdigest() == "82458b051a458246a71efdfcec3e08e6fb89c848c5815c7fb6ed3bb91cdb65f5"
