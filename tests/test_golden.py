"""Golden outputs: sha256 pins of round-tripped BMS, feature matrices, curves,
placed charts, selector and classifier model files, self-fed rollout
decisions, no-summary model decisions and classifier decisions.

A change that must keep outputs byte- or bit-identical keeps these digests.
A change that alters an output on purpose updates the pin and says why.
Nothing here trains to convergence, so the whole file runs in a few seconds.
"""

import hashlib
import random

import numpy as np
import pytest

from keysoundgen.audio import load_taxonomy
from keysoundgen.bms import emit_bms_bytes, parse_bms_bytes
from keysoundgen.cnn import ClassifierConfig, save_classifier, train_classifier
from keysoundgen.corpus import (
    CorpusConfig,
    build_corpus,
    random_chart,
    tone_corpus,
)
from keysoundgen.dataset import featurize_corpus, resolve_labels, scratch_sample_ids
from keysoundgen.difficulty import curve_to_text, difficulty_curve
from keysoundgen.features import NO_SUMMARY_MODE, build_features
from keysoundgen.placement import apply_selection
from keysoundgen.selector import (
    TrainConfig,
    make_split,
    predict_chart,
    predict_flags,
    save_selector,
    train_selector,
)
from keysoundgen.timing import TimeGrid

from charts import random_score


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


@pytest.fixture(scope="module")
def examples(taxonomy):
    return featurize_corpus(build_corpus(CorpusConfig(songs=10, seed=0)), taxonomy)


@pytest.fixture(scope="module")
def selector(examples):
    """A full-mode selector after three epochs."""
    split = make_split([example.song for example in examples], 0)
    return train_selector(examples, split, TrainConfig(max_epochs=3, seed=0))[0]


def test_selector_model_files_are_pinned(selector, tmp_path):
    save_selector(tmp_path / "selector.bin", selector)
    digest = hashlib.sha256((tmp_path / "selector.bin").read_bytes()).hexdigest()
    assert digest == "cec3ce1ff55ddb72d5310f7e64852fc6c8ec89b0a2a256d480d6b096b79a6a9f"


def test_self_rollout_decisions_are_pinned(examples, selector):
    digest = hashlib.sha256()
    for example in examples[:6]:
        chart = example.chart
        flags = predict_chart(
            selector, chart, TimeGrid(chart), example.curve, example.labels, "self"
        )
        digest.update(flags.tobytes())
        scratch = scratch_sample_ids(chart, example.labels)
        digest.update(emit_bms_bytes(apply_selection(chart, flags, scratch)))
    assert digest.hexdigest() == "8924244750257b04e0876b0f05c5837b086755e2423c0e5f9c42571e73b86379"


def test_no_summary_decisions_are_pinned(examples):
    """ff_free in evaluate: a selector without summary features scores the test split."""
    split = make_split([example.song for example in examples], 0)
    test = [example for example in examples if split.assignment[example.song] == "test"]
    model, _ = train_selector(examples, split, TrainConfig(max_epochs=3, seed=0), NO_SUMMARY_MODE)
    digest = hashlib.sha256()
    for example in test:
        # three epochs call every test object playable, so the activations
        # are pinned too: they move with any change in rounding
        digest.update(model.forward(NO_SUMMARY_MODE.apply(example.features)).tobytes())
        digest.update(predict_flags(model, example.features).tobytes())
    assert digest.hexdigest() == "216b700f74923f0f954e983b9e21a4d347962fc36b286e526a7ad89266fd0a17"


def test_classifier_decisions_are_pinned(tmp_path):
    """Labels a classifier trained four epochs gives to unseen tones, and its model file.

    Four epochs at the default step size leave the model far from converged,
    so its 30 decisions still span three labels and move with any change in
    the training arithmetic that is large enough to flip one of them.
    """
    model, report = train_classifier(
        tone_corpus(per_class=10, seed=0), ClassifierConfig(epochs=4, seed=0)
    )
    probe = np.stack([spec.values for spec, _ in tone_corpus(per_class=10, seed=1)])
    labels = model.predict(probe).astype("<i8")
    assert report.holdout_accuracy == 0.0
    assert sorted(set(labels.tolist())) == [8, 17, 22]
    digest = hashlib.sha256(labels.tobytes()).hexdigest()
    assert digest == "7d6986db1ad560c49ca9b172d0e0af1c86cc8a2a86924773af2acdc5cc486c47"
    save_classifier(tmp_path / "classifier.bin", model)
    digest = hashlib.sha256((tmp_path / "classifier.bin").read_bytes()).hexdigest()
    assert digest == "9910a59a40dbebe2ca93b7dff04d6f2222d792498da2c5f4878717e8233ac620"
