"""The shared binary framing: pinned bytes of all three formats, hostile headers."""

import hashlib
import struct

import numpy as np
import pytest

from keysoundgen.cnn import ClassifierConfig, ConvClassifier, load_classifier, save_classifier
from keysoundgen.errors import DataError
from keysoundgen.features import FULL_MODE, save_features
from keysoundgen.selector import SelectorModel, load_selector, save_selector

# magic, version, h, w, conv1 filters, conv2 filters, kernel, classes, dropout, seed
CLASSIFIER_HEADER = "<4sHIIIIIIdQ"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_formats_are_pinned(tmp_path):
    """Save and load could drift together and still round-trip; these digests cannot."""
    selector = tmp_path / "selector.bin"
    save_selector(selector, SelectorModel(FULL_MODE, seed=0))
    assert sha256(selector) == "c25b99fba220bdde48f6c64d38f432fef7849a7a79b2e8ba61ef2b0ff96e283a"

    classifier = tmp_path / "classifier.bin"
    save_classifier(classifier, ConvClassifier(ClassifierConfig()))
    assert sha256(classifier) == "8c24280f0f1523084df5a04947ee8a3d1463983b42ca217acd37a9f7c6876c77"

    features = tmp_path / "features.bin"
    save_features(features, np.arange(3 * 299).reshape(3, 299) / 7)
    assert sha256(features) == "95e874142b0f4a5e490e25a2fc9f185fec29c5183a2b74395e1a6edb78adfd90"


def refuse_init(*args, **kwargs):
    raise AssertionError("the loader built a randomly initialised model")


def test_loaders_build_no_random_model(tmp_path, monkeypatch):
    selector = tmp_path / "selector.bin"
    save_selector(selector, SelectorModel(FULL_MODE, seed=3))
    classifier = tmp_path / "classifier.bin"
    save_classifier(classifier, ConvClassifier(ClassifierConfig(input_shape=(10, 10), kernel=3)))
    monkeypatch.setattr(SelectorModel, "__init__", refuse_init)
    monkeypatch.setattr(ConvClassifier, "__init__", refuse_init)
    assert load_selector(selector).seed == 3
    assert load_classifier(classifier).weights.shape == (32 * 1 * 1, 27)


@pytest.mark.parametrize(
    "field, value, message",
    [
        (7, 0, "class count"),
        (7, 28, "class count"),
        (7, 2**32 - 1, "class count"),
        (5, 2**32 - 1, "truncated"),  # conv2 filters: a huge dense layer
        (4, 2**32 - 1, "truncated"),  # conv1 filters
        (6, 2**32 - 1, "does not pool"),  # kernel
    ],
)
def test_hostile_classifier_header_fails_before_allocating(
    tmp_path, monkeypatch, field, value, message
):
    path = tmp_path / "model.bin"
    save_classifier(path, ConvClassifier(ClassifierConfig(input_shape=(10, 10), kernel=3)))
    data = path.read_bytes()
    fields = list(struct.unpack_from(CLASSIFIER_HEADER, data))
    fields[field] = value
    header = struct.pack(CLASSIFIER_HEADER, *fields)
    path.write_bytes(header + data[len(header) :])

    monkeypatch.setattr(ConvClassifier, "__init__", refuse_init)
    with pytest.raises(DataError, match=message):
        load_classifier(path)
