"""Selection network: forward oracle, gradients, training behavior, files."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from keysoundgen.audio import load_taxonomy
from keysoundgen.bms import BpmEvent, Lane, SampleRef, TimedObject, make_chart
from keysoundgen.difficulty import chart_difficulty
from keysoundgen.errors import DataError
from keysoundgen.features import (
    FEATURE_DIM,
    FULL_MODE,
    NO_SUMMARY_MODE,
    FeatureMode,
    build_features,
)
from keysoundgen.selector import (
    LAYER_WIDTHS,
    EpochRow,
    SelectorModel,
    SplitPlan,
    TrainConfig,
    baseline_all_playable,
    baseline_random,
    fit,
    load_selector,
    make_split,
    predict_chart,
    predict_flags,
    report_to_text,
    save_selector,
    train_selector,
    weighted_mse,
    _loss_and_gradients,
)
from keysoundgen.timing import TimeGrid

TAXONOMY = load_taxonomy()
BARE_MODE = FeatureMode(use_difficulty=False, use_summary=False)  # width 28


def reference_forward(model, x):
    """Independent matrix-chain transcription of the stack."""
    h = np.asarray(x, dtype=np.float64)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b
        if i != last:
            h = np.where(h > 0.0, h, 0.0)
    return h


# -- forward pass -------------------------------------------------------------

def test_layer_shapes():
    model = SelectorModel(FULL_MODE, seed=3)
    widths = [299, *LAYER_WIDTHS]
    for i, w in enumerate(model.weights):
        assert w.shape == (widths[i], widths[i + 1])
        assert model.biases[i].shape == (widths[i + 1],)
        assert not model.biases[i].any()
        bound = 1.0 / np.sqrt(widths[i])
        assert np.abs(w).max() <= bound


def test_forward_matches_reference_chain():
    rng = np.random.default_rng(17)
    for trial in range(100):
        mode = [FULL_MODE, NO_SUMMARY_MODE, BARE_MODE][trial % 3]
        model = SelectorModel(mode, seed=trial)
        x = rng.normal(size=(rng.integers(1, 6), mode.width))
        assert np.allclose(model.forward(x), reference_forward(model, x), atol=1e-6)


def test_forward_single_path_hand_computed():
    model = SelectorModel(FULL_MODE, seed=0)
    for w, b in zip(model.weights, model.biases):
        w[:] = 0.0
        b[:] = 0.0
    # route feature 0 straight through with unit weights, then fan out (2, 3)
    model.weights[0][0, 0] = 1.0
    model.weights[1][0, 0] = 1.0
    model.weights[2][0, 0] = 1.0
    model.weights[3][0, 0] = 2.0
    model.weights[3][0, 1] = 3.0
    x = np.zeros(299)
    x[0] = 1.5
    assert model.forward(x).tolist() == [[3.0, 4.5]]
    x[0] = -1.5  # clipped by the first ReLU
    assert model.forward(x).tolist() == [[0.0, 0.0]]


def test_forward_rejects_wrong_width():
    model = SelectorModel(FULL_MODE, seed=0)
    with pytest.raises(DataError, match="width"):
        model.forward(np.zeros((2, 29)))


def test_init_is_seed_deterministic():
    a = SelectorModel(FULL_MODE, seed=9)
    b = SelectorModel(FULL_MODE, seed=9)
    c = SelectorModel(FULL_MODE, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


# -- loss ---------------------------------------------------------------------

def test_weighted_mse_examples():
    assert weighted_mse(np.array([[1.0, 0.0]]), [True]) == 0.0
    assert weighted_mse(np.array([[0.0, 1.0]]), [False]) == 0.0
    # (0.5, 0.5): squared errors 0.25 each, example mean 0.25
    assert weighted_mse(np.array([[0.5, 0.5]]), [True]) == pytest.approx(0.25)
    assert weighted_mse(np.array([[0.5, 0.5]]), [False]) == pytest.approx(0.05)
    both = weighted_mse(np.array([[0.5, 0.5], [0.5, 0.5]]), [True, False])
    assert both == pytest.approx(0.15)


def test_weighted_mse_rejects_nonpositive_weights():
    with pytest.raises(DataError):
        TrainConfig(weight_nonplayable=0.0)


def test_gradients_match_finite_differences():
    config = TrainConfig(seed=5)
    model = SelectorModel(BARE_MODE, seed=5)
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3, BARE_MODE.width))
    flags = np.array([True, False, True])

    _, grad_w, grad_b = _loss_and_gradients(model, x, flags, config)

    def loss_now():
        return weighted_mse(model.forward(x), flags, config)

    h = 1e-5
    worst = 0.0
    for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
        for layer, grad in zip(params, grads):
            flat = layer.reshape(-1)
            grad_flat = grad.reshape(-1)
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + h
                up = loss_now()
                flat[j] = keep - h
                down = loss_now()
                flat[j] = keep
                numeric = (up - down) / (2 * h)
                scale = max(abs(numeric), abs(grad_flat[j]), 1e-8)
                worst = max(worst, abs(numeric - grad_flat[j]) / scale)
    assert worst < 1e-4


# -- training -----------------------------------------------------------------

def toy_data(rng, count, width=28):
    x = rng.uniform(-1.0, 1.0, size=(count, width))
    flags = x[:, 0] > 0.0
    return x, flags


def test_fit_memorizes_separable_data():
    rng = np.random.default_rng(8)
    x, flags = toy_data(rng, 64)
    model = SelectorModel(BARE_MODE, seed=8)
    config = TrainConfig(
        batch_size=16, learning_rate=0.05, max_epochs=400, tolerance=1e-9, seed=8
    )
    report = fit(model, x, flags, x, flags, config)
    predicted = predict_flags(model, np.zeros((0, FEATURE_DIM)))  # width sanity
    assert predicted.shape == (0,)
    out = model.forward(x)
    assert ((out[:, 0] > out[:, 1]) == flags).all()
    assert report.rows[-1].val_f1 == 1.0
    assert report.rows[-1].val_loss < report.rows[0].val_loss


def test_fit_plateau_halves_rate_then_stops():
    # a huge tolerance makes every epoch after the first count as a
    # plateau: two bad epochs halve the rate, the third stops the run
    rng = np.random.default_rng(1)
    x, flags = toy_data(rng, 32)
    model = SelectorModel(BARE_MODE, seed=1)
    config = TrainConfig(batch_size=8, max_epochs=100, tolerance=1.0, seed=1)
    report = fit(model, x, flags, x, flags, config)
    assert report.stopped_early
    assert report.final_learning_rate == config.learning_rate * 0.5
    assert len(report.rows) == 4


def test_fit_runs_out_of_epochs_without_plateau():
    rng = np.random.default_rng(3)
    x, flags = toy_data(rng, 64)
    model = SelectorModel(BARE_MODE, seed=3)
    config = TrainConfig(batch_size=16, max_epochs=3, tolerance=1e-12, seed=3)
    report = fit(model, x, flags, x, flags, config)
    assert not report.stopped_early
    assert len(report.rows) == 3
    assert report.final_learning_rate == config.learning_rate


def test_fit_rejects_empty_partitions():
    model = SelectorModel(BARE_MODE, seed=0)
    with pytest.raises(DataError):
        fit(model, np.zeros((0, 28)), [], np.zeros((2, 28)), [True, False], TrainConfig())


def test_downweighting_nonplayable_errors_raises_recall():
    """The 0.2 weight exists to trade precision for playable recall."""
    balanced = TrainConfig(weight_nonplayable=1.0, max_epochs=40, seed=0)
    skewed = TrainConfig(weight_nonplayable=0.2, max_epochs=40, seed=0)
    recall_gain = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        n = 400
        flags = rng.random(n) < 0.3
        x = rng.normal(size=(n, 28))
        x[:, 0] += np.where(flags, 0.6, -0.6)  # heavy class overlap

        recalls = {}
        for name, config in (("balanced", balanced), ("skewed", skewed)):
            model = SelectorModel(BARE_MODE, seed=seed)
            fit(model, x, flags, x, flags, config)
            out = model.forward(x)
            predicted = out[:, 0] > out[:, 1]
            truth_playable = flags.sum()
            recalls[name] = (predicted & flags).sum() / truth_playable
        recall_gain += recalls["skewed"] - recalls["balanced"]
    assert recall_gain > 0.0


# -- splits -------------------------------------------------------------------

def test_make_split_cuts_80_10_10():
    songs = [f"song{i:02d}" for i in range(20)]
    plan = make_split(songs, seed=4)
    assert len(plan.songs("train")) == 16
    assert len(plan.songs("validation")) == 2
    assert len(plan.songs("test")) == 2
    assert set(plan.assignment) == set(songs)


def test_make_split_is_deterministic_and_seed_sensitive():
    songs = [f"s{i}" for i in range(30)]
    assert make_split(songs, seed=1).assignment == make_split(songs, seed=1).assignment
    assert make_split(songs, seed=1).assignment != make_split(songs, seed=2).assignment


def test_split_plan_rejects_unknown_part():
    with pytest.raises(DataError):
        SplitPlan({"a": "holdout"})


def fake_example(song, rows, rng):
    features = rng.normal(size=(rows, FEATURE_DIM))
    playable = rng.random(rows) < 0.3
    return SimpleNamespace(song=song, features=features, playable=playable)


def test_train_selector_groups_by_song():
    rng = np.random.default_rng(0)
    examples = [fake_example(f"s{i}", 40, rng) for i in range(4)]
    plan = SplitPlan({"s0": "train", "s1": "train", "s2": "validation", "s3": "test"})
    config = TrainConfig(max_epochs=2, seed=0)
    model, report = train_selector(examples, plan, config)
    assert model.mode == FULL_MODE
    assert len(report.rows) >= 1

    with pytest.raises(DataError, match="missing"):
        train_selector(examples + [fake_example("mystery", 5, rng)], plan, config)
    with pytest.raises(DataError, match="empty"):
        train_selector(examples[:2], SplitPlan({"s0": "train", "s1": "train"}), config)


def test_normalized_training_matches_manual_zscoring():
    """normalize must z-score against the training partition and then fold
    the affine map into layer 1, leaving a model that reads raw rows."""
    assert TrainConfig().normalize is False

    rng = np.random.default_rng(6)
    examples = []
    for s in range(6):
        features = rng.normal(size=(40, FEATURE_DIM))
        features[:, 0] = rng.uniform(0.0, 40.0, size=40)  # difficulty-scale column
        features[:, 28] = rng.integers(0, 16, size=40)  # alignment-scale column
        features[:, 40] = 3.25  # constant column: std 0 must not blow up
        playable = rng.integers(0, 2, size=40).astype(bool)
        examples.append(SimpleNamespace(song=f"s{s}", features=features, playable=playable))
    plan = SplitPlan({f"s{i}": ("validation" if i >= 4 else "train") for i in range(6)})
    config = TrainConfig(max_epochs=8, seed=0, normalize=True)
    model, report = train_selector(examples, plan, config)

    train_x = np.concatenate([e.features for e in examples[:4]])
    shift = train_x.mean(axis=0)
    scale = train_x.std(axis=0)
    scale[scale < 1e-9] = 1.0
    scored = [
        SimpleNamespace(song=e.song, features=(e.features - shift) / scale, playable=e.playable)
        for e in examples
    ]
    manual, manual_report = train_selector(
        scored, plan, TrainConfig(max_epochs=8, seed=0)
    )
    for ours, theirs in zip(report.rows, manual_report.rows):
        assert ours.val_loss == theirs.val_loss
        assert ours.val_f1 == theirs.val_f1

    raw_val = np.concatenate([e.features for e in examples[4:]])
    folded = model.forward(raw_val)
    unfolded = manual.forward((raw_val - shift) / scale)
    assert np.allclose(folded, unfolded, atol=1e-9)
    assert np.isfinite(model.weights[0]).all()


# -- prediction ---------------------------------------------------------------

def test_predict_ties_go_nonplayable():
    model = SelectorModel(FULL_MODE, seed=0)
    for w, b in zip(model.weights, model.biases):
        w[:] = 0.0
        b[:] = 0.0
    rows = np.random.default_rng(1).normal(size=(5, FEATURE_DIM))
    assert not predict_flags(model, rows).any()


def chart_for_prediction():
    table = {1: "kick01.wav", 2: "piano01.wav", 3: "hat01.wav"}
    objects = [
        TimedObject(0, Fraction(0), SampleRef(1, table[1]), Lane.K1, True),
        TimedObject(0, Fraction(1, 4), SampleRef(2, table[2]), Lane.BG, False),
        TimedObject(0, Fraction(1, 2), SampleRef(3, table[3]), Lane.K2, True),
        TimedObject(1, Fraction(0), SampleRef(2, table[2]), Lane.BG, False),
    ]
    return make_chart(objects, table, [BpmEvent(0, Fraction(0), 130.0)])


def labels_for(chart):
    from keysoundgen.audio import label_from_filename

    return [label_from_filename(o.sample.file_name, TAXONOMY) for o in chart.objects]


def test_predict_chart_streams_its_own_summary():
    chart = chart_for_prediction()
    grid = TimeGrid(chart)
    curve = chart_difficulty(chart)
    labels = labels_for(chart)
    model = SelectorModel(FULL_MODE, seed=12)
    flags = predict_chart(model, chart, grid, curve, labels, "self")
    assert flags.shape == (len(chart.objects),)

    # self-consistency: rebuilding features from the returned flags and
    # batch-predicting must reproduce those same flags
    rows = build_features(
        chart, grid, curve, labels, "self", lambda row, i: bool(flags[i])
    )
    assert np.array_equal(predict_flags(model, rows), flags)


def test_predict_chart_self_ignores_authored_flags():
    chart = chart_for_prediction()
    stripped_objects = [
        TimedObject(o.measure, o.position, o.sample, Lane.BG, False)
        for o in chart.objects
    ]
    stripped = make_chart(stripped_objects, chart.sample_table, chart.bpm_events)
    grid = TimeGrid(chart)
    curve = chart_difficulty(chart)
    labels = labels_for(chart)
    model = SelectorModel(FULL_MODE, seed=12)
    a = predict_chart(model, chart, grid, curve, labels, "self")
    b = predict_chart(model, stripped, TimeGrid(stripped), curve, labels, "self")
    assert np.array_equal(a, b)


def test_predict_chart_rejects_summary_mode_mismatch():
    chart = chart_for_prediction()
    grid = TimeGrid(chart)
    curve = chart_difficulty(chart)
    labels = labels_for(chart)
    bare = SelectorModel(NO_SUMMARY_MODE, seed=0)
    for source in ("truth", "self"):
        with pytest.raises(DataError, match="summary"):
            predict_chart(bare, chart, grid, curve, labels, source)
    flags = predict_chart(bare, chart, grid, curve, labels, "none")
    assert flags.shape == (4,)


# -- baselines ----------------------------------------------------------------

def test_baselines():
    a = baseline_random(1000, p=0.3, seed=7)
    b = baseline_random(1000, p=0.3, seed=7)
    assert np.array_equal(a, b)
    assert 0.2 < a.mean() < 0.4
    assert baseline_all_playable(5).all()


# -- model files --------------------------------------------------------------

def test_selector_file_roundtrip(tmp_path):
    model = SelectorModel(NO_SUMMARY_MODE, seed=77)
    path = tmp_path / "model.bin"
    save_selector(path, model)
    loaded = load_selector(path)
    assert loaded.mode == model.mode
    assert loaded.seed == model.seed
    for w, lw in zip(model.weights, loaded.weights):
        assert np.allclose(w, lw, atol=1e-6)
    # float32 rounding is idempotent: a second save is byte-identical
    again = tmp_path / "again.bin"
    save_selector(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_selector_file_rejects_corruption(tmp_path):
    model = SelectorModel(FULL_MODE, seed=0)
    path = tmp_path / "model.bin"
    save_selector(path, model)
    data = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(DataError, match="not a selector"):
        load_selector(bad_magic)

    short = tmp_path / "short.bin"
    short.write_bytes(data[:-10])
    with pytest.raises(DataError, match="truncated"):
        load_selector(short)

    long = tmp_path / "long.bin"
    long.write_bytes(data + b"\x00\x00\x00\x00")
    with pytest.raises(DataError, match="trailing"):
        load_selector(long)


def test_training_is_bit_deterministic(tmp_path):
    rng = np.random.default_rng(0)
    examples = [fake_example(f"s{i}", 30, rng) for i in range(3)]
    plan = SplitPlan({"s0": "train", "s1": "train", "s2": "validation"})
    config = TrainConfig(max_epochs=4, seed=21)
    paths = []
    for name in ("one.bin", "two.bin"):
        model, _ = train_selector(examples, plan, config)
        path = tmp_path / name
        save_selector(path, model)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_text_roundtrip():
    rng = np.random.default_rng(2)
    x, flags = toy_data(rng, 32)
    model = SelectorModel(BARE_MODE, seed=2)
    report = fit(model, x, flags, x, flags, TrainConfig(max_epochs=3, seed=2))
    fields = [line.split("\t") for line in report_to_text(report).splitlines()]
    recovered = [EpochRow(int(e), float(t), float(v), float(f)) for e, t, v, f in fields]
    assert recovered == report.rows
