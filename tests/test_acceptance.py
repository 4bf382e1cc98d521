"""Acceptance gate: nine end-to-end checks, one verdict line each.

Every test re-derives its expectation from a literal oracle written
here (unrolled sums, counting loops, finite differences) rather than
importing helpers from the unit-test modules, so this file alone
certifies the pipeline.  Each check records a [PASS]/[FAIL] line with
its timing; conftest replays the lines after the run summary.
"""

import random
import time
from fractions import Fraction
from typing import NamedTuple

import numpy as np

import conftest
from charts import random_score, ratio_chart

from keysoundgen.audio import load_taxonomy
from keysoundgen.bms import (
    BpmEvent,
    Lane,
    SampleRef,
    TimedObject,
    emit_bms_bytes,
    make_chart,
    parse_bms_bytes,
)
from keysoundgen.cli import main
from keysoundgen.cnn import ClassifierConfig, ConvClassifier, train_classifier
from keysoundgen.corpus import (
    CorpusConfig,
    build_corpus,
    random_chart,
    tone_corpus,
)
from keysoundgen.dataset import featurize_corpus, resolve_labels
from keysoundgen.difficulty import (
    StrainConfig,
    compute_strain,
    difficulty_curve,
    overall_difficulty,
)
from keysoundgen.errors import ConstraintError
from keysoundgen.evaluate import DEFAULT_VARIANTS, run_experiment, score_chart
from keysoundgen.features import (
    SUMMARY_WINDOWS,
    FeatureMode,
    SummaryCounts,
    build_features,
)
from keysoundgen.placement import apply_selection
from keysoundgen.selector import (
    SelectorModel,
    TrainConfig,
    _loss_and_gradients,
    baseline_all_playable,
    make_split,
    weighted_mse,
)
from keysoundgen.timing import TimeGrid

TAXONOMY = load_taxonomy()


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {number}. {name}: {detail}"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    assert ok, f"{number}. {name}: {detail}"


# -- 1: parse/emit identity ----------------------------------------------------

def test_1_chart_round_trip():
    rng = random.Random(2026)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        chart = random_chart(rng)
        if parse_bms_bytes(emit_bms_bytes(chart)) != chart:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    verdict(
        1, "chart round-trip",
        ok, f"1000 charts, {mismatches} mismatches, {elapsed:.1f}s (budget 10s)",
    )


# -- 2: feature vector contract -------------------------------------------------

class HistoryEvent(NamedTuple):
    beat: float
    instrument: int
    playable: bool


def counting_oracle(history, now):
    """Literal tally of playable shares per (window, instrument)."""
    vector = []
    for window in SUMMARY_WINDOWS:
        for class_index in range(27):
            playable = 0
            total = 0
            for event in history:
                if now - window <= event.beat < now and event.instrument == class_index:
                    total += 1
                    if event.playable:
                        playable += 1
            if total == 0:
                vector.extend([0.0, 0.0])
            else:
                vector.extend([playable / total, (total - playable) / total])
    return vector


def test_2_feature_contract():
    rng = random.Random(31)
    start = time.perf_counter()

    bad_width = 0
    bad_pairs = 0
    for _ in range(25):
        chart = random_chart(rng)
        grid = TimeGrid(chart)
        curve = difficulty_curve(chart, grid)
        rows = build_features(chart, grid, curve, resolve_labels(chart, TAXONOMY))
        if rows.shape != (len(chart.objects), 299):
            bad_width += 1
        sums = rows[:, 29:].reshape(len(chart.objects), -1, 2).sum(axis=2)
        near_zero = np.abs(sums) <= 1e-9
        near_one = np.abs(sums - 1.0) <= 1e-9
        bad_pairs += int(np.sum(~(near_zero | near_one)))

    probe_misses = 0
    for _ in range(100):
        events = sorted(rng.uniform(0.0, 40.0) for _ in range(rng.randrange(0, 120)))
        history = [
            HistoryEvent(beat, rng.randrange(27), rng.random() < 0.4) for beat in events
        ]
        now = rng.uniform(0.0, 48.0)
        counts = SummaryCounts(events, [event.instrument for event in history])
        counts.record(0, [event.playable for event in history])
        if counts.vectors_at(now)[0].tolist() != counting_oracle(history, now):
            probe_misses += 1

    elapsed = time.perf_counter() - start
    ok = bad_width == 0 and bad_pairs == 0 and probe_misses == 0 and elapsed < 5.0
    verdict(
        2, "feature contract",
        ok,
        f"widths 299, {bad_pairs} broken p+q pairs, "
        f"{probe_misses}/100 oracle misses, {elapsed:.1f}s (budget 5s)",
    )


# -- 3: gradient checks ----------------------------------------------------------

def relative_gap(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def test_3_gradient_checks():
    start = time.perf_counter()
    h = 1e-5

    # selector: small input mode, full 64-32-16-2 stack behind it
    mode = FeatureMode(use_difficulty=False, use_summary=False)
    config = TrainConfig(seed=5)
    model = SelectorModel(mode, seed=5)
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3, mode.width))
    flags = np.array([True, False, True])
    _, grad_w, grad_b = _loss_and_gradients(model, x, flags, config)
    worst_selector = 0.0
    for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
        for layer, grad in zip(params, grads):
            flat = layer.reshape(-1)
            grad_flat = grad.reshape(-1)
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + h
                up = weighted_mse(model.forward(x), flags, config)
                flat[j] = keep - h
                down = weighted_mse(model.forward(x), flags, config)
                flat[j] = keep
                worst_selector = max(
                    worst_selector, relative_gap(grad_flat[j], (up - down) / (2 * h))
                )

    # classifier: smallest poolable instance, every parameter probed
    tiny = ClassifierConfig(
        input_shape=(10, 10), conv1_filters=2, conv2_filters=2,
        kernel=3, classes=3, dropout=0.0, seed=0,
    )
    net = ConvClassifier(tiny)
    images = rng.normal(size=(4, 10, 10))
    targets = np.array([0, 1, 2, 1])
    _, grads = net.loss_and_gradients(images, targets, train=True)
    worst_classifier = 0.0
    for name, param in net.parameters().items():
        flat = param.reshape(-1)
        grad_flat = grads[name].reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up, _ = net.loss_and_gradients(images, targets, train=True)
            flat[j] = keep - h
            down, _ = net.loss_and_gradients(images, targets, train=True)
            flat[j] = keep
            worst_classifier = max(
                worst_classifier, relative_gap(grad_flat[j], (up - down) / (2 * h))
            )

    elapsed = time.perf_counter() - start
    ok = worst_selector < 1e-4 and worst_classifier < 1e-4 and elapsed < 30.0
    verdict(
        3, "gradient checks",
        ok,
        f"selector worst rel err {worst_selector:.2e}, classifier {worst_classifier:.2e} "
        f"(limit 1e-4), {elapsed:.1f}s (budget 30s)",
    )


# -- 4: strain oracle -------------------------------------------------------------

def strain_oracle(chart, config):
    """O(n^2) unrolled decay sums; no incremental state."""
    grid = TimeGrid(chart)
    contributing = [i for i, o in enumerate(chart.objects) if o.playable]
    if contributing:
        control = lambda o: o.lane
    else:
        contributing = list(range(len(chart.objects)))
        control = lambda o: o.sample.id

    groups = []
    for i in contributing:
        key = (chart.objects[i].measure, chart.objects[i].position)
        if groups and groups[-1][0] == key:
            groups[-1][1].append(i)
        else:
            groups.append((key, [i]))

    results = [None] * len(chart.objects)
    control_times = {}
    group_history = []
    for _, members in groups:
        t = grid.object_seconds[members[0]]
        group_history.append((t, len(members)))
        overall = sum(
            config.base_overall * k * config.decay_overall ** (t - s)
            for s, k in group_history
        )
        for i in members:
            c = control(chart.objects[i])
            control_times.setdefault(c, []).append(t)
            individual = sum(
                config.base_individual * config.decay_individual ** (t - s)
                for s in control_times[c]
            )
            results[i] = (individual, overall)
    return results


def test_4_strain_oracle():
    config = StrainConfig()
    rng = random.Random(7)
    start = time.perf_counter()

    worst = 0.0
    checked = 0
    charts = [random_chart(rng) for _ in range(40)]
    charts += [chart for chart, _ in (random_score(rng) for _ in range(10))]
    for chart in charts:
        if len(chart.objects) > 200:
            continue
        checked += 1
        got = compute_strain(chart, TimeGrid(chart), config)
        expected = strain_oracle(chart, config)
        for ours, theirs in zip(got, expected):
            if theirs is None:
                assert ours is None
            else:
                worst = max(
                    worst,
                    abs(ours.individual - theirs[0]),
                    abs(ours.overall - theirs[1]),
                )

    anchor = overall_difficulty((10.0, 5.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and anchor == 14.5 and elapsed < 5.0
    verdict(
        4, "strain oracle",
        ok,
        f"{checked} charts, worst gap {worst:.1e} (limit 1e-9), "
        f"top-weighted sum of (10,5) = {anchor}, {elapsed:.1f}s (budget 5s)",
    )


# -- 5: selector learning ----------------------------------------------------------

def test_5_selector_learning():
    start = time.perf_counter()
    entries = build_corpus(CorpusConfig())
    songs = {entry.song for entry in entries}
    examples = featurize_corpus(entries, TAXONOMY)
    split = make_split([e.song for e in examples], seed=0)
    variants = (DEFAULT_VARIANTS[0], DEFAULT_VARIANTS[2])  # with and without summaries
    report = run_experiment(examples, split, TrainConfig(seed=0), variants)
    rows = {row.name: row for row in report.rows}
    full_f1 = rows["ff_full"].f1_mean
    free_f1 = rows["ff_free"].f1_mean

    # a second corpus seed, one on which the raw difficulty and alignment
    # columns stall training unless they are z-scored
    examples = featurize_corpus(build_corpus(CorpusConfig(songs=30, seed=1)), TAXONOMY)
    split = make_split([e.song for e in examples], seed=0)
    other_f1 = run_experiment(examples, split, TrainConfig(seed=0), variants[:1]).rows[0].f1_mean

    elapsed = time.perf_counter() - start
    ok = (
        len(songs) >= 50
        and full_f1 >= 0.95
        and free_f1 < full_f1
        and other_f1 >= 0.95
        and elapsed < 600.0
    )
    verdict(
        5, "selector learning",
        ok,
        f"{len(songs)} songs, full-feature test F1 {full_f1:.3f} (needs >= 0.95), "
        f"no-summary F1 {free_f1:.3f} (needs lower), corpus seed 1 full-feature "
        f"F1 {other_f1:.3f} (needs >= 0.95), {elapsed:.0f}s (budget 600s)",
    )


# -- 6: all-playable baseline exactness ---------------------------------------------

def test_6_all_playable_baseline():
    recalls = []
    for entry in build_corpus(CorpusConfig(songs=12, seed=3)):
        truth = [o.playable for o in entry.chart.objects]
        flags = baseline_all_playable(len(truth))
        recalls.append(score_chart(flags, truth).recall)
    recall_exact = all(r == 1.0 for r in recalls)
    recall_std = float(np.std(recalls))

    target = 2 * 0.3 / 1.3
    worst = 0.0
    for total in (100, 200, 500):
        chart = ratio_chart(total, 0.3)
        truth = [o.playable for o in chart.objects]
        metrics = score_chart(baseline_all_playable(total), truth)
        worst = max(worst, abs(metrics.f1 - target))

    ok = recall_exact and recall_std == 0.0 and worst <= 1e-9
    verdict(
        6, "all-playable baseline",
        ok,
        f"recall 1.000 std {recall_std:.3f} over {len(recalls)} charts, "
        f"30%-corpus F1 within {worst:.1e} of 2*0.3/1.3",
    )


# -- 7: placement safety --------------------------------------------------------------

def test_7_placement_safety():
    rng = random.Random(11)
    start = time.perf_counter()

    bad = 0
    for _ in range(1000):
        chart, flags = random_score(rng)
        placed = apply_selection(chart, flags)
        before = sorted((o.measure, o.position, o.sample.id) for o in chart.objects)
        after = sorted((o.measure, o.position, o.sample.id) for o in placed.objects)
        conserved = before == after
        count_kept = sum(o.playable for o in placed.objects) == sum(flags)
        seen = set()
        collided = False
        for obj in placed.objects:
            if obj.playable:
                key = (obj.measure, obj.position, obj.lane)
                collided = collided or key in seen
                seen.add(key)
        if not (conserved and count_kept and not collided):
            bad += 1

    table = {sid: f"s{sid:02d}.wav" for sid in range(1, 10)}
    crowded = make_chart(
        [
            TimedObject(0, Fraction(0), SampleRef(sid), Lane.BG)
            for sid in range(1, 10)
        ],
        table,
        [BpmEvent(0, Fraction(0), 150.0)],
    )
    try:
        apply_selection(crowded, [True] * 9)
        overflow_raised = False
    except ConstraintError:
        overflow_raised = True

    elapsed = time.perf_counter() - start
    ok = bad == 0 and overflow_raised and elapsed < 10.0
    verdict(
        7, "placement safety",
        ok,
        f"1000 charts, {bad} violations, 9-way overload "
        f"{'raised' if overflow_raised else 'missed'} the constraint error, "
        f"{elapsed:.1f}s (budget 10s)",
    )


# -- 8: classifier learning -------------------------------------------------------------

def test_8_classifier_learning():
    start = time.perf_counter()
    corpus = tone_corpus(per_class=100, seed=0)
    probe = tone_corpus(per_class=20, seed=1)

    centroids = {}
    for spec, label in corpus:
        centroids.setdefault(label.index, []).append(spec.values.reshape(-1))
    for index in centroids:
        centroids[index] = np.mean(centroids[index], axis=0)
    hits = 0
    for spec, label in probe:
        flat = spec.values.reshape(-1)
        nearest = min(centroids, key=lambda i: np.sum((flat - centroids[i]) ** 2))
        hits += nearest == label.index
    centroid_accuracy = hits / len(probe)

    model, report = train_classifier(corpus, ClassifierConfig(seed=0))
    inputs = np.stack([spec.values for spec, _ in probe])
    deterministic = np.array_equal(model.predict(inputs), model.predict(inputs))

    elapsed = time.perf_counter() - start
    ok = (
        centroid_accuracy >= 0.95
        and report.holdout_accuracy >= 0.95
        and deterministic
        and elapsed < 300.0
    )
    verdict(
        8, "classifier learning",
        ok,
        f"centroid floor {centroid_accuracy:.3f}, held-out accuracy "
        f"{report.holdout_accuracy:.3f} (needs >= 0.95), inference "
        f"{'deterministic' if deterministic else 'UNSTABLE'}, "
        f"{elapsed:.0f}s (budget 300s)",
    )


# -- 9: end-to-end determinism --------------------------------------------------------------

def test_9_generation_determinism(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert main(["--seed", "1", "synth-corpus", str(corpus_dir), "--songs", "10"]) == 0
    config = tmp_path / "fast.cfg"
    config.write_text("selector.max_epochs = 3\n", encoding="utf-8")
    model_path = tmp_path / "selector.bin"
    code = main(
        ["--config", str(config), "--seed", "0",
         "train-selector", str(corpus_dir), "-o", str(model_path)]
    )
    assert code == 0

    source = sorted(corpus_dir.glob("*.bms"))[0]
    out_a, out_b = tmp_path / "a.bms", tmp_path / "b.bms"
    for out in (out_a, out_b):
        code = main(
            ["--seed", "0", "generate", str(source), "-o", str(out),
             "--model", str(model_path)]
        )
        assert code == 0
    first, second = out_a.read_bytes(), out_b.read_bytes()
    identical = first == second
    parse_bms_bytes(first)  # and the output is well-formed

    ok = identical and len(first) > 0
    verdict(
        9, "generation determinism",
        ok,
        f"two runs, {len(first)} bytes each, "
        f"{'byte-identical' if identical else 'DIVERGED'}",
    )
