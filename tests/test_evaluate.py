"""Evaluation metrics against a brute-force confusion oracle."""

import random
import re

import pytest

from keysoundgen.audio import load_taxonomy
from keysoundgen.corpus import CorpusConfig, build_corpus
from keysoundgen.dataset import featurize_corpus
from keysoundgen.errors import DataError
from keysoundgen.evaluate import (
    DEFAULT_VARIANTS,
    Variant,
    difficulty_f1_text,
    report_table,
    run_experiment,
    score_chart,
)
from keysoundgen.features import FULL_MODE
from keysoundgen.selector import TrainConfig, baseline_all_playable, make_split

from charts import ratio_chart

TAXONOMY = load_taxonomy()


def oracle_metrics(predicted, truth):
    tp = fp = fn = tn = 0
    for p, t in zip(predicted, truth):
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif not p and t:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1, tp, fp, fn, tn


def test_score_chart_matches_oracle_on_random_flags():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 60)
        predicted = [rng.random() < 0.4 for _ in range(n)]
        truth = [rng.random() < 0.3 for _ in range(n)]
        metrics = score_chart(predicted, truth)
        p, r, f1, tp, fp, fn, tn = oracle_metrics(predicted, truth)
        assert (metrics.precision, metrics.recall, metrics.f1) == (p, r, f1)
        assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (tp, fp, fn, tn)


def test_score_chart_conventions():
    perfect = score_chart([True, False], [True, False])
    assert (perfect.precision, perfect.recall, perfect.f1) == (1.0, 1.0, 1.0)
    # nothing predicted: precision 0 by convention, never NaN
    none = score_chart([False, False], [True, False])
    assert (none.precision, none.recall, none.f1) == (0.0, 0.0, 0.0)
    # nothing true: recall 0 by convention
    empty_truth = score_chart([True], [False])
    assert (empty_truth.recall, empty_truth.f1) == (0.0, 0.0)


def test_score_chart_rejects_length_mismatch():
    with pytest.raises(DataError):
        score_chart([True], [True, False])


def test_all_playable_on_exact_ratio_chart():
    chart = ratio_chart(total=200, playable_ratio=0.3)
    truth = [o.playable for o in chart.objects]
    metrics = score_chart(baseline_all_playable(len(truth)), truth)
    assert metrics.recall == 1.0
    assert abs(metrics.f1 - 2 * 0.3 / 1.3) <= 1e-9


# -- experiment wiring --------------------------------------------------------

def tiny_experiment():
    entries = build_corpus(CorpusConfig(songs=10, seed=2, min_measures=3, max_measures=5))
    examples = featurize_corpus(entries, TAXONOMY)
    split = make_split([e.song for e in examples], seed=0)
    config = TrainConfig(max_epochs=3, seed=0)
    return examples, split, config


def test_run_experiment_reports_every_variant():
    examples, split, config = tiny_experiment()
    report = run_experiment(examples, split, config)
    assert [row.name for row in report.rows] == [v.name for v in DEFAULT_VARIANTS]
    # ff_full and ff_self_summary share one trained model
    assert len(report.models) == 2
    for row in report.rows:
        assert 0.0 <= row.f1_mean <= 1.0
        if row.name == "all_playable":
            assert row.recall_mean == 1.0
            assert row.recall_std == 0.0


def test_run_experiment_difficulty_pairs_are_sorted():
    examples, split, config = tiny_experiment()
    report = run_experiment(examples, split, config)
    test_count = sum(1 for e in examples if split.assignment[e.song] == "test")
    for name, pairs in report.difficulty_f1.items():
        assert len(pairs) == test_count
        assert pairs == sorted(pairs)


def test_run_experiment_validates_songs_and_split():
    examples, split, config = tiny_experiment()
    broken = dict(split.assignment)
    for song in list(broken):
        if broken[song] == "test":
            broken[song] = "train"
    from keysoundgen.selector import SplitPlan

    with pytest.raises(DataError, match="test"):
        run_experiment(examples, SplitPlan(broken), config)

    del broken[examples[0].song]
    with pytest.raises(DataError, match="missing"):
        run_experiment(examples, SplitPlan(broken), config)


def test_report_table_format():
    examples, split, config = tiny_experiment()
    report = run_experiment(
        examples, split, config, variants=(Variant("all_playable", "all_playable"),)
    )
    table = report_table(report)
    line = table.splitlines()[0]
    assert re.fullmatch(
        r"all_playable\t\d\.\d{3}±\d\.\d{3}\t\d\.\d{3}±\d\.\d{3}\t\d\.\d{3}±\d\.\d{3}",
        line,
    )


def test_difficulty_f1_text_and_unknown_variant():
    examples, split, config = tiny_experiment()
    report = run_experiment(
        examples, split, config, variants=(Variant("all_playable", "all_playable"),)
    )
    text = difficulty_f1_text(report, "all_playable")
    for line in text.splitlines():
        difficulty, f1 = line.split("\t")
        assert float(f1) <= 1.0
        assert float(difficulty) >= 0.0
    with pytest.raises(DataError, match="variant"):
        difficulty_f1_text(report, "nope")


def test_self_summary_variant_runs_sequentially():
    examples, split, config = tiny_experiment()
    report = run_experiment(
        examples,
        split,
        config,
        variants=(
            Variant("ff_full", "model", FULL_MODE, "truth"),
            Variant("ff_self_summary", "model", FULL_MODE, "self"),
        ),
    )
    by_name = {row.name: row for row in report.rows}
    # both exist and scored; the self-summary run may differ from truth-fed
    assert set(by_name) == {"ff_full", "ff_self_summary"}
