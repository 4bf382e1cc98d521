"""Selection quality evaluation: per-chart metrics and model comparisons.

Playable is the positive class.  Metrics are computed per chart and then
averaged, with the standard deviation taken across charts.  A chart that
predicts no playables at all gets precision 0 by convention (never NaN),
and recall 0 likewise when it has no true playables.

run_experiment trains the requested selector variants on the train
split, scores every variant and baseline on the test split, and collects
a difficulty-vs-F1 pair per test chart so accuracy can be plotted
against chart difficulty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import ChartExample
from .errors import DataError
from .features import FULL_MODE, NO_SUMMARY_MODE, FeatureMode
from .selector import (
    SelectorModel,
    SplitPlan,
    TrainConfig,
    TrainingReport,
    baseline_all_playable,
    baseline_random,
    predict_chart,
    predict_flags,
    score_chart,
    train_selector,
)
from .timing import TimeGrid


@dataclass(frozen=True)
class Variant:
    """One row of the comparison: a trained model or a fixed baseline."""

    name: str
    kind: str  # "model" | "random" | "all_playable"
    mode: FeatureMode | None = None
    summary_source: str = "truth"
    p: float = 0.3


DEFAULT_VARIANTS = (
    Variant("ff_full", "model", FULL_MODE, "truth"),
    Variant("ff_self_summary", "model", FULL_MODE, "self"),
    Variant("ff_free", "model", NO_SUMMARY_MODE, "none"),
    Variant("random_0.3", "random", p=0.3),
    Variant("all_playable", "all_playable"),
)


@dataclass
class ModelRow:
    name: str
    f1_mean: float
    f1_std: float
    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float


@dataclass
class ExperimentReport:
    rows: list[ModelRow] = field(default_factory=list)
    difficulty_f1: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    models: dict[FeatureMode, SelectorModel] = field(default_factory=dict)
    training: dict[FeatureMode, TrainingReport] = field(default_factory=dict)


def _variant_flags(
    variant: Variant,
    example: ChartExample,
    models: dict[FeatureMode, SelectorModel],
    seed: int,
    chart_index: int,
) -> np.ndarray:
    n = len(example.chart.objects)
    if variant.kind == "all_playable":
        return baseline_all_playable(n)
    if variant.kind == "random":
        return baseline_random(n, variant.p, seed + chart_index)
    model = models[variant.mode]
    if variant.summary_source == "self":
        grid = TimeGrid(example.chart)
        return predict_chart(
            model, example.chart, grid, example.curve, example.labels, "self"
        )
    return predict_flags(model, example.features)


def run_experiment(
    examples: list[ChartExample],
    split: SplitPlan,
    config: TrainConfig = TrainConfig(),
    variants=DEFAULT_VARIANTS,
) -> ExperimentReport:
    """Train each distinct feature mode once, then score the test split."""
    test = split.partition(examples)["test"]
    if not test:
        raise DataError("split leaves an empty test partition")

    report = ExperimentReport()
    for variant in variants:
        if variant.kind == "model" and variant.mode not in report.models:
            model, training = train_selector(examples, split, config, variant.mode)
            report.models[variant.mode] = model
            report.training[variant.mode] = training

    for variant in variants:
        f1s, precisions, recalls, pairs = [], [], [], []
        for i, example in enumerate(test):
            flags = _variant_flags(variant, example, report.models, config.seed, i)
            metrics = score_chart(flags, example.playable)
            f1s.append(metrics.f1)
            precisions.append(metrics.precision)
            recalls.append(metrics.recall)
            pairs.append((example.difficulty, metrics.f1))
        report.rows.append(
            ModelRow(
                variant.name,
                float(np.mean(f1s)),
                float(np.std(f1s)),
                float(np.mean(precisions)),
                float(np.std(precisions)),
                float(np.mean(recalls)),
                float(np.std(recalls)),
            )
        )
        report.difficulty_f1[variant.name] = sorted(pairs)
    return report


def report_table(report: ExperimentReport) -> str:
    """Tab-separated comparison rows: model, then f1/precision/recall as mean±std."""
    lines = []
    for row in report.rows:
        lines.append(
            f"{row.name}"
            f"\t{row.f1_mean:.3f}±{row.f1_std:.3f}"
            f"\t{row.precision_mean:.3f}±{row.precision_std:.3f}"
            f"\t{row.recall_mean:.3f}±{row.recall_std:.3f}"
        )
    return "\n".join(lines) + "\n"


def difficulty_f1_text(report: ExperimentReport, variant_name: str) -> str:
    """Two tab-separated columns, sorted by chart difficulty."""
    if variant_name not in report.difficulty_f1:
        raise DataError(f"no difficulty data for variant {variant_name!r}")
    pairs = report.difficulty_f1[variant_name]
    return "".join(f"{difficulty!r}\t{f1!r}\n" for difficulty, f1 in pairs)
