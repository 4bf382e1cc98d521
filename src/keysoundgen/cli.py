"""Command line entry point.

Subcommands cover the whole pipeline: BMS parse/emit, sample
classification, difficulty curves, feature dumps, model training, chart
generation, evaluation, and synthetic corpus construction.

Exit codes: 0 success, 1 usage error, 2 bad input data, 3 an unsatisfiable
gameplay constraint (e.g. more than 8 simultaneous playables).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .audio import (
    fingerprint,
    format_manifest,
    label_from_filename,
    load_taxonomy,
    load_wave,
    parse_manifest,
)
from .bms import chart_from_json, chart_to_json, emit_bms_bytes, load_bms, save_bms
from .cnn import classify_sample, load_classifier, save_classifier, train_classifier
from .config import Config
from .corpus import build_corpus, write_corpus_samples
from .dataset import featurize_corpus, load_chart_dir, resolve_labels, scratch_sample_ids
from .difficulty import chart_difficulty, curve_from_text, curve_to_text, difficulty_curve
from .errors import ConstraintError, DataError
from .evaluate import (
    DEFAULT_VARIANTS,
    difficulty_f1_text,
    report_table,
    run_experiment,
)
from .features import (
    FULL_MODE,
    NO_DIFFICULTY_MODE,
    NO_SUMMARY_MODE,
    build_features,
    save_features,
)
from .placement import apply_selection
from .selector import (
    load_selector,
    make_split,
    predict_chart,
    report_to_text,
    save_selector,
    train_selector,
)
from .timing import TimeGrid


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        raise UsageError(message)


MODE_NAMES = {
    "full": FULL_MODE,
    "no-difficulty": NO_DIFFICULTY_MODE,
    "free": NO_SUMMARY_MODE,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="keysoundgen", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="global RNG seed")
    parser.add_argument("--config", metavar="FILE", default=None, help="key=value settings file")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("parse", help="BMS in, chart JSON out")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)

    p = commands.add_parser("emit", help="chart JSON in, BMS out")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)

    p = commands.add_parser("classify-samples", help="label a directory of WAV samples")
    p.add_argument("model")
    p.add_argument("directory")
    p.add_argument("-o", "--output", default=None, help="manifest file (default stdout)")
    p.add_argument("--taxonomy", default=None)

    p = commands.add_parser("difficulty", help="strain difficulty curve for a chart")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None, help="curve file (window<TAB>value)")

    p = commands.add_parser("features", help="dump per-object feature vectors")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--summary-mode", choices=["truth", "none"], default="truth")
    p.add_argument("--taxonomy", default=None)

    p = commands.add_parser("train-classifier", help="train the instrument classifier")
    p.add_argument("directory", help="directory of labeled WAV samples")
    p.add_argument("-o", "--output", required=True, help="model file")
    p.add_argument("--labels", default=None, help="manifest overriding filename labels")
    p.add_argument("--taxonomy", default=None)

    p = commands.add_parser("train-selector", help="train the playability selector")
    p.add_argument("directory", help="directory of .bms charts")
    p.add_argument("-o", "--output", required=True, help="model file")
    p.add_argument("--report", default=None, help="write per-epoch training report")
    p.add_argument("--mode", choices=sorted(MODE_NAMES), default="full")
    p.add_argument("--taxonomy", default=None)

    p = commands.add_parser("generate", help="select and place playables for a chart")
    p.add_argument("input", help="source BMS (score or full chart)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--model", required=True, help="trained selector model")
    p.add_argument("--difficulty-curve", default=None, help="user-supplied curve file")
    p.add_argument("--summary-mode", choices=["truth", "self", "none"], default="self")
    p.add_argument("--labels", default=None, help="manifest of sample categories")
    p.add_argument("--taxonomy", default=None)

    p = commands.add_parser("evaluate", help="compare selector variants on a corpus")
    p.add_argument("directory", help="directory of .bms charts")
    p.add_argument("--table", default=None, help="write the comparison table here")
    p.add_argument("--difficulty-f1", default=None, help="write difficulty-vs-F1 pairs here")
    names = [variant.name for variant in DEFAULT_VARIANTS]
    p.add_argument("--variant", choices=names, default="ff_full", help="difficulty file's variant")
    p.add_argument("--taxonomy", default=None)

    p = commands.add_parser("synth-corpus", help="write a synthetic chart corpus")
    p.add_argument("directory")
    p.add_argument("--songs", type=int, default=None)
    p.add_argument("--samples", action="store_true", help="also synthesize sample WAVs")

    return parser


def _write_or_print(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _wav_files(directory: str) -> list[Path]:
    paths = sorted(p for p in Path(directory).iterdir() if p.suffix.lower() == ".wav")
    if not paths:
        raise DataError(f"{directory}: no .wav files found")
    return paths


def _cmd_parse(args, config: Config) -> int:
    _write_or_print(chart_to_json(load_bms(args.input)) + "\n", args.output)
    return 0


def _cmd_emit(args, config: Config) -> int:
    chart = chart_from_json(Path(args.input).read_text("utf-8"))
    data = emit_bms_bytes(chart)
    if args.output is None:
        sys.stdout.buffer.write(data)
    else:
        Path(args.output).write_bytes(data)
    return 0


def _cmd_classify_samples(args, config: Config) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    model = load_classifier(args.model)
    rows = []
    for path in _wav_files(args.directory):
        spec = fingerprint(load_wave(path))
        index = classify_sample(model, spec)
        rows.append((path.name, taxonomy.label_at(index).name))
    _write_or_print(format_manifest(rows), args.output)
    return 0


def _cmd_difficulty(args, config: Config) -> int:
    chart = load_bms(args.input)
    curve = chart_difficulty(chart, config.strain())
    if args.output is not None:
        Path(args.output).write_text(curve_to_text(curve), encoding="utf-8")
    sys.stdout.write(f"windows {len(curve.values)}\noverall {curve.overall!r}\n")
    return 0


def _cmd_features(args, config: Config) -> int:
    chart = load_bms(args.input)
    taxonomy = load_taxonomy(args.taxonomy)
    grid = TimeGrid(chart)
    curve = difficulty_curve(chart, grid, None, config.strain())
    labels = resolve_labels(chart, taxonomy)
    rows = build_features(chart, grid, curve, labels, args.summary_mode)
    save_features(args.output, rows)
    sys.stdout.write(f"wrote {rows.shape[0]} x {rows.shape[1]} features to {args.output}\n")
    return 0


def _cmd_train_classifier(args, config: Config) -> int:
    classifier_config = config.classifier()
    taxonomy = load_taxonomy(args.taxonomy)
    manifest = None
    if args.labels is not None:
        manifest = dict(parse_manifest(Path(args.labels).read_text("utf-8")))

    corpus = []
    skipped = 0
    for path in _wav_files(args.directory):
        if manifest is not None:
            category = manifest.get(path.name)
            label = taxonomy.label(category) if category else None
        else:
            label = label_from_filename(path.name, taxonomy)
        if label is None:
            skipped += 1
            continue
        corpus.append((fingerprint(load_wave(path)), label))
    if skipped:
        sys.stderr.write(f"skipped {skipped} samples with no usable label\n")

    model, report = train_classifier(corpus, classifier_config)
    save_classifier(args.output, model)
    sys.stdout.write(
        f"trained on {len(corpus) - report.holdout_size} samples, "
        f"holdout accuracy {report.holdout_accuracy:.3f}\n"
    )
    return 0


def _load_examples(directory: str, taxonomy_path, strain_config):
    taxonomy = load_taxonomy(taxonomy_path)
    entries = load_chart_dir(directory)
    return featurize_corpus(entries, taxonomy, None, strain_config)


def _cmd_train_selector(args, config: Config) -> int:
    train_config = config.selector()
    examples = _load_examples(args.directory, args.taxonomy, config.strain())
    split = make_split([e.song for e in examples], train_config.seed)
    model, report = train_selector(examples, split, train_config, MODE_NAMES[args.mode])
    save_selector(args.output, model)
    if args.report is not None:
        Path(args.report).write_text(report_to_text(report), encoding="utf-8")
    last = report.rows[-1]
    sys.stdout.write(
        f"trained {len(report.rows)} epochs, "
        f"validation loss {last.val_loss:.5f}, validation F1 {last.val_f1:.3f}\n"
    )
    return 0


def _cmd_generate(args, config: Config) -> int:
    chart = load_bms(args.input)
    taxonomy = load_taxonomy(args.taxonomy)
    model = load_selector(args.model)
    strain_config = config.strain()
    grid = TimeGrid(chart)

    if args.difficulty_curve is not None:
        curve = curve_from_text(Path(args.difficulty_curve).read_text("utf-8"), strain_config)
    else:
        curve = difficulty_curve(chart, grid, None, strain_config)

    manifest = None
    if args.labels is not None:
        manifest = dict(parse_manifest(Path(args.labels).read_text("utf-8")))
    labels = resolve_labels(chart, taxonomy, manifest)

    flags = predict_chart(model, chart, grid, curve, labels, args.summary_mode)
    scratch = set()
    if config.flag("placement.scratch_to_turntable", True):
        scratch = scratch_sample_ids(chart, labels)
    generated = apply_selection(chart, flags, scratch, strain_config)
    save_bms(args.output, generated)
    sys.stdout.write(
        f"selected {int(np.sum(flags))} of {len(chart.objects)} objects as playable\n"
    )
    return 0


def _cmd_evaluate(args, config: Config) -> int:
    train_config = config.selector()
    examples = _load_examples(args.directory, args.taxonomy, config.strain())
    split = make_split([e.song for e in examples], train_config.seed)
    report = run_experiment(examples, split, train_config, DEFAULT_VARIANTS)
    table = report_table(report)
    sys.stdout.write(table)
    if args.table is not None:
        Path(args.table).write_text(table, encoding="utf-8")
    if args.difficulty_f1 is not None:
        Path(args.difficulty_f1).write_text(
            difficulty_f1_text(report, args.variant), encoding="utf-8"
        )
    return 0


def _cmd_synth_corpus(args, config: Config) -> int:
    corpus_config = config.corpus()
    if args.songs is not None:
        corpus_config = replace(corpus_config, songs=args.songs)
    entries = build_corpus(corpus_config)

    directory = Path(args.directory)
    directory.mkdir(parents=True, exist_ok=True)
    counters: dict[str, int] = {}
    for entry in entries:
        index = counters.get(entry.song, 0)
        counters[entry.song] = index + 1
        save_bms(directory / f"{entry.song}{chr(ord('a') + index)}.bms", entry.chart)
    message = f"wrote {len(entries)} charts for {len(counters)} songs"
    if args.samples:
        written = write_corpus_samples(directory, entries)
        message += f" and {written} sample files"
    sys.stdout.write(message + f" to {directory}\n")
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "emit": _cmd_emit,
    "classify-samples": _cmd_classify_samples,
    "difficulty": _cmd_difficulty,
    "features": _cmd_features,
    "train-classifier": _cmd_train_classifier,
    "train-selector": _cmd_train_selector,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "synth-corpus": _cmd_synth_corpus,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = Config() if args.config is None else Config.from_file(args.config)
        if args.seed is not None:  # the flag wins over the file's seed keys
            for section in ("corpus", "selector", "classifier"):
                config.values[f"{section}.seed"] = str(args.seed)
        return _COMMANDS[args.command](args, config)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except ConstraintError as exc:
        sys.stderr.write(f"constraint violation: {exc}\n")
        return 3
    except (DataError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)


def entrypoint() -> None:
    sys.exit(main())
