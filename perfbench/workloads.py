"""The four benchmark workloads: ingest, train, generate and audio.

Each workload makes its inputs in set-up from one seed with
keysoundgen.corpus, as BMS bytes, WAV files and model files, so the code
under test only ever sees generated files.  A pass then takes every input
through the workload's pipeline, one request at a time (closed loop, one
caller), checks the outputs, and hashes them.  Only public keysoundgen
functions are called; each call sits inside a tracer span named after its
layer (see README.md for the list).

A check that fails, or a call that raises, counts one failed attempt and
the pass goes on.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from keysoundgen.audio import fingerprint, label_from_filename, load_taxonomy, load_wave, write_wave
from keysoundgen.bms import emit_bms_bytes, parse_bms_bytes
from keysoundgen.cnn import ClassifierConfig, classify_sample, load_classifier, save_classifier, train_classifier
from keysoundgen.corpus import (
    TONE_CATEGORIES,
    TONE_KINDS,
    CorpusConfig,
    CorpusEntry,
    build_corpus,
    make_tone,
    random_chart,
)
from keysoundgen.dataset import featurize_corpus, resolve_labels, scratch_sample_ids
from keysoundgen.difficulty import compute_strain, difficulty_curve
from keysoundgen.evaluate import score_chart
from keysoundgen.features import FEATURE_DIM, build_features
from keysoundgen.placement import apply_selection
from keysoundgen.selector import (
    SelectorModel,
    TrainConfig,
    load_selector,
    make_split,
    predict_chart,
    predict_flags,
    save_selector,
    train_selector,
)
from keysoundgen.timing import TimeGrid

from tracer import ForwardProbe

# Decay ranges of keysoundgen.corpus.tone_corpus, so the WAV set written
# here draws the same tones as tone_corpus(per_class, seed).
TONE_DECAYS = {"sine": (1.5, 2.5), "square": (6.0, 8.0), "noise": (11.0, 14.0)}

# The workload seed only drives the generated inputs.  The programs run
# with the seed the CLI uses when --seed is not given, as a user runs them.
PROGRAM_SEED = 0

MAX_SIMULTANEOUS = 8
TEST_F1_FLOOR = 0.95  # acceptance check 5
HOLDOUT_FLOOR = 0.95  # acceptance check 8


@dataclass(frozen=True)
class Sizes:
    ingest_songs: int = 160
    fuzz_charts: int = 40
    # training corpora are cut at a song boundary once they hold this many
    # objects, so an epoch does the same work whatever the seed
    train_objects: int = 40_000
    unseen_songs: int = 160
    tones_per_class: int = 100
    # A fixed epoch budget: early stopping ends anywhere from 40 to 93
    # epochs depending on the corpus seed, which would make the run length
    # a property of the seed rather than of the code.
    selector_epochs: int = 30
    classifier_epochs: int = 30
    warmup_items: int = 6
    warmup_songs: int = 12


FULL = Sizes()
TINY = Sizes(
    ingest_songs=3,
    fuzz_charts=3,
    train_objects=4_000,
    unseen_songs=3,
    tones_per_class=10,
    selector_epochs=2,
    classifier_epochs=1,
    warmup_items=2,
    warmup_songs=10,
)


@dataclass
class PassResult:
    """What one pass did: timed work, per-request latencies, checks, digest."""

    busy_s: float = 0.0
    items: int = 0  # objects (charts) or samples (audio) behind items_per_s
    # request id -> seconds; every pass makes the same requests
    latencies: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    quality: float = 0.0
    digest: str = ""
    counters: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")

    def crash(self, request) -> None:
        """Count the request that raised; keep its traceback for the report."""
        self.attempted += 1
        self.failed += 1
        message = traceback.format_exc(limit=4)
        self.errors.append(f"{request}: {message}")
        sys.stderr.write(f"perfbench: {request} raised\n{message}")


def sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class Workload:
    name = ""
    request = ""  # what one latency sample is

    def __init__(self, seed: int, workdir: Path, sizes: Sizes = FULL):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        workdir.mkdir(parents=True, exist_ok=True)
        self.taxonomy = load_taxonomy()
        self.setup_outputs = ""

    def setup(self, tracer) -> str:
        """Make the inputs; returns their digest."""
        raise NotImplementedError

    def run_pass(self, tracer, warmup: bool = False) -> PassResult:
        raise NotImplementedError

    def cli_args(self) -> list[str]:
        """The one-request CLI command whose cold start this workload reports."""
        raise NotImplementedError

    def _write_cli_chart(self, data: bytes) -> Path:
        path = self.workdir / "chart.bms"
        path.write_bytes(data)
        return path


class Ingest(Workload):
    """Parse, grid, strain, curve, labels, truth features and emit per chart."""

    name = "ingest"
    request = "chart"

    def setup(self, tracer) -> str:
        with tracer.span("corpus.build", "setup") as span:
            entries = build_corpus(CorpusConfig(songs=self.sizes.ingest_songs, seed=self.seed))
            rng = random.Random(self.seed)
            fuzz = [random_chart(rng) for _ in range(self.sizes.fuzz_charts)]
            span.items = len(entries) + len(fuzz)
        self.inputs = [emit_bms_bytes(e.chart) for e in entries] + [
            emit_bms_bytes(c) for c in fuzz
        ]
        self.cli_chart = self._write_cli_chart(self.inputs[0])
        return sha256(self.inputs)

    def run_pass(self, tracer, warmup=False) -> PassResult:
        result = PassResult()
        outputs = []
        roundtrips = 0
        inputs = self.inputs[: self.sizes.warmup_items] if warmup else self.inputs
        for i, data in enumerate(inputs):
            try:
                start = time.perf_counter()
                with tracer.span("ingest.chart", i):
                    with tracer.span("bms.parse", i) as span:
                        chart = parse_bms_bytes(data)
                        n = span.items = len(chart.objects)
                    with tracer.span("timing.grid", i, n):
                        grid = TimeGrid(chart)
                    with tracer.span("difficulty.strain", i, n):
                        strains = compute_strain(chart, grid)
                    with tracer.span("difficulty.curve", i, n):
                        curve = difficulty_curve(chart, grid, strains)
                    with tracer.span("dataset.labels", i, n):
                        labels = resolve_labels(chart, self.taxonomy)
                    with tracer.span("features.truth", i, n):
                        rows = build_features(chart, grid, curve, labels, "truth")
                    if tracer.enabled:
                        # traced run only: truth minus none is the summary block
                        with tracer.span("features.none", i, n):
                            build_features(chart, grid, curve, labels, "none")
                    with tracer.span("bms.emit", i, n):
                        emitted = emit_bms_bytes(chart)
                elapsed = time.perf_counter() - start
            except Exception:
                result.crash(f"chart {i}")
                continue
            result.latencies[i] = elapsed
            result.busy_s += elapsed
            result.items += n

            roundtrip = parse_bms_bytes(emitted) == chart
            roundtrips += roundtrip
            result.check(roundtrip, f"chart {i} does not survive emit and parse")
            result.check(
                rows.shape == (n, FEATURE_DIM) and bool(np.isfinite(rows).all()),
                f"chart {i} features have shape {rows.shape} or are not finite",
            )
            outputs += [emitted, rows.tobytes()]
        result.quality = roundtrips / len(inputs)
        result.digest = sha256(outputs)
        return result

    def cli_args(self):
        return ["difficulty", str(self.cli_chart)]


def training_corpus(seed: int, objects: int) -> list[CorpusEntry]:
    """The first songs of the seed's corpus, up to the song that reaches
    `objects` objects, and at least 10 songs so the 80/10/10 split leaves
    every part non-empty (build_corpus draws songs in order, so a longer
    corpus starts with the same songs)."""
    entries = build_corpus(CorpusConfig(songs=max(10, objects // 400), seed=seed))
    kept, total = [], 0
    for entry in entries:
        songs = len({e.song for e in kept})
        if total >= objects and songs >= 10 and entry.song != kept[-1].song:
            break
        kept.append(entry)
        total += len(entry.chart.objects)
    return kept


def _flags(chart) -> np.ndarray:
    return np.asarray([o.playable for o in chart.objects], dtype=bool)


def _train_config(sizes: Sizes, warmup: bool = False) -> TrainConfig:
    epochs = 1 if warmup else sizes.selector_epochs
    return TrainConfig(normalize=True, max_epochs=epochs, seed=PROGRAM_SEED)


class Train(Workload):
    """Parse a corpus, featurize it, train the selector, score ff_full."""

    name = "train"
    request = "epoch"

    def setup(self, tracer) -> str:
        with tracer.span("corpus.build", "setup") as span:
            entries = training_corpus(self.seed, self.sizes.train_objects)
            span.items = len(entries)
        self.inputs = [(e.song, emit_bms_bytes(e.chart)) for e in entries]
        self.cli_chart = self._write_cli_chart(self.inputs[0][1])
        return sha256(data for _, data in self.inputs)

    def run_pass(self, tracer, warmup=False) -> PassResult:
        result = PassResult()
        inputs = self.inputs
        if warmup:
            songs = sorted({song for song, _ in inputs})[: self.sizes.warmup_songs]
            inputs = [(song, data) for song, data in inputs if song in songs]
        try:
            with ForwardProbe(SelectorModel) as probe:
                start = time.perf_counter()
                entries = []
                for i, (song, data) in enumerate(inputs):
                    with tracer.span("bms.parse", i) as span:
                        chart = parse_bms_bytes(data)
                        span.items = len(chart.objects)
                    entries.append(CorpusEntry(song, chart))
                objects = sum(len(e.chart.objects) for e in entries)
                with tracer.span("dataset.featurize", "pass", objects):
                    examples = featurize_corpus(entries, self.taxonomy)
                split = make_split([e.song for e in examples], PROGRAM_SEED)
                train_rows = sum(
                    len(e.playable) for e in examples if split.assignment[e.song] == "train"
                )
                with tracer.span("selector.fit", "pass") as span:
                    fit_start = time.perf_counter()
                    model, report = train_selector(
                        examples, split, _train_config(self.sizes, warmup)
                    )
                    fit_end = time.perf_counter()
                    span.items = train_rows * len(report.rows)
                test = [e for e in examples if split.assignment[e.song] == "test"]
                f1s = []
                for i, example in enumerate(test):
                    rows = len(example.playable)
                    with tracer.span("selector.predict", i, rows):
                        flags = predict_flags(model, example.features)
                    with tracer.span("evaluate.score", i, rows):
                        f1s.append(score_chart(flags, example.playable).f1)
                result.busy_s = time.perf_counter() - start
        except Exception:
            result.crash("train pass")
            return result

        result.items = objects
        # fit runs one validation forward per epoch, so consecutive calls
        # inside the fit mark epoch boundaries (the first epoch also holds
        # the stacking and normalisation, so it is left out)
        ends = [t for t, _ in probe.calls if fit_start <= t <= fit_end]
        result.latencies = {k: b - a for k, (a, b) in enumerate(zip(ends, ends[1:]), 1)}
        result.quality = float(np.mean(f1s))
        if not warmup:
            result.check(
                result.quality >= TEST_F1_FLOOR,
                f"test F1 {result.quality:.4f} below {TEST_F1_FLOOR}",
            )
        best = int(np.argmin([row.val_loss for row in report.rows]))
        result.counters = {
            "selector.fit.epochs": len(report.rows),
            "selector.fit.best_epoch": best,
            "selector.fit.useful_ratio": (best + 1) / len(report.rows),
            "selector.fit.train_rows": train_rows,
        }
        model_path = self.workdir / "selector.bin"
        save_selector(model_path, model)
        result.digest = sha256(
            [e.features.tobytes() for e in examples] + [model_path.read_bytes()]
        )
        return result

    def cli_args(self):
        return ["features", str(self.cli_chart), "-o", str(self.workdir / "features.bin")]


class Generate(Workload):
    """Self-fed selection, placement and emit per unseen chart."""

    name = "generate"
    request = "chart"

    def setup(self, tracer) -> str:
        with tracer.span("corpus.build", "setup") as span:
            training = training_corpus(self.seed, self.sizes.train_objects)
            unseen = build_corpus(CorpusConfig(songs=self.sizes.unseen_songs, seed=self.seed + 1))
            span.items = len(training) + len(unseen)
        training_bytes = [(e.song, emit_bms_bytes(e.chart)) for e in training]
        self.inputs = [emit_bms_bytes(e.chart) for e in unseen]

        entries = [CorpusEntry(song, parse_bms_bytes(data)) for song, data in training_bytes]
        examples = featurize_corpus(entries, self.taxonomy)
        split = make_split([e.song for e in examples], PROGRAM_SEED)
        model, _ = train_selector(examples, split, _train_config(self.sizes))
        self.model_path = self.workdir / "selector.bin"
        save_selector(self.model_path, model)
        self.model = load_selector(self.model_path)
        self.setup_outputs = sha256([self.model_path.read_bytes()])

        self.cli_chart = self._write_cli_chart(self.inputs[0])
        return sha256([data for _, data in training_bytes] + self.inputs)

    def run_pass(self, tracer, warmup=False) -> PassResult:
        result = PassResult()
        outputs = []
        f1s = []
        inputs = self.inputs[: self.sizes.warmup_items] if warmup else self.inputs
        for i, data in enumerate(inputs):
            try:
                start = time.perf_counter()
                with tracer.span("generate.chart", i):
                    with tracer.span("bms.parse", i) as span:
                        chart = parse_bms_bytes(data)
                        n = span.items = len(chart.objects)
                    with tracer.span("timing.grid", i, n):
                        grid = TimeGrid(chart)
                    with tracer.span("difficulty.strain", i, n):
                        strains = compute_strain(chart, grid)
                    with tracer.span("difficulty.curve", i, n):
                        curve = difficulty_curve(chart, grid, strains)
                    with tracer.span("dataset.labels", i, n):
                        labels = resolve_labels(chart, self.taxonomy)
                    with tracer.span("selector.rollout", i, n):
                        flags = predict_chart(self.model, chart, grid, curve, labels, "self")
                    with tracer.span("placement.assign", i, n):
                        placed = apply_selection(chart, flags, scratch_sample_ids(chart, labels))
                    with tracer.span("bms.emit", i, n):
                        emitted = emit_bms_bytes(placed)
                elapsed = time.perf_counter() - start
            except Exception:
                result.crash(f"chart {i}")
                continue
            result.latencies[i] = elapsed
            result.busy_s += elapsed
            result.items += n

            with tracer.span("evaluate.score", i, n):
                f1s.append(score_chart(flags, _flags(chart)).f1)
            self._check_placement(result, i, chart, flags, placed, emitted)
            outputs += [emitted, flags.tobytes()]
        result.quality = float(np.mean(f1s)) if f1s else 0.0
        result.digest = sha256(outputs)
        return result

    @staticmethod
    def _check_placement(result: PassResult, i, chart, flags, placed, emitted) -> None:
        def identity(o):
            return (o.measure, o.position, o.sample.id)

        result.check(
            sorted(map(identity, chart.objects)) == sorted(map(identity, placed.objects)),
            f"chart {i} gained or lost objects in placement",
        )
        playables = [o for o in placed.objects if o.playable]
        result.check(
            len(playables) == int(np.sum(flags)),
            f"chart {i} has {len(playables)} playables for {int(np.sum(flags))} flags",
        )
        slots = Counter((o.measure, o.position, o.lane) for o in playables)
        result.check(
            not slots or max(slots.values()) == 1,
            f"chart {i} stacks two playables on one lane",
        )
        instants = Counter((o.measure, o.position) for o in playables)
        result.check(
            not instants or max(instants.values()) <= MAX_SIMULTANEOUS,
            f"chart {i} has more than {MAX_SIMULTANEOUS} playables at one instant",
        )
        result.check(
            parse_bms_bytes(emitted) == placed,
            f"chart {i} output does not re-parse to the placed chart",
        )

    def cli_args(self):
        return [
            "generate", str(self.cli_chart),
            "-o", str(self.workdir / "generated.bms"), "--model", str(self.model_path),
        ]  # fmt: skip


class Audio(Workload):
    """Load and fingerprint WAVs, train the classifier, classify each file."""

    name = "audio"
    request = "sample"

    def setup(self, tracer) -> str:
        directory = self.workdir / "samples"
        directory.mkdir(exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.paths = []
        with tracer.span("corpus.build", "setup") as span:
            for kind in TONE_KINDS:
                low, high = TONE_DECAYS[kind]
                for k in range(self.sizes.tones_per_class):
                    frequency = float(np.exp(rng.uniform(np.log(420.0), np.log(480.0))))
                    wave = make_tone(
                        kind,
                        frequency,
                        duration=0.6,
                        decay=float(rng.uniform(low, high)),
                        rng=rng,
                        phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                    )
                    path = directory / f"{TONE_CATEGORIES[kind]}_{k:03d}.wav"
                    write_wave(path, wave)
                    self.paths.append(path)
            span.items = len(self.paths)

        # classify-samples input for the cold start: one file per class
        self.cli_dir = self.workdir / "cli_samples"
        self.cli_dir.mkdir(exist_ok=True)
        per_class = self.sizes.tones_per_class
        for path in self.paths[::per_class]:
            shutil.copyfile(path, self.cli_dir / path.name)
        self.model_path = self.workdir / "classifier.bin"
        return sha256(path.read_bytes() for path in self.paths)

    def run_pass(self, tracer, warmup=False) -> PassResult:
        result = PassResult()
        # the warm-up takes about 30 files, enough for a non-empty 10% holdout
        paths = self.paths[:: max(1, len(self.paths) // 30)] if warmup else self.paths
        config = ClassifierConfig(
            epochs=1 if warmup else self.sizes.classifier_epochs, seed=PROGRAM_SEED
        )
        try:
            start = time.perf_counter()
            corpus, prepare = [], []
            for path in paths:
                t0 = time.perf_counter()
                with tracer.span("audio.load_wave", path.name, 1):
                    wave = load_wave(path)
                with tracer.span("audio.fingerprint", path.name, 1):
                    spec = fingerprint(wave)
                prepare.append(time.perf_counter() - t0)
                corpus.append((spec, label_from_filename(path.name, self.taxonomy)))
            with tracer.span("cnn.train", "pass", len(corpus) * config.epochs):
                model, report = train_classifier(corpus, config)
            predictions = []
            for path, (spec, _), before in zip(paths, corpus, prepare):
                t0 = time.perf_counter()
                with tracer.span("cnn.predict", path.name, 1):
                    predictions.append(classify_sample(model, spec))
                result.latencies[path.name] = before + time.perf_counter() - t0
            save_classifier(self.model_path, model)
            load_classifier(self.model_path)
            result.busy_s = time.perf_counter() - start
        except Exception:
            result.crash("audio pass")
            return result

        result.items = len(paths)
        for path, (spec, _), first in zip(paths, corpus, predictions):
            result.check(
                classify_sample(model, spec) == first,
                f"{path.name} classified two ways",
            )
        result.quality = report.holdout_accuracy
        if not warmup:
            result.check(
                report.holdout_accuracy >= HOLDOUT_FLOOR,
                f"holdout accuracy {report.holdout_accuracy:.3f} below {HOLDOUT_FLOOR}",
            )
        result.counters = {"cnn.train.epochs": len(report.train_losses)}
        result.digest = sha256(
            [self.model_path.read_bytes(), np.asarray(predictions, dtype="<i8").tobytes()]
        )
        return result

    def cli_args(self):
        return ["classify-samples", str(self.model_path), str(self.cli_dir)]


WORKLOADS = {w.name: w for w in (Ingest, Train, Generate, Audio)}
