"""End-to-end command line checks, including the exit-code contract."""

import json
from fractions import Fraction

import pytest

from keysoundgen.bms import (
    BpmEvent,
    Lane,
    SampleRef,
    TimedObject,
    emit_bms_bytes,
    load_bms,
    make_chart,
    save_bms,
)
from keysoundgen.cli import main
from keysoundgen.corpus import instrument_wave
from keysoundgen.audio import write_wave
from keysoundgen.features import FULL_MODE, load_features
from keysoundgen.placement import KEY_LANES
from keysoundgen.selector import SelectorModel, load_selector, save_selector


def make_source_chart(path, groups=(3, 2, 4)):
    """A background-only chart with the given simultaneous group sizes."""
    table = {}
    objects = []
    instruments = ["kick", "snare", "piano", "bass", "hat", "bell", "pluck", "lead", "organ"]
    sid = 1
    for measure, size in enumerate(groups):
        for k in range(size):
            name = f"{instruments[k % len(instruments)]}{sid:02d}.wav"
            table[sid] = name
            objects.append(
                TimedObject(measure, Fraction(0), SampleRef(sid), Lane.BG)
            )
            sid += 1
    chart = make_chart(objects, table, [BpmEvent(0, Fraction(0), 140.0)])
    save_bms(path, chart)
    return chart


def playable_everywhere_model(path):
    """Zeroed network with a final bias of (1, 0): playable for any input."""
    model = SelectorModel(FULL_MODE, seed=0)
    for w, b in zip(model.weights, model.biases):
        w[:] = 0.0
        b[:] = 0.0
    model.biases[-1][0] = 1.0
    save_selector(path, model)
    return path


# -- exit codes ---------------------------------------------------------------

def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "keysoundgen" in out


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["generate", "x.bms"]) == 1  # missing required flags
    assert "usage error" in capsys.readouterr().err


def test_missing_input_exits_two(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "nope.bms")]) == 2
    assert main(["emit", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_bad_config_exits_two(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("strain.gravity = 9.8\n", encoding="utf-8")
    source = tmp_path / "in.bms"
    make_source_chart(source)
    assert main(["--config", str(config), "parse", str(source)]) == 2


def test_placement_overflow_exits_three(tmp_path, capsys):
    source = tmp_path / "crowded.bms"
    make_source_chart(source, groups=(9,))
    model = playable_everywhere_model(tmp_path / "model.bin")
    code = main(
        ["generate", str(source), "-o", str(tmp_path / "out.bms"), "--model", str(model)]
    )
    assert code == 3
    assert "constraint violation" in capsys.readouterr().err


def test_non_finite_bpm_exits_two(tmp_path, capsys):
    for bpm in ("nan", "inf"):
        source = tmp_path / f"{bpm}.bms"
        source.write_text(f"#BPM {bpm}\n#WAV01 kick.wav\n#00111:01\n", encoding="utf-8")
        assert main(["difficulty", str(source)]) == 2

        good = tmp_path / "good.bms"
        make_source_chart(good)
        doc = tmp_path / "chart.json"
        assert main(["parse", str(good), "-o", str(doc)]) == 0
        chart = json.loads(doc.read_text("utf-8"))
        chart["bpm_events"][0][2] = float(bpm)
        doc.write_text(json.dumps(chart), encoding="utf-8")
        assert main(["emit", str(doc), "-o", str(tmp_path / "out.bms")]) == 2
    err = capsys.readouterr().err
    assert "not finite and positive" in err
    assert "Traceback" not in err


def test_unbounded_time_exits_two(tmp_path, capsys):
    # 1e-300 BPM puts measure 1 about 1e302 s in: too many curve windows.
    # 1e-310 BPM puts it at infinity: no finite time.
    for bpm, message in (("1e-300", "windows of"), ("1e-310", "no finite time")):
        source = tmp_path / "slow.bms"
        source.write_text(f"#BPM {bpm}\n#WAV01 kick.wav\n#00111:01\n", encoding="utf-8")
        assert main(["difficulty", str(source)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_bad_strain_window_exits_two(tmp_path, capsys):
    source = tmp_path / "in.bms"
    make_source_chart(source)
    for value in ("0", "-1", "nan"):
        config = tmp_path / "window.cfg"
        config.write_text(f"strain.window_seconds = {value}\n", encoding="utf-8")
        assert main(["--config", str(config), "difficulty", str(source)]) == 2
        assert "window_seconds must be finite and positive" in capsys.readouterr().err


def test_bad_strain_decay_exits_two(tmp_path, capsys):
    source = tmp_path / "in.bms"
    make_source_chart(source)
    for name in ("decay_individual", "decay_overall"):
        for value in ("1e300", "-0.5", "nan", "0"):
            config = tmp_path / "decay.cfg"
            config.write_text(f"strain.{name} = {value}\n", encoding="utf-8")
            assert main(["--config", str(config), "difficulty", str(source)]) == 2
            err = capsys.readouterr().err
            assert f"{name} must be in (0, 1]" in err
            assert "Traceback" not in err


def test_measure_past_three_digits_exits_two(tmp_path, capsys):
    good = tmp_path / "good.bms"
    make_source_chart(good)
    doc = tmp_path / "chart.json"
    assert main(["parse", str(good), "-o", str(doc)]) == 0
    original = json.loads(doc.read_text("utf-8"))

    last = json.loads(json.dumps(original))
    last["objects"][-1]["measure"] = 999
    doc.write_text(json.dumps(last), encoding="utf-8")
    assert main(["emit", str(doc), "-o", str(tmp_path / "last.bms")]) == 0
    assert load_bms(tmp_path / "last.bms").objects[-1].measure == 999

    # BMS writes measures as three digits, so 1000 could not be read back
    for where in ("objects", "bpm_events", "measure_lengths"):
        chart = json.loads(json.dumps(original))
        if where == "objects":
            chart["objects"][-1]["measure"] = 1000
        elif where == "bpm_events":
            chart["bpm_events"].append([1000, "0", 150.0])
        else:
            chart["measure_lengths"] = {"1000": "3/4"}
        doc.write_text(json.dumps(chart), encoding="utf-8")
        assert main(["emit", str(doc), "-o", str(tmp_path / "out.bms")]) == 2
        assert "0..999" in capsys.readouterr().err


def test_emit_past_slot_ceiling_exits_two(tmp_path, capsys, monkeypatch):
    # the ceiling is patched small so a broken check could not allocate much
    from keysoundgen import bms

    monkeypatch.setattr(bms, "MAX_MESSAGE_SLOTS", 1000)
    good = tmp_path / "good.bms"
    make_source_chart(good)
    doc = tmp_path / "chart.json"
    assert main(["parse", str(good), "-o", str(doc)]) == 0
    chart = json.loads(doc.read_text("utf-8"))
    chart["objects"][-1]["position"] = "1/1009"
    doc.write_text(json.dumps(chart), encoding="utf-8")
    assert main(["emit", str(doc), "-o", str(tmp_path / "out.bms")]) == 2
    err = capsys.readouterr().err
    assert "1009 slots" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.bms").exists()


def test_emit_sample_missing_from_table_exits_two(tmp_path, capsys):
    good = tmp_path / "good.bms"
    make_source_chart(good)
    doc = tmp_path / "chart.json"
    assert main(["parse", str(good), "-o", str(doc)]) == 0
    chart = json.loads(doc.read_text("utf-8"))
    del chart["samples"][str(chart["objects"][0]["sample"])]
    doc.write_text(json.dumps(chart), encoding="utf-8")
    assert main(["emit", str(doc), "-o", str(tmp_path / "out.bms")]) == 2
    err = capsys.readouterr().err
    assert f"sample id {chart['objects'][0]['sample']} missing from table" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out.bms").exists()


# -- parse / emit -------------------------------------------------------------

def test_parse_emit_roundtrip(tmp_path, capsys):
    source = tmp_path / "in.bms"
    chart = make_source_chart(source)
    json_path = tmp_path / "chart.json"
    assert main(["parse", str(source), "-o", str(json_path)]) == 0
    out_path = tmp_path / "out.bms"
    assert main(["emit", str(json_path), "-o", str(out_path)]) == 0
    assert out_path.read_bytes() == emit_bms_bytes(chart)
    assert load_bms(out_path) == chart


def test_parse_to_stdout(tmp_path, capsys):
    source = tmp_path / "in.bms"
    make_source_chart(source)
    assert main(["parse", str(source)]) == 0
    assert '"objects"' in capsys.readouterr().out


# -- difficulty and features --------------------------------------------------

def test_difficulty_writes_curve(tmp_path, capsys):
    source = tmp_path / "in.bms"
    make_source_chart(source)
    curve_path = tmp_path / "curve.tsv"
    assert main(["difficulty", str(source), "-o", str(curve_path)]) == 0
    assert "overall" in capsys.readouterr().out
    lines = curve_path.read_text("utf-8").splitlines()
    assert lines[0].startswith("0\t")


def test_features_dump(tmp_path, capsys):
    source = tmp_path / "in.bms"
    chart = make_source_chart(source)
    dump = tmp_path / "rows.bin"
    assert main(["features", str(source), "-o", str(dump)]) == 0
    rows = load_features(dump)
    assert rows.shape == (len(chart.objects), 299)

    zeroed = tmp_path / "rows-none.bin"
    assert main(["features", str(source), "-o", str(zeroed), "--summary-mode", "none"]) == 0
    assert not load_features(zeroed)[:, 29:].any()


# -- corpus, training, generation, evaluation ---------------------------------

@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    code = main(["--seed", "5", "synth-corpus", str(directory), "--songs", "10"])
    assert code == 0
    return directory


def test_synth_corpus_is_seed_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", "9", "synth-corpus", str(a), "--songs", "4"]) == 0
    assert main(["--seed", "9", "synth-corpus", str(b), "--songs", "4"]) == 0
    files_a = sorted(p.name for p in a.glob("*.bms"))
    files_b = sorted(p.name for p in b.glob("*.bms"))
    assert files_a == files_b and files_a
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def corpus_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.bms"))}


def test_seed_flag_wins_over_config_seed_keys(tmp_path, capsys):
    config = tmp_path / "seeded.cfg"
    config.write_text("corpus.seed = 5\n", encoding="utf-8")
    runs = {
        "file": ["--config", str(config)],
        "flag": ["--seed", "5"],
        "default": [],
        "both": ["--config", str(config), "--seed", "7"],
        "other": ["--seed", "7"],
    }
    written = {}
    for name, flags in runs.items():
        directory = tmp_path / name
        assert main([*flags, "synth-corpus", str(directory), "--songs", "2"]) == 0
        written[name] = corpus_bytes(directory)
    assert written["file"] == written["flag"]
    assert written["file"] != written["default"]
    assert written["both"] == written["other"]
    assert written["both"] != written["file"]


def test_selector_seed_key_reaches_the_model_file(tmp_path, corpus_dir, capsys):
    config = tmp_path / "seeded.cfg"
    config.write_text("selector.max_epochs = 1\nselector.seed = 3\n", encoding="utf-8")
    model_path = tmp_path / "selector.bin"
    code = main(["--config", str(config), "train-selector", str(corpus_dir), "-o", str(model_path)])
    assert code == 0
    assert load_selector(model_path).seed == 3


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["train-selector", "train-classifier"])
def test_seed_flag_outside_uint64_exits_two(tmp_path, corpus_dir, wav_dir, capsys, seed, command):
    directory = corpus_dir if command == "train-selector" else wav_dir
    model_path = tmp_path / "model.bin"
    code = main(["--seed", seed, command, str(directory), "-o", str(model_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"seed must be in [0, 2**64), got {seed}" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not model_path.exists()


def test_synth_corpus_with_samples(tmp_path, capsys):
    directory = tmp_path / "with-wavs"
    assert main(["--seed", "2", "synth-corpus", str(directory), "--songs", "3", "--samples"]) == 0
    assert list(directory.glob("*.bms"))
    assert list(directory.glob("*.wav"))


def test_train_selector_and_generate(tmp_path, corpus_dir, capsys):
    config = tmp_path / "fast.cfg"
    config.write_text(
        "selector.max_epochs = 2\nselector.normalize = true\n", encoding="utf-8"
    )
    model_path = tmp_path / "selector.bin"
    report_path = tmp_path / "report.tsv"
    code = main(
        [
            "--config", str(config), "--seed", "0",
            "train-selector", str(corpus_dir),
            "-o", str(model_path), "--report", str(report_path),
        ]
    )
    assert code == 0
    assert "validation" in capsys.readouterr().out
    model = load_selector(model_path)
    assert model.mode == FULL_MODE
    assert report_path.read_text("utf-8").count("\n") == 2

    source = tmp_path / "song.bms"
    make_source_chart(source)
    out_a, out_b = tmp_path / "gen-a.bms", tmp_path / "gen-b.bms"
    for out in (out_a, out_b):
        code = main(
            ["generate", str(source), "-o", str(out), "--model", str(model_path)]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    generated = load_bms(out_a)
    seen = set()
    for obj in generated.objects:
        if obj.playable:
            key = (obj.measure, obj.position, obj.lane)
            assert key not in seen
            seen.add(key)


def test_generate_with_user_curve_and_summary_mode(tmp_path, corpus_dir, capsys):
    source = tmp_path / "song.bms"
    make_source_chart(source)
    model_path = playable_everywhere_model(tmp_path / "model.bin")
    curve_path = tmp_path / "curve.tsv"
    curve_path.write_text("0\t4.0\n1\t2.0\n", encoding="utf-8")
    out = tmp_path / "gen.bms"
    code = main(
        [
            "generate", str(source), "-o", str(out),
            "--model", str(model_path),
            "--difficulty-curve", str(curve_path),
            "--summary-mode", "none",
        ]
    )
    assert code == 0
    assert load_bms(out).playable_indices()


@pytest.mark.parametrize(
    "setting, lanes", [("on", {Lane.TT}), ("off", set(KEY_LANES))], ids=["on", "off"]
)
def test_generate_scratch_to_turntable_key(tmp_path, capsys, setting, lanes):
    table = {1: "kick01.wav", 2: "scratch02.wav"}
    objects = [TimedObject(0, Fraction(0), SampleRef(sid), Lane.BG) for sid in table]
    source = tmp_path / "song.bms"
    save_bms(source, make_chart(objects, table, [BpmEvent(0, Fraction(0), 140.0)]))
    config = tmp_path / "placement.cfg"
    config.write_text(f"placement.scratch_to_turntable = {setting}\n", encoding="utf-8")
    model_path = playable_everywhere_model(tmp_path / "model.bin")
    out = tmp_path / "gen.bms"
    code = main(
        ["--config", str(config), "generate", str(source), "-o", str(out), "--model", str(model_path)]
    )
    assert code == 0
    lane_of = {obj.sample.id: obj.lane for obj in load_bms(out).objects}
    assert lane_of[2] in lanes
    assert lane_of[1] in KEY_LANES


def test_evaluate_compares_variants(tmp_path, corpus_dir, capsys):
    config = tmp_path / "fast.cfg"
    config.write_text("selector.max_epochs = 2\n", encoding="utf-8")
    table_path = tmp_path / "table.tsv"
    pairs_path = tmp_path / "pairs.tsv"
    code = main(
        [
            "--config", str(config), "--seed", "0",
            "evaluate", str(corpus_dir),
            "--table", str(table_path),
            "--difficulty-f1", str(pairs_path),
            "--variant", "all_playable",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for name in ("ff_full", "ff_self_summary", "ff_free", "random_0.3", "all_playable"):
        assert name in out
    assert table_path.read_text("utf-8") == out
    assert pairs_path.read_text("utf-8").strip()


def test_evaluate_rejects_unknown_variant_before_training(tmp_path, corpus_dir, capsys):
    table_path = tmp_path / "table.tsv"
    code = main(
        [
            "evaluate", str(corpus_dir),
            "--table", str(table_path),
            "--difficulty-f1", str(tmp_path / "pairs.tsv"),
            "--variant", "nosuch",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "invalid choice: 'nosuch'" in captured.err
    assert captured.out == ""
    assert not table_path.exists()


# -- audio commands -----------------------------------------------------------

@pytest.fixture(scope="module")
def wav_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("wavs")
    for instrument in ("kick", "snare", "piano", "bass"):
        for variant in range(3):
            write_wave(
                directory / f"{instrument}{variant:02d}.wav",
                instrument_wave(instrument, variant),
            )
    return directory


def test_train_classifier_and_classify(tmp_path, wav_dir, capsys):
    config = tmp_path / "fast.cfg"
    config.write_text("classifier.epochs = 2\n", encoding="utf-8")
    model_path = tmp_path / "classifier.bin"
    code = main(
        [
            "--config", str(config), "--seed", "0",
            "train-classifier", str(wav_dir), "-o", str(model_path),
        ]
    )
    assert code == 0
    assert "holdout accuracy" in capsys.readouterr().out

    manifest_path = tmp_path / "labels.tsv"
    code = main(
        ["classify-samples", str(model_path), str(wav_dir), "-o", str(manifest_path)]
    )
    assert code == 0
    lines = manifest_path.read_text("utf-8").splitlines()
    assert len(lines) == 12
    for line in lines:
        name, category = line.split("\t")
        assert name.endswith(".wav")
        assert category


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("batch_size", "0", "batch_size must be at least 1, got 0"),
        ("conv1_filters", "0", "conv1_filters must be at least 1, got 0"),
        ("conv2_filters", "-1", "conv2_filters must be at least 1, got -1"),
        ("kernel", "0", "kernel must be at least 1, got 0"),
        ("epochs", "0", "epochs must be at least 1, got 0"),
        ("classes", "99", "class count 99 outside 1..27"),
        ("classes", "0", "class count 0 outside 1..27"),
        ("dropout", "1.0", "dropout must be in [0, 1), got 1.0"),
        ("dropout", "-0.5", "dropout must be in [0, 1), got -0.5"),
        ("learning_rate", "nan", "learning_rate must be finite and positive, got nan"),
        ("learning_rate", "inf", "learning_rate must be finite and positive, got inf"),
        ("learning_rate", "0", "learning_rate must be finite and positive, got 0.0"),
        ("holdout_fraction", "nan", "holdout_fraction must be in (0, 1), got nan"),
        ("holdout_fraction", "1", "holdout_fraction must be in (0, 1), got 1.0"),
        ("holdout_fraction", "0", "holdout_fraction must be in (0, 1), got 0.0"),
        ("seed", "-1", "seed must be in [0, 2**64), got -1"),
        ("seed", str(2**64), f"seed must be in [0, 2**64), got {2**64}"),
    ],
)
def test_out_of_range_classifier_config_exits_two(tmp_path, wav_dir, capsys, key, value, message):
    config = tmp_path / "bad.cfg"
    config.write_text(f"classifier.{key} = {value}\n", encoding="utf-8")
    model_path = tmp_path / "m.bin"
    code = main(
        ["--config", str(config), "train-classifier", str(wav_dir), "-o", str(model_path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not model_path.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("max_epochs", "0", "max_epochs must be at least 1, got 0"),
        ("learning_rate", "nan", "learning_rate must be finite and positive, got nan"),
        ("learning_rate", "-0.1", "learning_rate must be finite and positive, got -0.1"),
        ("weight_nonplayable", "nan", "loss weights must be finite and positive, got nan"),
        ("normalize", "false", "normalize must be true"),
        ("seed", "-1", "seed must be in [0, 2**64), got -1"),
        ("seed", str(2**64), f"seed must be in [0, 2**64), got {2**64}"),
    ],
)
def test_out_of_range_selector_config_exits_two(tmp_path, corpus_dir, capsys, key, value, message):
    config = tmp_path / "bad.cfg"
    config.write_text(f"selector.{key} = {value}\n", encoding="utf-8")
    model_path = tmp_path / "selector.bin"
    code = main(
        ["--config", str(config), "train-selector", str(corpus_dir), "-o", str(model_path)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not model_path.exists()


@pytest.mark.parametrize(
    "settings, flags, message",
    [
        ("corpus.songs = 0", [], "songs must be at least 1, got 0"),
        ("", ["--songs", "-3"], "songs must be at least 1, got -3"),
        ("corpus.min_measures = 30", [], "min_measures <= max_measures <= 1000, got 30 and 20"),
        (
            "corpus.min_measures = 1\ncorpus.max_measures = 1",
            [],
            "need 2 <= min_measures <= max_measures <= 1000, got 1 and 1",
        ),
        ("corpus.max_measures = 1001", [], "max_measures <= 1000, got 12 and 1001"),
        ("corpus.seed = -7", [], "corpus seed must be in [0, 2**64), got -7"),
        ("corpus.seed = 18446744073709551616", [], f"got {2**64}"),
    ],
)
def test_out_of_range_corpus_config_exits_two(tmp_path, capsys, settings, flags, message):
    config = tmp_path / "bad.cfg"
    config.write_text(settings + "\n", encoding="utf-8")
    directory = tmp_path / "corpus"
    code = main(["--config", str(config), "synth-corpus", str(directory), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not directory.exists()


def test_negative_seed_flag_on_synth_corpus_exits_two(tmp_path, capsys):
    directory = tmp_path / "corpus"
    assert main(["--seed", "-7", "synth-corpus", str(directory), "--songs", "2"]) == 2
    err = capsys.readouterr().err
    assert "corpus seed must be in [0, 2**64), got -7" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not directory.exists()


def test_train_classifier_skips_unlabeled(tmp_path, wav_dir, capsys):
    directory = tmp_path / "mixed"
    directory.mkdir()
    for path in wav_dir.iterdir():
        (directory / path.name).write_bytes(path.read_bytes())
    write_wave(directory / "zzz9.wav", instrument_wave("kick", 0))

    config = tmp_path / "fast.cfg"
    config.write_text("classifier.epochs = 1\n", encoding="utf-8")
    code = main(
        [
            "--config", str(config),
            "train-classifier", str(directory), "-o", str(tmp_path / "m.bin"),
        ]
    )
    assert code == 0
    assert "skipped 1 samples" in capsys.readouterr().err
