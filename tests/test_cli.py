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
                TimedObject(measure, Fraction(0), SampleRef(sid, name), Lane.BG, False)
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
