"""Run one keysoundgen benchmark workload and print its metrics.

    python3 perfbench/run.py --workload generate --seed 0 --seconds 15 --trace 0

Run it from the root of a keysoundgen checkout; it imports the package
from src/.  Workloads: ingest, train, generate, audio (see README.md).

A run sets the workload up several times and keeps the last set-up, runs
a warm-up pass, then runs whole passes over the inputs until --seconds
have passed.  With --trace 1 it sets up once, runs the same passes again
with every call into keysoundgen wrapped in a span, times cold starts of
the workload's CLI command, and reports per-layer numbers instead of the
end-to-end ones.

The second-to-last stdout line is the full report (environment, sample
counts, digests); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The report, and the spans of a traced run, are also written under
perfbench/out/.  Exits 2 without a result when src/keysoundgen is absent.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set up at least 3 times and until 1 s has gone by, at most 7 times
SETUP_REPEATS = (3, 1.0, 7)
COLD_STARTS = 20

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "quality": "ratio",
}

LAYERS = (
    "corpus.build",
    "bms.parse",
    "bms.emit",
    "timing.grid",
    "difficulty.strain",
    "difficulty.curve",
    "dataset.labels",
    "dataset.featurize",
    "features.truth",
    "features.none",
    "selector.fit",
    "selector.epoch",
    "selector.predict",
    "selector.rollout",
    "placement.assign",
    "evaluate.score",
    "audio.load_wave",
    "audio.fingerprint",
    "cnn.train",
    "cnn.epoch",
    "cnn.predict",
    "cli.command",
)
LAYER_STATS = {"calls": "count", "busy_s": "s", "self_s": "s", "items_per_s": "items/s", "failed": "count"}
COUNTERS = {
    "selector.forward.calls": "count",
    "selector.forward.rows": "count",
    "selector.fit.epochs": "count",
    "selector.fit.best_epoch": "epoch",
    "selector.fit.useful_ratio": "ratio",
    "cnn.train.epochs": "count",
    "cli.command.p50_ms": "ms",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in LAYER_STATS.items()}
    units.update(COUNTERS)
    return units


def _cap_blas_threads(nproc: int) -> None:
    """Keep the OpenBLAS pool at or below nproc; must run before numpy loads."""
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        wanted = nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(wanted, nproc)))


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, read through its own API."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                function = getattr(handle, symbol)
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _git_commit() -> str | None:
    """HEAD of a git checkout, read from the files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((SRC / "keysoundgen").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[-1]


class Run:
    """One invocation: set-ups, warm-up, timed passes and, traced, cold starts."""

    def __init__(self, args, sizes, workdir: Path):
        from workloads import WORKLOADS

        self.args = args
        self.sizes = sizes
        self.workdir = workdir
        self.cls = WORKLOADS[args.workload]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")

    def setups(self, tracer):
        """Set up as SETUP_REPEATS says (once when traced) and keep the last."""
        least, seconds, most = (1, 0.0, 1) if tracer.enabled else SETUP_REPEATS
        times, digests = [], set()
        while len(times) < least or (sum(times) < seconds and len(times) < most):
            start = time.perf_counter()
            workload = self.cls(self.args.seed, self.workdir / f"setup{len(times)}", self.sizes)
            inputs = workload.setup(tracer)
            times.append(time.perf_counter() - start)
            digests.add((inputs, workload.setup_outputs))
        self.check(len(digests) == 1, "set-ups of one seed made different inputs")
        return workload, times, inputs

    def passes(self, workload, tracer, probes: list | None = None) -> list:
        """Whole passes until --seconds have gone by (at least one).

        With `probes`, each pass counts SelectorModel.forward calls into a
        fresh ForwardProbe appended to that list.
        """
        from keysoundgen.selector import SelectorModel
        from tracer import ForwardProbe

        results = []
        start = time.perf_counter()
        while not results or time.perf_counter() - start < self.args.seconds:
            if probes is None:
                results.append(workload.run_pass(tracer))
                continue
            with ForwardProbe(SelectorModel) as probe:
                results.append(workload.run_pass(tracer))
            probes.append(probe)
        for result in results:
            self.attempted += result.attempted
            self.failed += result.failed
            self.errors += result.errors
        self.check(
            len({r.digest for r in results}) == 1,
            "passes over the same inputs gave different outputs",
        )
        return results

    def cold_starts(self, workload, tracer) -> list[float]:
        """Time `python -m keysoundgen <command>` subprocesses, one at a time."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "keysoundgen", *workload.cli_args()]
        times = []
        for k in range(COLD_STARTS + 1):  # the first call writes bytecode caches: untimed
            with tracer.span("cli.command" if k else "cli.warmup", k, 1):
                start = time.perf_counter()
                done = subprocess.run(
                    command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, timeout=120,
                )  # fmt: skip
                elapsed = time.perf_counter() - start
            if k:
                times.append(elapsed)
            self.check(
                done.returncode == 0,
                f"{' '.join(command[3:])} exited {done.returncode}: "
                f"{done.stderr.decode(errors='replace').strip()[-300:]}",
            )
        return times


def end_to_end(workload, setup_times, results) -> tuple[dict, dict]:
    """Every pass repeats the same requests.  A request counts with its
    fastest repeat, and items_per_s with the fastest pass: on a shared
    machine, outside load comes in bursts of a few seconds that slow a
    whole pass by up to 20%, and the fastest repeat is one a burst missed."""
    done = [r for r in results if r.busy_s > 0 and r.items > 0]
    if not done:
        raise RuntimeError("no pass completed; the errors are above")
    requests = {}
    for result in done:
        for request, seconds in result.latencies.items():
            requests.setdefault(request, []).append(seconds)
    latencies = [min(times) for times in requests.values()]
    fastest = max(done, key=lambda r: r.items / r.busy_s)
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": fastest.items / fastest.busy_s,
        "item_ms_p50": statistics.median(latencies) * 1e3,
        "item_ms_p90": _p90(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": done[0].quality,
    }
    detail = {
        "samples": {
            "setups": len(setup_times),
            "passes": len(results),
            "requests": len(latencies),
            "request": workload.request,
        },
        "pass_s_all": [r.busy_s for r in results],
        "setup_s_all": setup_times,
    }
    if workload.request == "chart":
        detail["charts_per_s"] = len(latencies) / fastest.busy_s
    return values, detail


_EMPTY = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "items": 0, "failed": 0}


def per_layer(setup_spans, traced, probes, pass_spans, untraced, cli_spans, cold) -> dict:
    """Per-pass layer numbers of the traced passes (set-up layers per set-up,
    the CLI per run), plus the forward and epoch counters."""
    from tracer import layer_totals

    passes = len(traced)
    totals = layer_totals(pass_spans)
    totals["corpus.build"] = layer_totals(setup_spans).get("corpus.build", _EMPTY)
    totals["cli.command"] = layer_totals(cli_spans).get("cli.command", _EMPTY)
    values = {}
    for layer in LAYERS:
        t = totals.get(layer, _EMPTY)
        scale = 1 if layer in ("corpus.build", "cli.command") else passes
        values[f"{layer}.calls"] = t["calls"] / scale
        values[f"{layer}.busy_s"] = t["busy_s"] / scale
        values[f"{layer}.self_s"] = t["self_s"] / scale
        values[f"{layer}.items_per_s"] = t["items"] / t["busy_s"] if t["busy_s"] else 0.0
        values[f"{layer}.failed"] = t["failed"] / scale

    counters = {}
    for result in traced:
        for key, value in result.counters.items():
            counters[key] = counters.get(key, 0) + value / passes
    # an epoch is 1/epochs of its fit: the same rate, the per-epoch time
    for epoch, fit, key in (
        ("selector.epoch", "selector.fit", "selector.fit.epochs"),
        ("cnn.epoch", "cnn.train", "cnn.train.epochs"),
    ):
        epochs = counters.get(key, 0)
        busy = values[f"{fit}.busy_s"] / epochs if epochs else 0.0
        values[f"{epoch}.calls"] = epochs
        values[f"{epoch}.busy_s"] = values[f"{epoch}.self_s"] = busy
        values[f"{epoch}.items_per_s"] = values[f"{fit}.items_per_s"]
        values[f"{epoch}.failed"] = values[f"{fit}.failed"]

    values["selector.forward.calls"] = sum(len(p.calls) for p in probes) / passes
    values["selector.forward.rows"] = sum(p.rows for p in probes) / passes
    for key in ("selector.fit.epochs", "selector.fit.best_epoch",
                "selector.fit.useful_ratio", "cnn.train.epochs"):  # fmt: skip
        values[key] = counters.get(key, 0)

    values["cli.command.p50_ms"] = statistics.median(cold) * 1e3

    # features.none only runs when traced: it is extra work, not overhead
    traced_pass = sum(r.busy_s for r in traced) / passes - values["features.none.busy_s"]
    untraced_pass = sum(r.busy_s for r in untraced) / len(untraced)
    values["trace.overhead_s"] = traced_pass - untraced_pass
    return values


def run(args, sizes) -> tuple[dict, dict]:
    from tracer import Tracer

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Run(args, sizes, workdir)
    env = environment(len(os.sched_getaffinity(0)))
    bench.check(
        env["blas_threads"] is None or env["blas_threads"] <= env["nproc"],
        f"BLAS runs {env['blas_threads']} threads on {env['nproc']} CPUs",
    )
    try:
        setup_tracer = Tracer(bool(args.trace))
        workload, setup_times, inputs = bench.setups(setup_tracer)
        workload.run_pass(Tracer(False), warmup=True)
        gc.collect()  # set-up garbage is not the timed phase's to collect
        untraced = bench.passes(workload, Tracer(False))
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "environment": env,
            "digests": {
                "inputs": inputs,
                "setup_outputs": workload.setup_outputs,
                "outputs": untraced[0].digest,
            },
            "quality": untraced[0].quality,
            "counters": untraced[0].counters,
        }
        if args.trace:
            pass_tracer, cli_tracer, probes = Tracer(True), Tracer(True), []
            traced = bench.passes(workload, pass_tracer, probes)
            cold = bench.cold_starts(workload, cli_tracer)
            metrics = per_layer(
                setup_tracer.spans, traced, probes, pass_tracer.spans, untraced,
                cli_tracer.spans, cold,
            )  # fmt: skip
            report["samples"] = {
                "traced_passes": len(traced),
                "untraced_passes": len(untraced),
                "cold_starts": len(cold),
            }
            units = per_layer_units()
            spans = {
                "setup": setup_tracer.to_records(),
                "passes": pass_tracer.to_records(),
                "cli": cli_tracer.to_records(),
            }
        else:
            metrics, detail = end_to_end(workload, setup_times, untraced)
            report.update(detail)
            units = E2E_UNITS
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["errors"] = bench.errors[:20]
    line = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.report.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    return report, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "train", "generate", "audio"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: a few charts and samples, for the self-test only",
    )  # fmt: skip
    args = parser.parse_args(argv)

    if not (SRC / "keysoundgen" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no keysoundgen sources at {SRC}\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    _cap_blas_threads(nproc)
    # numpy and keysoundgen load only now, after the BLAS thread cap is set
    sys.path.insert(0, str(SRC))
    from workloads import FULL, TINY

    report, line = run(args, TINY if args.scale == "tiny" else FULL)
    for name, metric in line["metrics"].items():
        sys.stderr.write(f"{name:32s} {metric['value']:14.6g} {metric['unit']}\n")
    sys.stderr.write(f"attempted {line['attempted']}, failed {line['failed']}\n")
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
