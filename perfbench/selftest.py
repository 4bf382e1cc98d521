"""Self-test of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that:

- every workload, untraced and traced, prints a last line with exactly
  the keys correct/attempted/failed/metrics, and every metric that
  BENCHMARK.json names, with its unit and a finite value;
- one seed makes identical inputs twice and another seed makes different
  ones;
- a copy holding only BENCHMARK.json and perfbench/ (no src/) exits
  non-zero without printing a result.

Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work" / f"selftest-{os.getpid()}"

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )  # fmt: skip


def result_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def check_smoke(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{workload} --trace {trace}"
            done = bench(
                ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.2",
                "--trace", str(trace), "--scale", "tiny",
            )  # fmt: skip
            expect(done.returncode == 0, f"{name} exited {done.returncode}: {done.stderr[-500:]}")
            result = result_line(done.stdout)
            if result is None:
                expect(False, f"{name} printed no result line")
                continue
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name} result keys {sorted(result)}",
            )
            expect(
                isinstance(result["attempted"], int) and result["attempted"] >= 1,
                f"{name} attempted {result['attempted']!r}",
            )
            expect(isinstance(result["failed"], int), f"{name} failed {result['failed']!r}")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(printed == wanted, f"{name} metrics differ from BENCHMARK.json {section}")
            for key, metric in result["metrics"].items():
                value = metric.get("value")
                expect(
                    isinstance(value, (int, float)) and math.isfinite(value),
                    f"{name} {key} = {value!r}",
                )
            if trace == 0:
                report = json.loads(done.stdout.strip().splitlines()[-2])
                expect(report["samples"]["requests"] >= 1, f"{name} reports no samples")


def check_seeds() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracer import Tracer
    from workloads import TINY, WORKLOADS

    for name, cls in WORKLOADS.items():

        def inputs(seed: int, tag: str) -> str:
            workload = cls(seed, WORK / f"{name}-{tag}", TINY)
            return workload.setup(Tracer(False))

        first, again, other = inputs(0, "a"), inputs(0, "b"), inputs(1, "c")
        expect(first == again, f"{name}: seed 0 made different inputs twice")
        expect(first != other, f"{name}: seeds 0 and 1 made the same inputs")


def check_without_source() -> None:
    bare = WORK / "bare"
    bare.mkdir(parents=True)
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    done = bench(bare, "--workload", "ingest", "--seed", "0", "--seconds", "1", "--trace", "0")
    expect(done.returncode != 0, "a checkout without src/ exited 0")
    expect(result_line(done.stdout) is None, "a checkout without src/ printed a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_without_source()
        check_seeds()
        check_smoke(spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
