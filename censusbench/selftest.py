"""The census benchmark's own tests.

From the repository root:

    python3 censusbench/selftest.py

- smoke: every workload, untraced and traced, on tiny inputs.  The last
  stdout line must be the result object, correct, naming exactly the
  metrics that BENCHMARK.json lists for that mode, each with its unit,
  and the result file must carry the environment stamp;
- repeat: two traced smoke runs with different seeds (so different
  query orders) give identical work counts and ratios;
- corrupt: a smoke run against a copy of the frozen answers in which
  every answer is changed must exit 1 and count every attempted query
  as failed, which shows that the output checks and the run's failure
  count are live.

Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH_DIR, NAMES, ROOT

ENV_KEYS = {"python", "nproc", "commit", "loadavg_before", "loadavg_after"}


EXPECTED_DIR = BENCH_DIR / "expected"
CORRUPT_DIR = BENCH_DIR / "out" / "corrupt-expected"


def run_smoke(workload: str, seed: int, trace: int, *extra: str,
              code: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != code:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(result: dict, units: dict[str, str]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"missing {sorted(set(units) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(units))}")
    for name, entry in metrics.items():
        if entry.get("unit") != units.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value {entry.get('value')!r}")
    return problems


def write_corrupted() -> None:
    """Copy the frozen answers to CORRUPT_DIR, every answer changed."""
    CORRUPT_DIR.mkdir(parents=True, exist_ok=True)
    for path in EXPECTED_DIR.glob("*.jsonl"):
        data = path.read_bytes()
        bad = data.replace(b'"dim":', b'"dim":9')
        assert bad.count(b"\n") == data.count(b'"dim":'), path
        (CORRUPT_DIR / path.name).write_bytes(bad)
    changes = {"ladder.json": lambda v: {**v, "value": v["value"] + 1},
               "oracle.json": lambda v: v + 1,
               "cells.json": lambda v: {**v, "checks": [
                   {**v["checks"][0], "cells": v["checks"][0]["cells"] + 1},
                   *v["checks"][1:]]}}
    for name, change in changes.items():
        data = json.loads((EXPECTED_DIR / name).read_text(encoding="utf-8"))
        (CORRUPT_DIR / name).write_text(
            json.dumps({k: change(v) for k, v in data.items()}),
            encoding="utf-8")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0

    def report(label: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}"
              + "".join(f"\n    {p}" for p in problems), flush=True)

    for name in NAMES:
        traced = []
        for trace in (0, 1):
            try:
                result = run_smoke(name, 1, trace)
                problems = check_result(result, units[trace])
                stamp = json.loads((BENCH_DIR / "out" / (
                    f"{name}-seed1-trace{trace}-smoke.json")).read_text(
                        encoding="utf-8"))["env"]
                if not ENV_KEYS <= set(stamp):
                    problems.append(f"env stamp lacks "
                                    f"{sorted(ENV_KEYS - set(stamp))}")
            except (AssertionError, ValueError, OSError,
                    subprocess.TimeoutExpired) as exc:
                result, problems = None, [str(exc)]
            report(f"smoke {name} trace={trace}", problems)
            if trace and result is not None:
                traced.append(result)
        try:
            traced.append(run_smoke(name, 2, 1))
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            report(f"repeat {name}", [str(exc)])
            continue
        if len(traced) == 2:
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] != "s"} for r in traced]
            differ = sorted(k for k in counts[0]
                            if counts[0][k] != counts[1].get(k))
            report(f"repeat {name}", [f"{k}: {counts[0][k]} vs "
                                      f"{counts[1][k]}" for k in differ])

    write_corrupted()
    for name in NAMES:
        try:
            result = run_smoke(name, 1, 0, "--expected", str(CORRUPT_DIR),
                               code=1)
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            report(f"corrupt {name}", [str(exc)])
            continue
        problems = []
        if result["correct"] is not False:
            problems.append(f"correct={result['correct']}")
        if result["failed"] != result["attempted"]:
            problems.append(f"{result['failed']} of {result['attempted']} "
                            f"corrupted queries counted as failed")
        report(f"corrupt {name}", problems)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
