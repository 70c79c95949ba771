"""Census benchmark: run one workload untraced or traced and report it.

From the repository root:

    python3 censusbench/run.py --workload catalog --seed 1 --seconds 28 \
        --trace 0
    python3 censusbench/run.py --workload ladder --seed 1 --seconds 28 \
        --trace 1

The run repeats whole passes over the workload's queries for about
``--seconds`` seconds (at least one pass) and checks every output
against the answers frozen in ``censusbench/expected``.  The seed
shuffles the query order of each pass.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median of several fresh processes timed from start to the
first query) and ``peak_rss_mib``, all times scaled to a reference host
speed.  ``--trace 1`` runs one untraced pass, then traced passes, and
reports the per-layer metrics of ``tracer.py`` plus the tracing
overhead, all times raw.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result, stamped with the environment (and the
spans, when traced), goes to ``censusbench/out/``.

Exit codes: 0 all outputs correct, 1 some query failed or traced work
counts did not repeat, 2 the rmfchi sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
NAMES = ("catalog", "ladder", "oracle", "cells")

# Fresh processes timed for setup_s.
SETUP_PROBES = 9

# The speed of a shared host drifts by up to 2x for tens of seconds at
# a time, and process CPU time drifts with it.  While an untraced run
# measures passes, a timer signal every SAMPLE_PERIOD_S interrupts it
# to time a fixed pure-Python kernel that takes about REFERENCE_S on a
# quiet 2-CPU host under Python 3.11.  A pass is reported net of the
# kernel runs inside it and scaled by REFERENCE_S / (mean kernel
# seconds in it): seconds at the reference speed, so that runs made in
# a slow spell and in a fast one agree.  The kernel does not call
# rmfchi, so a change to the program moves scaled times as it moves raw
# ones.  Raw times go to the result file.  A set-up probe samples the
# kernel in the probe process itself, every PROBE_SAMPLE_PERIOD_S from
# the start of its main(), and reports the samples with its "ready"
# line; the probe's time is scaled the same way by the parent.  Kernel
# runs made in the parent, before or during a probe, did not track the
# probe's speed.  Traced runs do not sample: span times are raw, and so
# are the pass times they are shares of.
KERNEL_ROUNDS = 3_000
REFERENCE_S = 0.00075
SAMPLE_PERIOD_S = 0.1
PROBE_SAMPLE_PERIOD_S = 0.01


def kernel_s() -> float:
    """Seconds the fixed kernel takes now."""
    start = perf_counter()
    seen: dict = {}
    for i in range(KERNEL_ROUNDS):
        key = (i % 7, i % 5, i % 3)
        seen[key] = seen.get(key, 0) + 1
    return perf_counter() - start


class HostSpeed:
    """Times the kernel on a timer signal between start and stop."""

    def __init__(self, period: float = SAMPLE_PERIOD_S):
        self.period = period
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(kernel_s())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def net(self, raw: float, first: int, last: int | None) -> float:
        """Seconds of an interval minus its samples[first:last]."""
        return raw - sum(self.samples[first:last])

    def factor(self, first: int, last: int | None) -> float:
        """REFERENCE_S over the mean of samples[first:last]."""
        taken = self.samples[first:last] or self.samples or [REFERENCE_S]
        return REFERENCE_S / statistics.fmean(taken)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--expected", type=Path,
                        default=BENCH_DIR / "expected",
                        help="directory of the frozen answers")
    parser.add_argument("--probe", action="store_true",
                        help="exit right before the first query; used to "
                             "time set-up")
    return parser.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
    }


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Raw and scaled seconds from spawning a fresh run to its first query.

    One more probe runs first, untimed, so that every timed one finds
    the bytecode cache warm.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0",
           "--expected", str(args.expected), "--probe"]
    if args.smoke:
        cmd.append("--smoke")
    raw, scaled = [], []
    for probe in range(SETUP_PROBES + 1):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            try:
                _, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        word, _, samples = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed "
                               f"({proc.returncode}): {err.strip()}")
        if probe:
            speed = HostSpeed()
            speed.samples = json.loads(samples)
            raw.append(elapsed)
            scaled.append(speed.net(elapsed, 0, None)
                          * speed.factor(0, None))
    return raw, scaled


def main(argv=None) -> int:
    args = parse_args(argv)
    probe_speed = HostSpeed(PROBE_SAMPLE_PERIOD_S)
    if args.probe:
        probe_speed.start()
    if not (SRC / "rmfchi" / "__init__.py").is_file():
        print(f"error: no rmfchi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rmfchi
    if Path(rmfchi.__file__).resolve().parent != SRC / "rmfchi":
        print(f"error: imported rmfchi from {rmfchi.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.load(args.workload, smoke=args.smoke,
                              expected_dir=args.expected)
    if args.probe:
        probe_speed.stop()
        print("ready " + json.dumps(probe_speed.samples), flush=True)
        return 0

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    rng = random.Random(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    failures: list[str] = []
    # Per pass, by traced: (raw seconds, scaled seconds).  Traced runs
    # do not sample the kernel, so their two figures are equal.
    passes: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    query_s: list[dict] = []
    per_pass: list[dict] = []
    span_rows: list = []

    def one_pass(traced: bool) -> None:
        order = list(workload.queries)
        rng.shuffle(order)
        if traced:
            tracer.reset()
            root = tracer.open("bench.pass")
        first = len(speed.samples)
        times = {}
        for query in order:
            if traced:
                span = tracer.open("bench.query", repr(query))
            start = perf_counter()
            reason = workloads.run_query(workload, query)
            times[repr(query)] = perf_counter() - start
            if traced:
                tracer.close(span)
            if reason is not None:
                failures.append(reason)
        last = len(speed.samples)
        if traced:
            tracer.close(root)
            per_pass.append(tracer.layer_metrics())
            span_rows.extend(s.as_row(origin) for s in tracer.spans)
        raw = sum(times.values())
        passes[traced].append(
            (raw, speed.net(raw, first, last) * speed.factor(first, last)))
        query_s.append(times)

    def median(traced: bool, column: int) -> float:
        return statistics.median(p[column] for p in passes[traced])

    def budget_left(traced: bool) -> bool:
        return perf_counter() - origin + median(traced, 0) <= args.seconds

    speed = HostSpeed()
    setup_raw, setup_s = [], []
    if tracer is None:
        setup_raw, setup_s = measure_setup(args)
        with speed:
            origin = perf_counter()
            while not passes[False] or budget_left(False):
                one_pass(False)
    else:
        origin = perf_counter()
        # One untraced pass first, the baseline for the tracing overhead.
        one_pass(False)
        tracer.install()
        try:
            one_pass(True)
            while budget_left(True):
                one_pass(True)
        finally:
            tracer.uninstall()
    env["loadavg_after"] = os.getloadavg()

    problems = []
    if tracer is None:
        metrics = {
            "wall_s": (median(False, 1), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mib": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        from tracer import UNITS
        # Span times are raw, so the pass times they are shares of are
        # raw too.
        wall = median(True, 0)
        measured = {"trace.wall_s": wall,
                    "trace.overhead_s": wall - median(False, 0)}
        metrics = {}
        for name, unit in UNITS.items():
            values = ([m[name] for m in per_pass] if name in per_pass[0]
                      else [measured[name]])
            if unit != "s" and any(v != values[0] for v in values):
                problems.append(f"{name} did not repeat across traced "
                                f"passes: {values}")
            metrics[name] = (statistics.median(values) if unit == "s"
                             else values[0], unit)

    n_passes = len(passes[False]) + len(passes[True])
    attempted = len(workload.queries) * n_passes
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.smoke:
        stem += "-smoke"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "env": env,
              "reference_s": REFERENCE_S, "kernel_s": speed.samples,
              "setup_raw_s": setup_raw, "setup_scaled_s": setup_s,
              "untraced_pass_raw_scaled_s": passes[False],
              "traced_pass_raw_scaled_s": passes[True],
              "query_raw_s": query_s,
              "failures": failures, "problems": problems, **result}
    (workloads.OUT_DIR / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        (workloads.OUT_DIR / f"{stem}-spans.json").write_text(
            json.dumps({"columns": ["id", "name", "label", "start_s",
                                    "end_s", "parent", "leaves"],
                        "spans": span_rows}) + "\n", encoding="utf-8")

    print("env " + json.dumps(env))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={n_passes} queries_per_pass={len(workload.queries)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_ratio = {len(failures) / attempted:.6g} "
          f"({len(failures)} failed / {attempted} attempted queries)")
    for line in failures[:20] + problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
