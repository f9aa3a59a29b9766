"""clusterfold benchmark: time-to-verdict of fixed verification workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``workloads.py``.  Each pass of a workload runs in a
fresh process (``worker.py``), one task at a time (closed loop, one client).
Passes repeat until the next one would overrun ``--seconds``; at least three
always run.  The seed changes only the random words of commutation-words,
and every pass of a run verifies the same words.

Each pass times every task and its set-up.  Every time is given at reference
speed: the speed probe of ``probe.py`` samples how much other tenants of a
shared host slow the pass down, and a time is scaled to the speed at which
the probe takes ``probe.NOMINAL_S``.  A task's time is then its median over
the run's passes.
``--trace 0`` runs untraced passes and reports the end-to-end metrics:
``wall_s``, the sum of the task times; the median ``setup_s`` and
``peak_rss_mib`` of the pass processes; and ``verdict_p50_ms``/
``verdict_p95_ms`` over the task times of the verdict tasks (the
``verify_commutation`` words on commutation-words, every task on the other
workloads).  The run record keeps the same figures before scaling.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``tracer.py`` (medians over traced passes) with
``trace.overhead_ratio`` = traced / untraced ``wall_s``.

The last line of output is the result JSON; the line before it records the
environment.  Run records and spans go to ``.bench_out/`` in the checkout.
A task with a wrong answer makes ``correct`` false and counts in ``failed``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run must end well within 180 s
MIN_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
}


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]).strip() or "unknown"
    return head or "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": _read("/proc/loadavg").strip(),
        "seed": seed,
    }


class Runner:
    """Runs worker processes for one workload and keeps the time budget."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.monotonic()
        self.longest = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, mode: str, spans: Path | None = None) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode]
        if spans:
            argv += ["--spans", str(spans)]
        began = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        self.longest = max(self.longest, time.monotonic() - began)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def more(self, done: int, minimum: int) -> bool:
        return done < minimum or self.elapsed() + self.longest <= self.seconds


def reference_times(passes: list[dict]) -> tuple[list[list[float]], list[float]]:
    """Task and set-up times of every pass at the speed where the probe takes NOMINAL_S.

    A time is scaled by the mean of NOMINAL_S / probe over the probes taken
    during it (``probe.Probe.since``), or over its pass where there was none.
    """
    tasks, setups = [], []
    for p in passes:
        pass_speed = 1 / statistics.harmonic_mean(p["probe_s"])

        def scale(seconds, speed):
            return seconds * probe.NOMINAL_S * (pass_speed if speed is None else speed)

        tasks.append([scale(t, v) for t, v in zip(p["task_s"], p["task_speed"])])
        setups.append(scale(p["setup_s"], p["setup_speed"]))
    return tasks, setups


def task_medians(task_s: list[list[float]]) -> list[float]:
    """Each task's median time over the passes (every pass runs the same task list)."""
    return [statistics.median(times) for times in zip(*task_s)]


def end_to_end(passes: list[dict], task_s: list[list[float]], setups: list[float]) -> dict:
    times = task_medians(task_s)
    marked = passes[0]["verdicts"]
    verdicts_ms = [s * 1e3 for s, verdict in zip(times, marked) if verdict or not any(marked)]
    return {
        "wall_s": sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "verdict_p50_ms": quantile(verdicts_ms, 0.50),
        "verdict_p95_ms": quantile(verdicts_ms, 0.95),
    }


def measure(runner: Runner) -> tuple[dict, list[dict], dict]:
    passes = []
    while runner.more(len(passes), MIN_PASSES):
        passes.append(runner.worker("plain"))
    metrics = end_to_end(passes, *reference_times(passes))
    raw = end_to_end(passes, [p["task_s"] for p in passes], [p["setup_s"] for p in passes])
    return ({name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()},
            passes, {"unscaled": raw})


def measure_traced(runner: Runner) -> tuple[dict, list[dict], dict]:
    import tracer

    passes = {"plain": [], "traced": []}
    modes = itertools.cycle(["plain", "traced"])
    while runner.more(len(passes["plain"]) + len(passes["traced"]), 2 * MIN_PASSES):
        mode = next(modes)
        spans = OUT / f"spans-{runner.workload}-seed{runner.seed}-{len(passes[mode])}.json"
        passes[mode].append(runner.worker(mode, spans if mode == "traced" else None))
    traced = passes["traced"]
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    task_s, _ = reference_times(passes["plain"] + traced)
    plain = len(passes["plain"])
    values["trace.overhead_ratio"] = sum(task_medians(task_s[plain:])) / sum(task_medians(task_s[:plain]))
    units = tracer.metric_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, passes["plain"] + traced, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not (ROOT / "src" / "clusterfold" / "__init__.py").is_file():
        print(f"error: no clusterfold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        metrics, passes, extra = (measure_traced if args.trace else measure)(runner)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = _read("/proc/loadavg").strip()
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": sum(p["tasks"] for p in passes),
        "failed": failed,
        "metrics": metrics,
    }
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "passes": [{k: v for k, v in p.items() if k not in ("task_s", "task_speed", "verdicts", "probe_s")}
                         for p in passes],
              "probe": {"fastest_ms": min(min(p["probe_s"]) for p in passes) * 1e3,
                        "pass_slowdowns": [statistics.harmonic_mean(p["probe_s"]) / probe.NOMINAL_S
                                           for p in passes]},
              **extra, "result": result}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
