"""One benchmark pass in a fresh process: set-up, then every task of a workload.

Run by ``run.py``; prints one JSON object as its last line of output::

    python3 bench/worker.py --workload NAME --seed N --mode plain|traced

``plain`` runs the tasks untraced; ``traced`` installs the span wrappers of
``tracer.py`` first and writes the spans to ``--spans``.  Set-up time runs
from just before ``import clusterfold`` to the first task.  ``task_s`` gives
the time of every task in order, and ``verdicts`` marks the tasks whose
times are verdict latencies.  The speed probe of ``probe.py`` runs
throughout: its own time is taken out of every time, ``task_speed`` and
``setup_speed`` give the mean 1 / probe time during each (null if no probe
ran), and ``probe_s`` lists every probe time.  A task that raises, passes
its deadline or gives a wrong answer is counted as failed; it never stops
the pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

import workloads
from probe import Probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TASK_DEADLINE_S = 60.0
MAX_REPORTED_FAILURES = 20


class TaskDeadline(Exception):
    """A task ran past TASK_DEADLINE_S."""


def _on_alarm(signum, frame):
    raise TaskDeadline(f"task passed its {TASK_DEADLINE_S:g} s deadline")


def import_clusterfold():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import clusterfold
    import clusterfold.cli  # noqa: F401  (not imported by the package itself)

    if Path(clusterfold.__file__).resolve().parent != SRC / "clusterfold":
        raise ImportError(f"clusterfold was imported from {clusterfold.__file__}, not {SRC}")
    return clusterfold


def run_tasks(tasks, answers: dict, tracer=None, probe: Probe | None = None) -> dict:
    """Run tasks one at a time; returns wall time, per-task times and failures."""
    signal.signal(signal.SIGALRM, _on_alarm)
    task_s, task_speed, failures = [], [], []
    first = time.perf_counter()
    for task in tasks:
        if tracer:
            tracer.begin(task.name)
        mark = probe.mark() if probe else 0
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TASK_DEADLINE_S)
        try:
            observed = task.run()
        except Exception as exc:  # a raising task is a failed task, not a failed run
            observed, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        spent, speed = probe.since(mark) if probe else (0.0, None)
        if tracer:
            tracer.end()
            if observed is not None and task.name in tracer.enumerations:
                observed["enumerations"] = tracer.enumerations[task.name]
        if observed is not None:
            problems = workloads.check(observed, answers[task.answer])
            error = "; ".join(problems) if problems else None
        task_s.append(elapsed - spent)
        task_speed.append(speed)
        if error:
            failures.append(f"{task.name}: {error}")
    return {
        "wall_s": time.perf_counter() - first,
        "tasks": len(tasks),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "task_s": task_s,
        "task_speed": task_speed,
        "verdicts": [task.latency for task in tasks],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["plain", "traced"])
    parser.add_argument("--spans", help="where a traced pass writes its spans")
    args = parser.parse_args(argv)
    answers = json.loads((HERE / "answers.json").read_text(encoding="utf-8"))[args.workload]

    probe = Probe()
    probe.start()
    start = time.perf_counter()
    cf = import_clusterfold()
    tracer = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(cf)
        tracer.begin("setup")
    tasks = workloads.WORKLOADS[args.workload](cf, args.seed)
    if tracer:
        tracer.end()
    setup_s = time.perf_counter() - start
    spent, speed = probe.since(0)
    result = {"setup_s": setup_s - spent, "setup_speed": speed}
    result.update(run_tasks(tasks, answers, tracer, probe))
    probe.stop()
    result["probe_s"] = probe.samples
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.dump(args.spans)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
