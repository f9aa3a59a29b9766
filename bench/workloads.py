"""The benchmark workloads: fixed verification tasks against the public clusterfold API.

Each workload function runs the set-up of one pass (building catalog pairs and
generating seeded words) and returns its tasks; every pass of a run gets the
same tasks, so a task's median over the passes compares like with like.  A
task is an in-process
``clusterfold.cli.main(argv)`` call with its output captured, or a direct
library call; it returns an observed dict that ``check`` compares with the
known answer stored in ``answers.json``.  Library names are looked up at call
time, so the traced run sees the calls through its wrappers.

Why these workloads:

- matrix-classes: matrix mutation and the mutation-class BFS, with no Laurent
  arithmetic at all.
- seed-enumeration: exact Laurent multiply and divide over medium and large
  polynomials with heavy reuse (seed BFS with deduplication).
- commutation-words: many short computations from the initial seed with tiny
  polynomials and no deduplication, building a folding pair at every step;
  the only workload where folding and roots do real work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random

MONOTONICITY_PAIRS = (
    ("A5toC3", None, 50_000),
    ("D4toB3", None, 50_000),
    ("D4toG2", None, 50_000),
    ("squaretoK2", None, 50_000),
    ("D4t-A1t2", None, 50_000),
    ("D4t-G2t1", None, 50_000),
    ("D4t-A1t2-c4", None, 50_000),
    ("AtoC", 2, 50_000),
    ("At-Bt", 2, 50_000),
    ("Dt-Ct", 2, 50_000),
    ("Dt-CDt", 3, 50_000),
    # ambient class stops at the limit: the lower-bound path
    ("E6t-F4t1", None, 2_000),
)
STABLE_PAIRS = ("A3toB2", "A5toC3", "D4toG2", "E6toF4", "D4t-A1t2", "D4t-G2t1")
ORBIT_WORD_DEPTH = 4
# 200 seeded words per pair, 20 of each length 1..10: the seed picks the letters,
# not the length mix, so the latency tail does not hang on how many long words
# one seed happened to draw.
RANDOM_WORD_LENGTHS = range(1, 11)
RANDOM_WORDS_PER_LENGTH = 20
AFFINE_ENUMERATION = ("D4t-A1t2", 450)


class Task:
    """One verification: ``run()`` returns the observed dict checked against ``answer``.

    ``latency`` marks the tasks whose durations make up the verdict-latency
    percentiles of the workload; where no task is marked, a verdict is a pass.
    """

    __slots__ = ("name", "answer", "run", "latency")

    def __init__(self, name: str, run, answer: str | None = None, latency: bool = False):
        self.name = name
        self.answer = answer or name
        self.run = run
        self.latency = latency


def _cli_task(cf, argv: str) -> Task:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cf.cli.main(argv.split())
        lines = out.getvalue().splitlines()
        report = {}
        for line in lines:
            key, _, value = line.partition(": ")
            report.setdefault(key, value)
        rendered = [line.partition(": ")[2] for line in lines if line.startswith("var: ")]
        return {
            "exit": code,
            "stdout": lines,
            "report": report,
            "positive": all(not p.startswith("-") and " - " not in p for p in rendered),
        }

    return Task(argv, run)


def matrix_classes(cf, seed: int) -> list[Task]:
    tasks = [_cli_task(cf, "verify affine-finiteness --max-rank 4 --limit 50000")]
    for name, rank, limit in MONOTONICITY_PAIRS:
        pair = cf.catalog.folding_pair(name, rank).pair

        def run(pair=pair, limit=limit):
            report = cf.explorer.verify_monotonicity_chain(pair, limit)
            return {
                "quotient": report.quotient_size,
                "orbit": report.orbit_size,
                "ambient": report.ambient_size,
                "complete": report.ambient_complete,
                "holds": report.holds,
            }

        label = name if rank is None else f"{name}({rank})"
        tasks.append(Task(f"monotonicity {label} limit={limit}", run))
    return tasks


def seed_enumeration(cf, seed: int) -> list[Task]:
    name, max_seeds = AFFINE_ENUMERATION
    matrix = cf.catalog.folding_pair(name).pair.matrix

    def affine():
        result = cf.seeds.enumerate_cluster_variables(matrix, max_seeds=max_seeds)
        return {
            "variables": result.variable_count,
            "clusters": result.cluster_count,
            "complete": result.complete,
            "max_terms": max(len(p.terms) for p in result.variables),
            "positive": all(p.is_positive() for p in result.variables),
        }

    return [
        _cli_task(cf, "verify finite-type-equality --pair A5toC3"),
        _cli_task(cf, "verify finite-type-equality --pair D4toG2"),
        _cli_task(cf, "enumerate --pair A5toC3"),
        _cli_task(cf, "verify denominators --pair A5toC3"),
        _cli_task(cf, "verify denominators --pair D4toG2"),
        Task(f"enumerate {name} ambient max_seeds={max_seeds}", affine),
    ]


def orbit_words(orbit_count: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Every orbit word up to ORBIT_WORD_DEPTH, then the seeded random words."""
    words = [w for length in range(ORBIT_WORD_DEPTH + 1)
             for w in itertools.product(range(orbit_count), repeat=length)]
    for length in RANDOM_WORD_LENGTHS:
        for _ in range(RANDOM_WORDS_PER_LENGTH):
            words.append(tuple(rng.randrange(orbit_count) for _ in range(length)))
    return words


def commutation_words(cf, seed: int) -> list[Task]:
    rng = random.Random(seed)
    tasks = []
    for name in STABLE_PAIRS:
        pair = cf.catalog.folding_pair(name).pair

        def stability(pair=pair):
            verdict = cf.folding.check_stability(pair)
            return {"status": verdict.status, "class_size": verdict.class_size,
                    "orbits": pair.orbit_count}

        tasks.append(Task(f"stability {name}", stability))
        for word in orbit_words(pair.orbit_count, rng):
            def commute(pair=pair, word=word):
                return {"ok": cf.folding.verify_commutation(pair, word).ok}

            tasks.append(Task(f"words {name}", commute, answer="commutation word", latency=True))
    for argv in (
        "verify counterexamples",
        "verify commutation --pair remark-stabilite",
        "fold --pair E6toF4",
        "fold --pair D4toG2",
        "verify roots --pair E6toF4",
        "verify roots --pair A5toC3",
        "verify fibers --pair E6toF4",
        "verify fibers --pair A5toC3",
    ):
        tasks.append(_cli_task(cf, argv))
    return tasks


WORKLOADS = {
    "matrix-classes": matrix_classes,
    "seed-enumeration": seed_enumeration,
    "commutation-words": commutation_words,
}


def expected(answer: dict) -> dict:
    """The merged known answer: facts fixed by theory and facts pinned at the seed commit."""
    return {**answer.get("theory", {}), **answer.get("seed", {})}


def check(observed: dict, answer: dict) -> list[str]:
    """Differences between an observed dict and its known answer.

    A key ``<k>_min`` asks for ``observed[k] >= value``; a dict value asks for
    those keys of the observed dict; ``enumerations`` is seen only when traced.
    """
    problems = []
    for key, want in expected(answer).items():
        if key == "enumerations" and key not in observed:
            continue
        if key.endswith("_min"):
            got = observed.get(key[:-4])
            ok = got is not None and got >= want
        elif isinstance(want, dict):
            got = {k: observed.get(key, {}).get(k) for k in want}
            ok = got == want
        else:
            got = observed.get(key)
            ok = got == want
        if not ok:
            problems.append(f"{key}: expected {_short(want)}, got {_short(got)}")
    return problems


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."
