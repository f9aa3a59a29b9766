"""Command-line front end.

Exit codes: 0 verified/success, 1 a verification found a witness,
2 usage or input error, 3 a limit was exceeded or an entry overflowed.
``--expect-fail`` swaps 0 and 1 so expected counterexamples read as
green in CI.
Reports are plain ``key: value`` lines; ``--json`` mirrors the same
data as a JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from . import catalog, explorer, io, roots
from .exchange import ExchangeMatrix, cartan_counterpart, classify, to_dot, to_valued_graph
from .folding import (
    FoldingPair,
    NotAdmissibleError,
    PermutationGroup,
    check_stability,
    orbit_mutate_word,
    quotient_matrix,
    quotient_symmetrizer,
    verify_commutation,
)
from .seeds import LimitExceededError, apply_mutation_word, enumerate_cluster_variables, initial_seed

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

# Figure-2-style affine diagram names checked by `verify affine-finiteness`,
# restricted to the requested rank window at run time.
_AFFINE_NAMES = (
    ["~A1", "~A1(2)", "~F4(1)", "~F4(2)", "~G2(1)", "~G2(2)"]
    + [f"~B{n}" for n in range(2, 6)]
    + [f"~C{n}" for n in range(2, 6)]
    + [f"~BC{n}" for n in range(2, 6)]
    + [f"~BD{n}" for n in range(2, 5)]
    + [f"~CD{n}" for n in range(3, 6)]
)

_INDEFINITE_CONTROL = ((0, 2, 0), (-2, 0, 2), (0, -2, 0))


class _Report:
    """Accumulates key/value lines; printed as text or JSON."""

    def __init__(self):
        self.items: list[tuple[str, str]] = []

    def add(self, key, value):
        self.items.append((str(key), str(value)))

    def emit(self, as_json: bool):
        if as_json:
            data: dict[str, object] = {}
            for key, value in self.items:
                if key in data:
                    existing = data[key]
                    if isinstance(existing, list):
                        existing.append(value)
                    else:
                        data[key] = [existing, value]
                else:
                    data[key] = value
            print(json.dumps(data, indent=2))
        else:
            for key, value in self.items:
                print(f"{key}: {value}")


def _matrix_lines(report: _Report, matrix: ExchangeMatrix, prefix: str = "matrix"):
    for i, row in enumerate(matrix.entries):
        report.add(f"{prefix} {i + 1}", " ".join(str(x) for x in row))


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_generators(spec: str, n: int):
    """Inline generators like '(1 3)' or '(1 2)(3 4); (5 6)'."""
    return [io.parse_permutation(part, n) for part in spec.split(";") if part.strip()]


def _load_pair(args) -> FoldingPair:
    if getattr(args, "pair", None):
        entry = catalog.folding_pair(args.pair, getattr(args, "rank", None))
        return entry.pair
    if not getattr(args, "matrix", None):
        raise ValueError("need --pair or --matrix")
    matrix, generators = io.parse_matrix_text(_read_text(args.matrix))
    if getattr(args, "group", None):
        generators = _parse_generators(args.group, matrix.n)
    if not generators:
        raise ValueError("need a group: use --group or 'group:' lines in the matrix file")
    return FoldingPair(matrix, PermutationGroup(matrix.n, generators))


def _load_matrix(args) -> ExchangeMatrix:
    if getattr(args, "pair", None):
        entry = catalog.folding_pair(args.pair, getattr(args, "rank", None))
        return entry.pair.matrix
    if not getattr(args, "matrix", None):
        raise ValueError("need --matrix or --pair")
    matrix, _ = io.parse_matrix_text(_read_text(args.matrix))
    return matrix


def _parse_word(text: str):
    return tuple(int(tok) - 1 for tok in text.replace(",", " ").split())


def _write_file(path: str, content: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


# ---------------------------------------------------------------------------
# commands


def _cmd_mutate(args, report: _Report) -> int:
    matrix = _load_matrix(args)
    word = _parse_word(args.word) if args.word else ()
    for k in word:
        if not 0 <= k < matrix.n:
            raise ValueError(f"vertex {k + 1} out of range")
    seed = apply_mutation_word(initial_seed(matrix), word)
    report.add("word", " ".join(str(k + 1) for k in word) or "(empty)")
    _matrix_lines(report, seed.matrix)
    for i, poly in enumerate(seed.cluster):
        report.add(f"var {i + 1}", poly.render())
    return EXIT_OK


def _cmd_fold(args, report: _Report) -> int:
    pair = _load_pair(args)
    # before the first line, so that an error (the group-order cap) is reported alone
    symmetrizer = quotient_symmetrizer(pair) if pair.admissible else None
    report.add("orbits", " ".join(
        "{" + " ".join(str(v + 1) for v in orbit) + "}" for orbit in pair.orbits
    ))
    if not pair.admissible:
        report.add("admissible", "no")
        report.add("witness", " -> ".join(str(v + 1) for v in pair._witness))
        return EXIT_WITNESS
    report.add("admissible", "yes")
    quotient = quotient_matrix(pair)
    _matrix_lines(report, quotient, "quotient")
    report.add("symmetrizer", " ".join(str(x) for x in symmetrizer))
    kind = classify(cartan_counterpart(quotient))
    report.add("type", kind.tag + (f" {kind.name}" if kind.name else ""))
    if args.emit_dot:
        _write_file(args.emit_dot, to_dot(to_valued_graph(quotient)))
        report.add("dot", args.emit_dot)
    return EXIT_OK


def _cmd_orbit_mutate(args, report: _Report) -> int:
    pair = _load_pair(args)
    word = _parse_word(args.word) if args.word else ()
    try:
        seed, _ = orbit_mutate_word(pair, initial_seed(pair.matrix), word)
    except NotAdmissibleError as exc:
        report.add("status", "not-admissible")
        report.add("witness", " -> ".join(str(v + 1) for v in exc.witness))
        return EXIT_WITNESS
    report.add("word", " ".join(str(i + 1) for i in word) or "(empty)")
    _matrix_lines(report, seed.matrix)
    for i, poly in enumerate(seed.cluster):
        report.add(f"var {i + 1}", poly.render())
    return EXIT_OK


def _cmd_enumerate(args, report: _Report) -> int:
    matrix = _load_matrix(args)
    result = enumerate_cluster_variables(matrix, max_seeds=args.limit)
    if not result.complete:
        report.add("status", "limit-exceeded")
        report.add("seeds", result.cluster_count)
        return EXIT_LIMIT
    report.add("variables", result.variable_count)
    report.add("clusters", result.cluster_count)
    for rendered in sorted(poly.render() for poly in result.variables):
        report.add("var", rendered)
    if args.emit_dot:
        _write_file(args.emit_dot, result.to_dot())
        report.add("dot", args.emit_dot)
    return EXIT_OK


def _cmd_explore(args, report: _Report) -> int:
    matrix = _load_matrix(args)
    outcome = explorer.mutation_class(matrix, args.limit)
    report.add("verdict", outcome.verdict)
    report.add("size", outcome.size)
    if outcome.verdict == "limit-exceeded":
        return EXIT_LIMIT
    return EXIT_OK if outcome.finite else EXIT_WITNESS


def _cmd_catalog(args, report: _Report) -> int:
    if args.action == "list":
        for name in catalog.list_names():
            report.add("entry", name)
        return EXIT_OK
    entry = catalog.folding_pair(args.name, args.rank)
    report.add("name", entry.name)
    report.add("ambient", io.render_matrix_text(
        entry.pair.matrix, entry.pair.group.generators).rstrip("\n").replace("\n", " / "))
    report.add("admissible", "yes" if entry.pair.admissible else "no")
    if entry.pair.admissible:
        quotient = quotient_matrix(entry.pair)
        _matrix_lines(report, quotient, "quotient")
        kind = classify(cartan_counterpart(quotient))
        report.add("type", kind.tag + (f" {kind.name}" if kind.name else ""))
    if entry.expected_quotient_name:
        report.add("expected", entry.expected_quotient_name)
    if entry.note:
        report.add("note", entry.note)
    return EXIT_OK


def _orbit_words(count: int, max_length: int):
    for length in range(max_length + 1):
        yield from itertools.product(range(count), repeat=length)


def _random_words(count: int, orbit_count: int):
    rng = random.Random(0)
    for _ in range(count):
        yield tuple(rng.randrange(orbit_count) for _ in range(rng.randint(1, 10)))


def _report_stability(report: _Report, pair: FoldingPair, limit: int, expect_stable: bool):
    """Report check_stability's verdict; an exit code unless it is the expected one."""
    verdict = check_stability(pair, max_nodes=limit)
    report.add("stability", verdict.status)
    if verdict.status in ("limit-exceeded", "overflow"):
        report.add("class size", verdict.class_size)
        return EXIT_LIMIT
    if not verdict.stable:
        report.add("witness word", " ".join(str(i + 1) for i in verdict.witness_word))
        report.add("witness path", " -> ".join(str(v + 1) for v in verdict.witness_path))
    if verdict.stable == expect_stable:
        return None
    if verdict.stable:
        report.add("status", "counterexample-not-reproduced")
    return EXIT_WITNESS


def _verify_commutation(args, report: _Report) -> int:
    pair = _load_pair(args)
    code = _report_stability(report, pair, args.limit, expect_stable=True)
    if code is not None:
        return code
    checked = 0
    words = itertools.chain(_orbit_words(pair.orbit_count, args.depth),
                            _random_words(args.random_words, pair.orbit_count))
    for word in words:
        checked += 1
        if not verify_commutation(pair, word).ok:
            report.add("status", "mismatch")
            report.add("word", " ".join(str(i + 1) for i in word))
            return EXIT_WITNESS
    report.add("status", "verified")
    report.add("words", checked)
    return EXIT_OK


def _verify_root_lemma(args, report: _Report) -> int:
    """``verify roots`` (root projection) and ``verify fibers`` (fiber orbits)."""
    check = roots.verify_root_projection if args.target == "roots" else roots.verify_fiber_orbits
    ok, witness = check(_load_pair(args))
    report.add("status", "verified" if ok else "mismatch")
    if not ok:
        report.add("witness", witness)
    return EXIT_OK if ok else EXIT_WITNESS


def _verify_denominators(args, report: _Report) -> int:
    matrix = _load_matrix(args)
    ok, detail = roots.verify_denominator_bijection(matrix, max_seeds=args.limit)
    report.add("status", "verified" if ok else "mismatch")
    if detail:
        report.add("detail", detail)
    if not ok and detail == "enumeration did not close within the limit":
        return EXIT_LIMIT
    return EXIT_OK if ok else EXIT_WITNESS


def _is_acyclic(b) -> bool:
    """No directed cycle of arrows i -> j (b_ij > 0): peeling off sources empties the quiver."""
    left = set(range(len(b)))
    while sources := {j for j in left if all(b[i][j] <= 0 for i in left)}:
        left -= sources
    return not left


def _verify_finite_type_equality(args, report: _Report) -> int:
    pair = _load_pair(args)
    for side, matrix in (("ambient", pair.matrix), ("quotient", quotient_matrix(pair))):
        tag = classify(cartan_counterpart(matrix), name_diagram=False).tag
        if tag != "Finite" and _is_acyclic(matrix.entries):  # Fomin-Zelevinsky criterion
            raise ValueError(f"{side} matrix is acyclic and its Cartan counterpart is {tag}, "
                             "so it is not of finite type")
    ambient = enumerate_cluster_variables(pair.matrix, max_seeds=args.limit)
    quotient = enumerate_cluster_variables(quotient_matrix(pair), max_seeds=args.limit)
    if not ambient.complete or not quotient.complete:
        report.add("status", "limit-exceeded")
        return EXIT_LIMIT
    projected = {poly.project(pair.orbits) for poly in ambient.variables}
    quotient_set = set(quotient.variables)
    report.add("ambient variables", ambient.variable_count)
    report.add("quotient variables", quotient.variable_count)
    report.add("projected variables", len(projected))
    if projected == quotient_set:
        report.add("status", "verified")
        return EXIT_OK
    report.add("status", "mismatch")
    for poly in sorted(p.render() for p in projected ^ quotient_set)[:3]:
        report.add("witness", poly)
    return EXIT_WITNESS


def _verify_affine_finiteness(args, report: _Report) -> int:
    for name in _AFFINE_NAMES:
        matrix = catalog.affine(name)
        if matrix.n > args.max_rank:
            continue
        outcome = explorer.is_mutation_finite(matrix, args.limit)
        report.add(name, f"{outcome.verdict} size={outcome.size}")
        if not outcome.finite:
            report.add("status", "not-finite")
            return EXIT_WITNESS
    control = explorer.is_mutation_finite(ExchangeMatrix(_INDEFINITE_CONTROL), args.limit)
    report.add("indefinite control", f"{control.verdict} size={control.size}")
    if control.finite:
        report.add("status", "control-unexpectedly-finite")
        return EXIT_WITNESS
    report.add("status", "verified")
    return EXIT_OK


def _verify_counterexamples(args, report: _Report) -> int:
    if args.case != "remark-stabilite":
        raise ValueError(f"unknown counterexample case {args.case!r}")
    pair = catalog.folding_pair("remark-stabilite").pair
    code = _report_stability(report, pair, args.limit, expect_stable=False)
    if code is not None:
        return code
    outcome = verify_commutation(pair, (1, 0), require_stable=False)
    report.add("commutation word", "2 1")
    report.add("commutation", "mismatch" if not outcome.ok else "agreement")
    for i, poly in enumerate(outcome.projected_side.cluster):
        report.add(f"projected var {i + 1}", poly.render())
    for i, poly in enumerate(outcome.quotient_side.cluster):
        report.add(f"quotient var {i + 1}", poly.render())
    if outcome.ok:
        report.add("status", "counterexample-not-reproduced")
        return EXIT_WITNESS
    report.add("status", "verified")
    return EXIT_OK


_VERIFY_TARGETS = {
    "commutation": _verify_commutation,
    "roots": _verify_root_lemma,
    "fibers": _verify_root_lemma,
    "denominators": _verify_denominators,
    "finite-type-equality": _verify_finite_type_equality,
    "affine-finiteness": _verify_affine_finiteness,
    "counterexamples": _verify_counterexamples,
}


def _cmd_verify(args, report: _Report) -> int:
    return _VERIFY_TARGETS[args.target](args, report)


# ---------------------------------------------------------------------------
# parser


def _add_common(parser, matrix=True, group=False, pair=True, word=False, dot=False):
    if matrix:
        parser.add_argument("--matrix", help="matrix file (see io module format)")
    if group:
        parser.add_argument("--group", help="inline generators, e.g. '(1 3)' or '(1 2); (3 4)'")
    if pair:
        parser.add_argument("--pair", help="catalog folding-pair name")
        parser.add_argument("--rank", type=int, help="rank parameter for parametric entries")
    if word:
        parser.add_argument("--word", help="1-based mutation word, e.g. '1 2 1'")
    parser.add_argument("--limit", type=int, default=100_000, help="node/seed limit")
    parser.add_argument("--depth", type=int, default=4, help="word depth where applicable")
    if dot:
        parser.add_argument("--emit-dot", help="write a DOT rendering to this file")
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--expect-fail", action="store_true",
                        help="swap exit codes 0 and 1 (expected counterexamples)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluster-fold",
        description="Exact cluster-algebra mutation, folding and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="mutate the initial seed along a word")
    _add_common(p, word=True)
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("fold", help="quotient matrix of a folding pair")
    _add_common(p, group=True, dot=True)
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("orbit-mutate", help="orbit-mutate the initial seed")
    _add_common(p, group=True, word=True)
    p.set_defaults(func=_cmd_orbit_mutate)

    p = sub.add_parser("enumerate", help="enumerate all cluster variables")
    _add_common(p, dot=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("explore", help="matrix mutation-class BFS")
    _add_common(p)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("verify", help="run a verification target")
    p.add_argument("target", choices=sorted(_VERIFY_TARGETS))
    p.add_argument("--case", default="remark-stabilite", help="counterexample case name")
    p.add_argument("--random-words", type=int, default=200,
                   help="extra random words for commutation checks")
    p.add_argument("--max-rank", type=int, default=6,
                   help="largest rank for affine-finiteness sweeps")
    _add_common(p, group=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="list or show catalog entries")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="entry name for 'show'")
    p.add_argument("--rank", type=int, help="rank parameter for parametric entries")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect-fail", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    report = _Report()
    try:
        if args.command == "catalog" and args.action == "show" and not args.name:
            raise ValueError("catalog show needs an entry name")
        code = args.func(args, report)
    except LimitExceededError as exc:
        report.add("error", str(exc))
        report.emit(args.json)
        return EXIT_LIMIT
    except (ValueError, KeyError, OSError, IndexError) as exc:
        report.add("error", str(exc))
        report.emit(args.json)
        return EXIT_USAGE
    if args.expect_fail and code in (EXIT_OK, EXIT_WITNESS):
        code = EXIT_WITNESS - code  # swap 0 and 1
    report.add("exit", code)
    report.emit(args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
