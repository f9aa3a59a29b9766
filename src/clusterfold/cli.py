"""Command-line front end.

Exit codes: 0 verified/success, 1 a verification found a witness,
2 usage or input error, 3 a limit or the work bound was exceeded or an
entry overflowed.
``--expect-fail`` swaps 0 and 1 so expected counterexamples read as
green in CI.
Reports are plain ``key: value`` lines; ``--json`` mirrors the same
data as a JSON object.  When the reader closes stdout early, the rest of
the report is dropped and the exit code stays the command's own.

One table drives the parser: ``_FLAGS`` holds each flag's
``add_argument`` keywords, and ``_COMMANDS`` maps each command, and
``_VERIFY_TARGETS`` and ``_CATALOG_ACTIONS`` each ``verify`` target and
``catalog`` action, to its function, help and the flags it reads, so any
other flag is a usage error.  ``verify`` and ``catalog`` take their
target as a subcommand, with the options after it
(``verify commutation --pair E6toF4``).  ``build_parser`` builds the
parser once per process: argparse spends far longer building a parser
than parsing one argv.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from . import catalog, explorer, io, roots
from .exchange import EntryOverflowError, ExchangeMatrix, NotSkewSymmetrizableError, classify, to_dot
from .folding import (
    FoldingPair,
    NotAdmissibleError,
    PermutationGroup,
    check_commutation,
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

_INDEFINITE_CONTROL = ((0, 2, 0), (-2, 0, 2), (0, -2, 0))
WORD_CAP = 1_000_000  # the most words ``verify commutation`` checks


def _exit_code(search) -> int:
    """A search's exit code: closed 0, witness 1, stopped by a limit, the work bound or an overflow 3."""
    return {"closed": EXIT_OK, "witness": EXIT_WITNESS}.get(search.status, EXIT_LIMIT)


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
            text = json.dumps(data, indent=2)
        else:
            text = "\n".join(f"{key}: {value}" for key, value in self.items)
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader has gone; the rest and the exit-time flush go nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _matrix_lines(report: _Report, matrix: ExchangeMatrix, prefix: str = "matrix"):
    for i, row in enumerate(matrix.entries):
        report.add(f"{prefix} {i + 1}", " ".join(str(x) for x in row))


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_generators(spec: str, n: int):
    """Inline generators like '(1 3)' or '(1 2)(3 4); (5 6)'."""
    return [io.parse_permutation(part, n) for part in spec.split(";") if part.strip()]


def _catalog_pair(args) -> FoldingPair | None:
    """The catalog pair --pair names, or None; a second source or a stray --rank is an error."""
    if args.pair and args.matrix:
        raise ValueError("--pair and --matrix are two sources; give one")
    if args.rank is not None and not args.pair:
        raise ValueError("--rank applies only to --pair")
    return catalog.folding_pair(args.pair, args.rank).pair if args.pair else None


def _load_pair(args) -> FoldingPair:
    if args.pair and args.group:
        raise ValueError("--group applies only to --matrix, not to --pair")
    if (pair := _catalog_pair(args)) is not None:
        return pair
    if not args.matrix:
        raise ValueError("need --pair or --matrix")
    matrix, generators = io.parse_matrix_text(_read_text(args.matrix))
    if args.group:
        generators = _parse_generators(args.group, matrix.n)
    if not generators:
        raise ValueError("need a group: use --group or 'group:' lines in the matrix file")
    return FoldingPair(matrix, PermutationGroup(matrix.n, generators))


def _load_matrix(args) -> ExchangeMatrix:
    if (pair := _catalog_pair(args)) is not None:
        return pair.matrix
    if not args.matrix:
        raise ValueError("need --matrix or --pair")
    matrix, _ = io.parse_matrix_text(_read_text(args.matrix))
    return matrix


def _parse_word(text: str):
    return tuple(io.parse_int(tok, "word") - 1 for tok in text.replace(",", " ").split())


def _write_file(path: str, content: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)


# ---------------------------------------------------------------------------
# commands


def _cmd_mutate(args, report: _Report) -> int:
    matrix = _load_matrix(args)
    word = _parse_word(args.word) if args.word else ()
    seed = apply_mutation_word(initial_seed(matrix), word)
    report.add("word", " ".join(str(k + 1) for k in word) or "(empty)")
    _matrix_lines(report, seed.matrix)
    for i, poly in enumerate(seed.cluster):
        report.add(f"var {i + 1}", poly.render())
    return EXIT_OK


def _cmd_fold(args, report: _Report) -> int:
    pair = _load_pair(args)
    # before the first line, so that an error (the group-order cap, an unwritable
    # --emit-dot path) is reported alone
    symmetrizer = quotient_symmetrizer(pair) if pair.admissible else None
    if pair.admissible and args.emit_dot:
        labels = [str(orbit[0] + 1) for orbit in pair.orbits]  # the least member of each orbit
        _write_file(args.emit_dot, to_dot(quotient_matrix(pair), labels))
    report.add("orbits", " ".join(
        "{" + " ".join(str(v + 1) for v in orbit) + "}" for orbit in pair.orbits
    ))
    if not pair.admissible:
        report.add("admissible", "no")
        report.add("witness", " -> ".join(str(v + 1) for v in pair.witness))
        return EXIT_WITNESS
    report.add("admissible", "yes")
    quotient = quotient_matrix(pair)
    _matrix_lines(report, quotient, "quotient")
    report.add("symmetrizer", " ".join(str(x) for x in symmetrizer))
    name = catalog.diagram_name(quotient)
    report.add("type", classify(quotient) + (f" {name}" if name else ""))
    if args.emit_dot:
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
        report.add("status", result.search.status)
        report.add("seeds", result.cluster_count)
        return _exit_code(result.search)
    if args.emit_dot:  # before the first line, so that an unwritable path is reported alone
        _write_file(args.emit_dot, result.to_dot())
    report.add("variables", result.variable_count)
    report.add("clusters", result.cluster_count)
    for rendered in sorted(poly.render() for poly in result.variables):
        report.add("var", rendered)
    if args.emit_dot:
        report.add("dot", args.emit_dot)
    return EXIT_OK


def _cmd_explore(args, report: _Report) -> int:
    matrix = _load_matrix(args)
    outcome = explorer.mutation_class(matrix, args.limit)
    report.add("verdict", outcome.verdict)
    report.add("size", outcome.size)
    return _exit_code(outcome.search)


def _cmd_catalog_list(args, report: _Report) -> int:
    for name in catalog.list_names():
        report.add("entry", name)
    return EXIT_OK


def _cmd_catalog_show(args, report: _Report) -> int:
    entry = catalog.folding_pair(args.name, args.rank)
    report.add("name", entry.name)
    report.add("ambient", io.render_matrix_text(
        entry.pair.matrix, entry.pair.group.generators).rstrip("\n").replace("\n", " / "))
    report.add("admissible", "yes" if entry.pair.admissible else "no")
    if entry.pair.admissible:
        quotient = quotient_matrix(entry.pair)
        _matrix_lines(report, quotient, "quotient")
        name = catalog.diagram_name(quotient)
        report.add("type", classify(quotient) + (f" {name}" if name else ""))
    if entry.expected_quotient_name:
        report.add("expected", entry.expected_quotient_name)
    if entry.note:
        report.add("note", entry.note)
    return EXIT_OK


def _random_words(count: int, orbit_count: int):
    rng = random.Random(0)
    for _ in range(count):
        yield tuple(rng.randrange(orbit_count) for _ in range(rng.randint(1, 10)))


def _report_stability(report: _Report, pair: FoldingPair, limit: int, expect_stable: bool):
    """Report check_stability's verdict; an exit code unless it is the expected one."""
    verdict = check_stability(pair, max_nodes=limit)
    report.add("stability", verdict.status)
    if (code := _exit_code(verdict.search)) == EXIT_LIMIT:
        report.add("class size", verdict.class_size)
        return code
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
    total, term = args.random_words, 1
    for _ in range(args.depth + 1):  # the sum of m^L over L <= depth, stopped past the cap
        total, term = total + term, term * pair.orbit_count
        if total > WORD_CAP:
            raise ValueError(f"at least {total} words to check, past the cap of {WORD_CAP}")
    code = _report_stability(report, pair, args.limit, expect_stable=True)
    if code is not None:
        return code
    search = check_commutation(pair, args.depth)
    if search.status in ("overflow", "work-limit"):  # limit-exceeded: the depth was reached
        report.add("status", search.status)
        return _exit_code(search)
    word = search.word if search.status == "witness" else next(
        (w for w in _random_words(args.random_words, pair.orbit_count)
         if not verify_commutation(pair, w).ok), None)
    if word is not None:
        report.add("status", "mismatch")
        report.add("word", " ".join(str(i + 1) for i in word))
        return EXIT_WITNESS
    report.add("status", "verified")
    report.add("words", total)
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
    result, detail = roots.verify_denominator_bijection(matrix, max_seeds=args.limit)
    if not result.complete:
        report.add("status", result.search.status)
        return _exit_code(result.search)
    report.add("status", "mismatch" if detail else "verified")
    if detail:
        report.add("detail", detail)
    return EXIT_WITNESS if detail else EXIT_OK


def _is_acyclic(b) -> bool:
    """No directed cycle of arrows i -> j (b_ij > 0): peeling off sources empties the quiver."""
    left = set(range(len(b)))
    while sources := {j for j in left if all(b[i][j] <= 0 for i in left)}:
        left -= sources
    return not left


def _verify_finite_type_equality(args, report: _Report) -> int:
    pair = _load_pair(args)
    for side, matrix in (("ambient", pair.matrix), ("quotient", quotient_matrix(pair))):
        tag = classify(matrix)
        if tag != "Finite" and _is_acyclic(matrix.entries):  # Fomin-Zelevinsky criterion
            raise ValueError(f"{side} matrix is acyclic and its Cartan counterpart is {tag}, "
                             "so it is not of finite type")
    sides = []
    for matrix in (pair.matrix, quotient_matrix(pair)):
        side = enumerate_cluster_variables(matrix, max_seeds=args.limit)
        if not side.complete:  # so the quotient is enumerated only once the ambient closed
            report.add("status", side.search.status)
            return _exit_code(side.search)
        sides.append(side)
    ambient, quotient = sides
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
    # the affine diagrams that are not simply laced (some |c_ij| > 1), up to --max-rank
    names = [name for name, cartan in catalog.named_cartan_matrices("Affine")
             if len(cartan) <= args.max_rank and any(c < -1 for row in cartan for c in row)]
    if not names:
        raise ValueError(f"no affine diagram has rank <= {args.max_rank}; the smallest has rank 2")
    largest = 0
    for name in names:
        outcome = explorer.mutation_class(catalog.affine(name), args.limit)
        report.add(name, f"{outcome.verdict} size={outcome.size}")
        if not outcome.finite:  # a limit or an overflow decides nothing
            report.add("status", outcome.verdict)
            return _exit_code(outcome.search)
        largest = max(largest, outcome.size)
    control = explorer.mutation_class(ExchangeMatrix(_INDEFINITE_CONTROL), args.limit)
    report.add("indefinite control", f"{control.verdict} size={control.size}")
    if control.finite:
        report.add("status", "control-unexpectedly-finite")
        return EXIT_WITNESS
    if control.verdict == "limit-exceeded" and control.size <= largest:
        # stopped no later than a finite class closed, it cannot tell infinite from finite
        report.add("status", "limit-exceeded")
        return EXIT_LIMIT  # the control-size rule, not _exit_code
    report.add("status", "verified")
    return EXIT_OK


def _verify_counterexamples(args, report: _Report) -> int:
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


# ---------------------------------------------------------------------------
# parser


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


# argument -> add_argument keywords, catalog's positional included;
# every leaf parser also takes --json and --expect-fail
_FLAGS = {
    "--matrix": dict(help="matrix file (see io module format)"),
    "--group": dict(help="inline generators, e.g. '(1 3)' or '(1 2); (3 4)'"),
    "--pair": dict(help="catalog folding-pair name"),
    "--rank": dict(type=int, help="rank parameter for parametric entries"),
    "--word": dict(help="1-based mutation word, e.g. '1 2 1'"),
    "--limit": dict(type=_non_negative, default=100_000, help="node/seed limit"),
    "--depth": dict(type=_non_negative, default=4, help="orbit-word length for commutation checks"),
    "--random-words": dict(type=_non_negative, default=200,
                           help="extra random words for commutation checks"),
    "--max-rank": dict(type=_non_negative, default=6,
                       help="largest rank for affine-finiteness sweeps"),
    "--emit-dot": dict(help="write a DOT rendering to this file"),
    "--json": dict(action="store_true", help="JSON output"),
    "--expect-fail": dict(action="store_true",
                          help="swap exit codes 0 and 1 (expected counterexamples)"),
    "name": dict(help="catalog entry name"),
}

_SOURCE = ("--matrix", "--pair", "--rank")
_PAIR = ("--matrix", "--group", "--pair", "--rank")

# verify target -> (function, help, flags it reads)
_VERIFY_TARGETS = {
    "commutation": (_verify_commutation, "orbit mutation commutes with projection",
                    (*_PAIR, "--limit", "--depth", "--random-words")),
    "roots": (_verify_root_lemma, "projected almost positive roots are the quotient's", _PAIR),
    "fibers": (_verify_root_lemma, "roots with one projection lie in one G-orbit", _PAIR),
    "denominators": (_verify_denominators, "denominators biject onto almost positive roots",
                     (*_SOURCE, "--limit")),
    "finite-type-equality": (_verify_finite_type_equality,
                             "A(quotient) is the projection of A(ambient)", (*_PAIR, "--limit")),
    "affine-finiteness": (_verify_affine_finiteness, "affine valued graphs are mutation-finite",
                          ("--limit", "--max-rank")),
    "counterexamples": (_verify_counterexamples, "the admissible but unstable 6-cycle",
                        ("--limit",)),
}

_CATALOG_ACTIONS = {
    "list": (_cmd_catalog_list, "list catalog entries", ()),
    "show": (_cmd_catalog_show, "show one catalog entry", ("name", "--rank")),
}

# command -> (function, help, flags it reads); a table in place of the
# flags makes a command whose targets are subcommands of their own
_COMMANDS = {
    "mutate": (_cmd_mutate, "mutate the initial seed along a word", (*_SOURCE, "--word")),
    "fold": (_cmd_fold, "quotient matrix of a folding pair", (*_PAIR, "--emit-dot")),
    "orbit-mutate": (_cmd_orbit_mutate, "orbit-mutate the initial seed", (*_PAIR, "--word")),
    "enumerate": (_cmd_enumerate, "enumerate all cluster variables",
                  (*_SOURCE, "--limit", "--emit-dot")),
    "explore": (_cmd_explore, "matrix mutation-class BFS", (*_SOURCE, "--limit")),
    "verify": (None, "run a verification target", _VERIFY_TARGETS),
    "catalog": (None, "list or show catalog entries", _CATALOG_ACTIONS),
}


def _add_commands(parser, table, dest: str):
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (func, help_text, flags) in table.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(flags, dict):
            _add_commands(p, flags, "target")
            continue
        for flag in (*flags, "--json", "--expect-fail"):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)


class _UsageError(Exception):
    """(parser, message) of an argparse usage error, for ``main`` to report."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse spends its time building it."""
    parser = _Parser(
        prog="cluster-fold",
        description="Exact cluster-algebra mutation, folding and verification.",
    )
    _add_commands(parser, _COMMANDS, "command")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    report = _Report()
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        parser, message = exc.args
        if "--json" in argv:
            report.add("error", message)
            report.emit(True)
        else:  # argparse's own report
            parser.print_usage(sys.stderr)
            print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args, report)
    except EntryOverflowError:  # a computed entry; io reports an input one as a ValueError
        report.add("status", "overflow")
        code = EXIT_LIMIT
    except LimitExceededError as exc:
        report.add("error", str(exc))
        report.emit(args.json)
        return EXIT_LIMIT
    except (ValueError, KeyError, OSError, IndexError) as exc:
        if isinstance(exc, NotSkewSymmetrizableError):  # a 0-based witness; reports are 1-based
            exc = "matrix is not skew-symmetrizable, witness entry pair ({}, {})".format(
                *(v + 1 for v in exc.witness))
        # str() of a KeyError is the repr of its message
        report.add("error", exc.args[0] if isinstance(exc, KeyError) else exc)
        report.emit(args.json)
        return EXIT_USAGE
    if args.expect_fail and code in (EXIT_OK, EXIT_WITNESS):
        code = EXIT_WITNESS - code  # swap 0 and 1
    report.add("exit", code)
    report.emit(args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
