"""Command-line interface: commands, exit codes, JSON output, file I/O."""

import argparse
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from clusterfold import cli, explorer, folding, roots, seeds
from clusterfold.cli import main
from clusterfold.exchange import EntryOverflowError
from clusterfold.laurent import LaurentPolynomial
from clusterfold.search import Search

A3_FILE = """\
n = 3
0 -1 0
1 0 1
0 -1 0
"""

A3_WITH_GROUP = A3_FILE + "group: (1 3)\n"

TRIANGLE_WITH_ROTATION = """\
n = 3
0 1 -1
-1 0 1
1 -1 0
group: (1 2 3)
"""

KRONECKER = """\
n = 2
0 2
-2 0
"""

B2_FILE = """\
n = 2
0 -2
1 0
"""

B2_EXCHANGE_GRAPH_DOT = """\
graph exchange {
  s0 [label="s0"];
  s1 [label="s1"];
  s2 [label="s2"];
  s3 [label="s3"];
  s4 [label="s4"];
  s5 [label="s5"];
  s0 -- s1;
  s0 -- s2;
  s1 -- s3;
  s2 -- s4;
  s3 -- s5;
  s4 -- s5;
}
"""

# two disjoint copies of the indefinite 3-vertex matrix, swapped by the group:
# the orbit-mutation class overflows 64-bit entries after 456 members
INDEFINITE_PAIR = """\
n = 6
0 2 0 0 0 0
-2 0 2 0 0 0
0 -2 0 0 0 0
0 0 0 0 2 0
0 0 0 -2 0 2
0 0 0 0 -2 0
group: (1 4)(2 5)(3 6)
"""


# entries of 2**62: mutation at vertex 2 makes b_13 = 2**62 + 2**62, past the 64-bit range
P = 2**62
OVERFLOWING = f"n = 3\n0 {P} {P}\n-1 0 1\n-1 -1 0\n"
# vertices 3 and 4 form one orbit; the orbit step at vertex 2 overflows the same way
OVERFLOWING_PAIR = f"n = 4\n0 {P} {P} {P}\n-1 0 1 1\n-1 -1 0 0\n-1 -1 0 0\ngroup: (3 4)\n"
# admissible, but the quotient entry b_{23,1} = -2P leaves the 64-bit range
OVERFLOWING_QUOTIENT = f"n = 3\n0 {P} {P}\n-{P} 0 0\n-{P} 0 0\ngroup: (2 3)\n"
# a cyclic triangle, trivial group: the first mutation makes b_23 = P - P**2
OVERFLOWING_CYCLE = f"n = 3\n0 {P} -{P}\n-{P} 0 {P}\n{P} -{P} 0\ngroup: (1)\n"
# an input entry one past the 64-bit range
TOO_WIDE = f"n = 2\n0 {2**63}\n-1 0\n"

# S8 on eight isolated vertices: order 40,320, past the group-order cap
S8_ON_ZERO_MATRIX = "n = 8\n" + "0 0 0 0 0 0 0 0\n" * 8 + "group: (1 2 3 4 5 6 7 8)\ngroup: (1 2)\n"


# the option flags of the table, and the ones each command or verify target reads
FLAGS = ("--matrix", "--group", "--pair", "--rank", "--word", "--limit", "--depth",
         "--random-words", "--max-rank", "--emit-dot")
SOURCE = ("--matrix", "--pair", "--rank")
PAIR = ("--matrix", "--group", "--pair", "--rank")
READS = {
    "mutate": (*SOURCE, "--word"),
    "fold": (*PAIR, "--emit-dot"),
    "orbit-mutate": (*PAIR, "--word"),
    "enumerate": (*SOURCE, "--limit", "--emit-dot"),
    "explore": (*SOURCE, "--limit"),
    "verify commutation": (*PAIR, "--limit", "--depth", "--random-words"),
    "verify roots": PAIR,
    "verify fibers": PAIR,
    "verify denominators": (*SOURCE, "--limit"),
    "verify finite-type-equality": (*PAIR, "--limit"),
    "verify affine-finiteness": ("--limit", "--max-rank"),
    "verify counterexamples": ("--limit",),
    "catalog": ("--rank",),  # catalog show; catalog list reads no flag
    "catalog list": (),
}
FLAG_VALUES = {"--matrix": "b.txt", "--group": "(1 3)", "--pair": "A3toB2", "--rank": "3",
               "--word": "1 2", "--limit": "3", "--depth": "3", "--random-words": "3",
               "--max-rank": "3", "--emit-dot": "g.dot"}


def command_argv(command):
    """The command's argv before its flags: catalog show needs a name, --pair a source."""
    argv = ["catalog", "show", "A3toB2"] if command == "catalog" else command.split()
    return argv + (["--pair", "A3toB2"] if "--pair" in READS[command] else [])


def registered_flags(parser, prefix=""):
    """Command or 'verify target' -> the option flags its parser registers,
    besides -h, --json and --expect-fail."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            found = {}
            for name, sub in action.choices.items():
                found.update(registered_flags(sub, f"{prefix} {name}".strip()))
            return found
    flags = {flag for action in parser._actions for flag in action.option_strings}
    return {prefix: flags - {"-h", "--help", "--json", "--expect-fail"}}


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestMutate:
    def test_empty_word_prints_initial_seed(self, capsys, tmp_path):
        path = tmp_path / "a3.txt"
        path.write_text(A3_FILE)
        code, out = run_cli(capsys, "mutate", "--matrix", str(path))
        assert code == 0
        assert "word: (empty)" in out
        assert "var 1: u1" in out
        assert "exit: 0" in out

    def test_word(self, capsys, tmp_path):
        path = tmp_path / "a3.txt"
        path.write_text(A3_FILE)
        code, out = run_cli(capsys, "mutate", "--matrix", str(path), "--word", "1")
        assert code == 0
        assert "var 1: u1^-1*u2 + u1^-1" in out

    def test_out_of_range_vertex(self, capsys, tmp_path):
        path = tmp_path / "a3.txt"
        path.write_text(A3_FILE)
        code, out = run_cli(capsys, "mutate", "--matrix", str(path), "--word", "9")
        assert code == 2
        assert "error:" in out

    def test_a_power_past_the_cap_is_a_limit(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(f"n = 3\n0 {2**32} 0\n-1 0 1\n0 -1 0\n")
        started = time.perf_counter()
        code = main(["mutate", "--matrix", str(path), "--word", "2 1 3 2 1 3 2 1 3 2 1 3"])
        captured = capsys.readouterr()
        assert time.perf_counter() - started < 1
        assert code == 3
        assert captured.out.startswith("error: a product of ")
        assert "Traceback" not in captured.out + captured.err

    def test_out_of_range_vertex_is_reported_alone(self, capsys):
        code, out = run_cli(capsys, "mutate", "--pair", "A3toB2", "--word", "1 9")
        assert (code, out) == (2, "error: vertex 9 out of range\n")
        code, out = run_cli(capsys, "mutate", "--pair", "A3toB2", "--word", "1 9", "--json")
        assert code == 2
        assert json.loads(out) == {"error": "vertex 9 out of range"}

    def test_missing_input(self, capsys):
        code, out = run_cli(capsys, "mutate")
        assert code == 2


class TestFold:
    def test_catalog_pair(self, capsys):
        code, out = run_cli(capsys, "fold", "--pair", "A3toB2")
        assert code == 0
        assert "admissible: yes" in out
        assert "quotient 1: 0 -2" in out
        assert "quotient 2: 1 0" in out
        assert "symmetrizer: 1 2" in out
        assert "type: Finite B2" in out

    def test_matrix_file_with_group_lines(self, capsys, tmp_path):
        path = tmp_path / "a3.txt"
        path.write_text(A3_WITH_GROUP)
        code, out = run_cli(capsys, "fold", "--matrix", str(path))
        assert code == 0
        assert "quotient 1: 0 -2" in out

    def test_inline_group_overrides(self, capsys, tmp_path):
        path = tmp_path / "a3.txt"
        path.write_text(A3_FILE)
        code, out = run_cli(capsys, "fold", "--matrix", str(path), "--group", "(1 3)")
        assert code == 0
        assert "orbits: {1 3} {2}" in out

    def test_inline_group_is_never_read_as_a_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "a3.txt"
        path.write_text(A3_FILE)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "(1 3)").write_text(A3_FILE)
        code, out = run_cli(capsys, "fold", "--matrix", str(path), "--group", "(1 3)")
        assert code == 0
        assert "orbits: {1 3} {2}" in out

    def test_inadmissible_pair_is_a_witness(self, capsys, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text(TRIANGLE_WITH_ROTATION)
        code, out = run_cli(capsys, "fold", "--matrix", str(path))
        assert code == 1
        assert out.splitlines() == ["orbits: {1 2 3}", "admissible: no", "witness: 1 -> 2", "exit: 1"]

    def test_expect_fail_swaps_codes(self, capsys, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text(TRIANGLE_WITH_ROTATION)
        code, out = run_cli(
            capsys, "fold", "--matrix", str(path), "--expect-fail"
        )
        assert code == 0
        assert "exit: 0" in out

    def test_missing_group(self, capsys, tmp_path):
        path = tmp_path / "a3.txt"
        path.write_text(A3_FILE)
        code, out = run_cli(capsys, "fold", "--matrix", str(path))
        assert code == 2

    def test_emit_dot(self, capsys, tmp_path):
        target = tmp_path / "quotient.dot"
        code, out = run_cli(
            capsys, "fold", "--pair", "A3toB2", "--emit-dot", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("digraph")

    def test_emit_dot_writes_nothing_for_an_inadmissible_pair(self, capsys, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text(TRIANGLE_WITH_ROTATION)
        target = tmp_path / "quotient.dot"
        code, out = run_cli(capsys, "fold", "--matrix", str(path), "--emit-dot", str(target))
        assert (code, out) == (1, "orbits: {1 2 3}\nadmissible: no\nwitness: 1 -> 2\nexit: 1\n")
        assert not target.exists()

    def test_emit_dot_labels_each_vertex_by_its_orbit_representative(self, capsys, tmp_path):
        # the orbits of E6toF4 are {1 5} {2 4} {3} {6}: the labels are 1, 2, 3 and 6
        target = tmp_path / "quotient.dot"
        code, out = run_cli(capsys, "fold", "--pair", "E6toF4", "--emit-dot", str(target))
        assert code == 0
        assert target.read_text() == (
            'digraph Q {\n  v0 [label="1"];\n  v1 [label="2"];\n  v2 [label="3"];\n'
            '  v3 [label="6"];\n  v1 -> v0 [label="(1,1)"];\n  v1 -> v2 [label="(2,1)"];\n'
            '  v3 -> v2 [label="(1,1)"];\n}\n'
        )

    def test_emit_dot_of_a_matrix_file_and_inline_group(self, capsys, tmp_path):
        # A3 with its middle vertex numbered 3: the orbits {1 2} {3} give labels 1 and 3
        path = tmp_path / "a3.txt"
        path.write_text("n = 3\n0 0 -1\n0 0 -1\n1 1 0\n")
        target = tmp_path / "quotient.dot"
        code, out = run_cli(capsys, "fold", "--matrix", str(path), "--group", "(1 2)",
                            "--emit-dot", str(target))
        assert (code, out.splitlines()[0]) == (0, "orbits: {1 2} {3}")
        assert target.read_text() == (
            'digraph Q {\n  v0 [label="1"];\n  v1 [label="3"];\n'
            '  v1 -> v0 [label="(1,2)"];\n}\n'
        )


@pytest.mark.parametrize("command", ["fold", "enumerate"])
def test_unwritable_emit_dot_is_reported_alone(capsys, tmp_path, command):
    target = tmp_path / "missing" / "x.dot"
    message = f"[Errno 2] No such file or directory: '{target}'"
    argv = [command, "--pair", "A3toB2", "--emit-dot", str(target)]
    assert run_cli(capsys, *argv) == (2, f"error: {message}\n")
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out) == {"error": message}


class TestOrbitMutate:
    def test_word(self, capsys):
        code, out = run_cli(
            capsys, "orbit-mutate", "--pair", "A3toB2", "--word", "1 2"
        )
        assert code == 0
        assert "word: 1 2" in out
        assert "var 1:" in out

    def test_orbit_index_out_of_range(self, capsys):
        code, out = run_cli(
            capsys, "orbit-mutate", "--pair", "A3toB2", "--word", "5"
        )
        assert code == 2

    def test_inadmissible_step_is_a_witness(self, capsys):
        code, out = run_cli(
            capsys, "orbit-mutate", "--pair", "remark-stabilite", "--word", "2 1"
        )
        assert code == 1
        assert out.splitlines() == ["status: not-admissible", "witness: 1 -> 3 -> 4", "exit: 1"]

    def test_inadmissible_result_is_printed(self, capsys):
        # only a step taken from an inadmissible matrix is refused
        code, out = run_cli(
            capsys, "orbit-mutate", "--pair", "remark-stabilite", "--word", "2"
        )
        assert code == 0
        assert "word: 2" in out


class TestEnumerate:
    def test_a3_has_nine_variables(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--pair", "A3toB2")
        assert code == 0
        assert "variables: 9" in out
        assert "clusters: 14" in out
        assert out.count("var: ") == 9
        assert "var: u2^-1 + u1^-1*u2*u3^-1 + 2*u1^-1*u3^-1 + u1^-1*u2^-1*u3^-1" in out

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "enumerate", "--pair", "A3toB2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["variables"] == "9"
        assert len(data["var"]) == 9
        assert data["exit"] == "0"

    def test_limit_exceeded(self, capsys, tmp_path):
        path = tmp_path / "k2.txt"
        path.write_text(KRONECKER)
        code, out = run_cli(
            capsys, "enumerate", "--matrix", str(path), "--limit", "10"
        )
        assert code == 3
        assert "status: limit-exceeded" in out

    @pytest.mark.parametrize("text,limit,budget", [
        ("n = 2\n0 4\n-2 0\n", "30", 1.0),  # each new variable far larger than the last
        # two disjoint copies of the indefinite control, as in bench/reproducers.py
        ("n = 6\n0 2 0 0 0 0\n-2 0 2 0 0 0\n0 -2 0 0 0 0\n"
         "0 0 0 0 2 0\n0 0 0 -2 0 2\n0 0 0 0 -2 0\n", "300", 5.0),
    ], ids=["rank-2-wild", "reproducer"])
    def test_a_product_past_the_work_bound_is_a_limit(self, capsys, tmp_path, text, limit, budget):
        path = tmp_path / "wild.txt"
        path.write_text(text)
        started = time.perf_counter()
        code = main(["enumerate", "--matrix", str(path), "--limit", limit])
        captured = capsys.readouterr()
        assert time.perf_counter() - started < budget
        assert code == 3
        assert captured.out.startswith("error: a product of ")
        assert "Traceback" not in captured.out + captured.err

    def test_a_division_past_the_work_bound_is_a_limit(self, capsys, tmp_path, monkeypatch):
        # G2's fourth variable is a division to 4 quotient terms by 2 divisor terms
        path = tmp_path / "g2.txt"
        path.write_text("n = 2\n0 -3\n1 0\n")
        monkeypatch.setattr("clusterfold.laurent.MAX_WORK", 6)
        code = main(["enumerate", "--matrix", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ("error: a division to 4 quotient terms by 2 divisor terms "
                                "passes the bound of 6 multiply-adds\n")
        assert captured.err == ""

    def test_emit_dot(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out = run_cli(
            capsys, "enumerate", "--pair", "A3toB2", "--emit-dot", str(target)
        )
        assert code == 0
        text = target.read_text()
        assert text.count("--") == 21

    def test_emit_dot_writes_nothing_when_the_limit_stops_the_enumeration(self, capsys, tmp_path):
        path = tmp_path / "k2.txt"
        path.write_text(KRONECKER)
        target = tmp_path / "graph.dot"
        code, out = run_cli(capsys, "enumerate", "--matrix", str(path), "--limit", "10",
                            "--emit-dot", str(target))
        assert (code, out) == (3, "status: limit-exceeded\nseeds: 10\nexit: 3\n")
        assert not target.exists()

    def test_emit_dot_enumerates_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return seeds.enumerate_cluster_variables(*args, **kwargs)

        monkeypatch.setattr(cli, "enumerate_cluster_variables", counting)
        path = tmp_path / "b2.txt"
        path.write_text(B2_FILE)
        target = tmp_path / "graph.dot"
        code, out = run_cli(capsys, "enumerate", "--matrix", str(path), "--emit-dot", str(target))
        assert code == 0
        assert len(calls) == 1
        assert target.read_text() == B2_EXCHANGE_GRAPH_DOT


class TestExplore:
    def test_finite(self, capsys, tmp_path):
        path = tmp_path / "a3.txt"
        path.write_text(A3_FILE)
        code, out = run_cli(capsys, "explore", "--matrix", str(path))
        assert code == 0
        assert "verdict: finite" in out
        assert "size: 14" in out

    def test_limit(self, capsys, tmp_path):
        path = tmp_path / "indef.txt"
        path.write_text("n = 3\n0 2 0\n-2 0 2\n0 -2 0\n")
        code, out = run_cli(capsys, "explore", "--matrix", str(path), "--limit", "50")
        assert code == 3
        assert "verdict: limit-exceeded" in out

    def test_limit_0_still_admits_the_start(self, capsys):
        expected = "verdict: limit-exceeded\nsize: 1\nexit: 3\n"
        assert run_cli(capsys, "explore", "--pair", "A3toB2", "--limit", "0") == (3, expected)
        code, out = run_cli(capsys, "explore", "--pair", "A3toB2", "--limit", "0", "--json")
        assert code == 3
        assert out == json.dumps({"verdict": "limit-exceeded", "size": "1", "exit": "3"}, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        ["explore", "--pair", "A3toB2"],
        ["mutate", "--pair", "A3toB2", "--word", "1"],
        ["orbit-mutate", "--pair", "A3toB2", "--word", "1"],
        ["verify", "commutation", "--pair", "A3toB2"],
    ])
    def test_emit_dot_only_on_fold_and_enumerate(self, capsys, tmp_path, argv):
        target = tmp_path / "graph.dot"
        code = main(argv + ["--emit-dot", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unrecognized arguments: --emit-dot" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not target.exists()


class TestOverflow:
    """An entry that leaves the 64-bit range while computing decides nothing
    (exit 3); one in the input file is an input error (exit 2)."""

    @pytest.mark.parametrize("command, text, expected", [
        ("explore", OVERFLOWING, "verdict: overflow\nsize: 2\nexit: 3\n"),
        ("mutate", OVERFLOWING, "status: overflow\nexit: 3\n"),
        ("orbit-mutate", OVERFLOWING_PAIR, "status: overflow\nexit: 3\n"),
        # the quotient is built before the first line, so the overflow is reported alone
        ("fold", OVERFLOWING_QUOTIENT, "status: overflow\nexit: 3\n"),
        # the seed searches stop on the overflow, not at the default limit of 100,000 seeds
        ("enumerate", OVERFLOWING, "status: overflow\nseeds: 2\nexit: 3\n"),
        ("verify finite-type-equality", OVERFLOWING_CYCLE, "status: overflow\nexit: 3\n"),
    ], ids=["explore", "mutate", "orbit-mutate", "fold", "enumerate", "finite-type-equality"])
    def test_overflow_exits_3(self, capsys, tmp_path, command, text, expected):
        path = tmp_path / "m.txt"
        path.write_text(text)
        argv = [*command.split(), "--matrix", str(path)]
        argv += ["--word", "2"] if "mutate" in command else []
        assert run_cli(capsys, *argv) == (3, expected)
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 3
        assert json.loads(out) == dict(line.split(": ") for line in expected.splitlines())

    @pytest.mark.parametrize("command", [c for c, flags in READS.items() if "--matrix" in flags])
    def test_input_entry_past_64_bits_is_an_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "m.txt"
        path.write_text(TOO_WIDE + ("group: (1 2)\n" if "--group" in READS[command] else ""))
        argv = [*command.split(), "--matrix", str(path)]
        message = f"entry {2**63} exceeds 64-bit range"
        assert run_cli(capsys, *argv) == (2, f"error: {message}\n")
        assert run_cli(capsys, *argv, "--json") == (2, json.dumps({"error": message}, indent=2) + "\n")


def _enumeration(search):
    return seeds.EnumerationResult(search, {}, [])


class TestSearchExits:
    """Every searching leaf prints the status of a search that a limit or an
    overflow stopped, and exits 3."""

    # leaf -> argv, (owner, name) of its library call, the call's result over
    # the search, and the lines printed before the exit line
    LEAVES = {
        "enumerate": ("enumerate --pair A3toB2", (cli, "enumerate_cluster_variables"),
                      _enumeration, "status: {0}\nseeds: 2"),
        "explore": ("explore --pair A3toB2", (explorer, "mutation_class"),
                    explorer.MutationClassReport, "verdict: {0}\nsize: 2"),
        "commutation": ("verify commutation --pair A3toB2", (cli, "check_stability"),
                        folding.StabilityVerdict, "stability: {0}\nclass size: 2"),
        "counterexamples": ("verify counterexamples", (cli, "check_stability"),
                            folding.StabilityVerdict, "stability: {0}\nclass size: 2"),
        "denominators": ("verify denominators --pair A3toB2", (roots, "verify_denominator_bijection"),
                         lambda search: (_enumeration(search), None), "status: {0}"),
        "finite-type-equality": ("verify finite-type-equality --pair A3toB2",
                                 (cli, "enumerate_cluster_variables"), _enumeration, "status: {0}"),
        "affine-finiteness": ("verify affine-finiteness --max-rank 2", (explorer, "mutation_class"),
                              explorer.MutationClassReport, "~A1: {0} size=2\nstatus: {0}"),
    }

    @pytest.mark.parametrize("status", ["limit-exceeded", "overflow"])
    @pytest.mark.parametrize("leaf", LEAVES)
    def test_a_stopped_search_exits_3_with_its_status(self, capsys, monkeypatch, leaf, status):
        argv, (owner, name), result, lines = self.LEAVES[leaf]
        stopped = result(Search(status, dict.fromkeys(range(2)), 1, 1))
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: stopped)
        for extra in ((), ("--expect-fail",)):
            assert run_cli(capsys, *argv.split(), *extra) == (3, lines.format(status) + "\nexit: 3\n")


def assert_unknown_name_quoted_once(capsys, *argv):
    message = "unknown catalog entry 'nope'"
    assert run_cli(capsys, *argv) == (2, f"error: {message}\n")
    assert run_cli(capsys, *argv, "--json") == (2, '{\n  "error": "' + message + '"\n}\n')


class TestCatalog:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "catalog", "list")
        assert code == 0
        assert "entry: A3toB2" in out
        assert "entry: AtoC(n)" in out

    def test_show(self, capsys):
        code, out = run_cli(capsys, "catalog", "show", "A3toB2")
        assert code == 0
        assert "name: A3toB2" in out
        assert "expected: B2" in out

    def test_show_parametric(self, capsys):
        code, out = run_cli(capsys, "catalog", "show", "AtoC", "--rank", "3")
        assert code == 0
        assert "expected: C3" in out

    def test_show_unknown(self, capsys):
        assert_unknown_name_quoted_once(capsys, "catalog", "show", "nope")

    def test_fold_unknown_pair(self, capsys):
        assert_unknown_name_quoted_once(capsys, "fold", "--pair", "nope")

    @pytest.mark.parametrize("command", [["catalog", "show", "AtoC"], ["fold", "--pair", "AtoC"]])
    def test_rank_past_the_vertex_cap_is_refused_at_once(self, capsys, command):
        message = "AtoC at n = 100000 has 199999 vertices, past the cap of 300"
        start = time.perf_counter()
        assert run_cli(capsys, *command, "--rank", "100000") == (2, f"error: {message}\n")
        assert run_cli(capsys, *command, "--rank", "100000", "--json") == (
            2, '{\n  "error": "' + message + '"\n}\n')
        assert time.perf_counter() - start < 1

    def test_show_without_name(self, capsys):
        code, out = run_cli(capsys, "catalog", "show")
        assert code == 2

    @pytest.mark.parametrize("extra", [["nope"], ["--rank", "3"], ["nope", "--rank", "3"]])
    def test_list_refuses_what_it_does_not_read(self, capsys, extra):
        code = main(["catalog", "list", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in captured.err
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestVerify:
    def test_commutation(self, capsys):
        code, out = run_cli(
            capsys, "verify", "commutation", "--pair", "A3toB2",
            "--depth", "3", "--random-words", "10",
        )
        assert code == 0
        assert "stability: stable-exhaustive" in out
        assert "status: verified" in out

    @pytest.mark.parametrize("argv,count", [
        (("--pair", "A3toB2", "--depth", "30"), 1_048_775),  # 2**20 - 1 exhaustive + 200 random
        (("--pair", "A3toB2", "--depth", str(10**9)), 1_048_775),
        (("--pair", "AtoC", "--rank", "32"), 1_082_601),  # 32 orbits at depth 4
        (("--pair", "A3toB2", "--depth", "0", "--random-words", "1000000"), 1_000_001),
    ])
    def test_commutation_words_past_the_cap_are_refused_up_front(self, capsys, monkeypatch,
                                                                  argv, count):
        monkeypatch.setattr(cli, "check_stability", None)  # never reached
        message = f"at least {count} words to check, past the cap of {cli.WORD_CAP}"
        code, out = run_cli(capsys, "verify", "commutation", *argv)
        assert (code, out) == (2, f"error: {message}\n")
        code, out = run_cli(capsys, "verify", "commutation", *argv, "--json")
        assert code == 2
        assert json.loads(out) == {"error": message}

    def test_commutation_words_at_the_cap_are_walked(self, capsys, monkeypatch):
        # 1 + 2 + 4 exhaustive words and the rest random: exactly the cap
        monkeypatch.setattr(cli, "WORD_CAP", 27)
        code, out = run_cli(capsys, "verify", "commutation", "--pair", "A3toB2",
                            "--depth", "2", "--random-words", "20")
        assert code == 0
        assert "words: 27" in out

    def test_commutation_unstable_pair(self, capsys):
        code, out = run_cli(
            capsys, "verify", "commutation", "--pair", "remark-stabilite"
        )
        assert code == 1
        assert "stability: unstable" in out
        assert "witness word:" in out

    def test_commutation_overflow_exits_3(self, capsys, tmp_path):
        path = tmp_path / "indefinite-pair.txt"
        path.write_text(INDEFINITE_PAIR)
        code, out = run_cli(capsys, "verify", "commutation", "--matrix", str(path))
        assert code == 3
        assert "stability: overflow" in out
        assert "class size: 456" in out
        assert "witness" not in out

    def test_commutation_overflow_in_the_node_search_exits_3(self, capsys, monkeypatch):
        # the stability search composes bare matrices; only the orbit-seed graph overflows
        def overflowing(*args, **kwargs):
            raise EntryOverflowError("entry past the 64-bit range")

        monkeypatch.setattr(folding, "orbit_mutate_seed", overflowing)
        assert run_cli(capsys, "verify", "commutation", "--pair", "A3toB2") == (
            3, "stability: stable-exhaustive\nstatus: overflow\nexit: 3\n")

    def test_commutation_limit_is_not_verified(self, capsys):
        # the E6toF4 orbit-mutation class has 120 members
        code, out = run_cli(capsys, "verify", "commutation", "--pair", "E6toF4", "--limit", "5")
        assert code == 3
        assert "stability: limit-exceeded" in out
        assert "class size: 5" in out
        assert "verified" not in out
        assert "witness" not in out

    def test_commutation_mismatch_in_random_words(self, capsys, monkeypatch):
        # the exhaustive words (length <= 2) are certified node by node, so
        # only the random words reach verify_commutation, and the first
        # fails; its draws match the RNG stream
        checked = []

        def fails_past_length_2(pair, word):
            checked.append(word)
            return SimpleNamespace(ok=len(word) <= 2)

        monkeypatch.setattr(cli, "verify_commutation", fails_past_length_2)
        code, out = run_cli(
            capsys, "verify", "commutation", "--pair", "E6toF4",
            "--depth", "2", "--random-words", "30",
        )
        assert code == 1
        assert out.splitlines()[1:3] == ["status: mismatch", "word: 4 1 3 4 4 3 4"]
        assert len(checked) == 1

    def test_counterexample_found_stable_is_a_witness(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_stability",
                            lambda pair, max_nodes: folding.StabilityVerdict(
                                Search("closed", dict.fromkeys(range(7)), 3, 0)))
        code, out = run_cli(capsys, "verify", "counterexamples")
        assert code == 1
        assert out.splitlines() == [
            "stability: stable-exhaustive", "status: counterexample-not-reproduced", "exit: 1",
        ]

    @pytest.mark.parametrize("argv", [("verify", "fibers"), ("fold",)])
    def test_group_order_cap_exits_3(self, capsys, tmp_path, argv):
        path = tmp_path / "s8.txt"
        path.write_text(S8_ON_ZERO_MATRIX)
        code = main([*argv, "--matrix", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "error: group order exceeds the cap of 10080\n"
        assert captured.err == ""
        code, out = run_cli(capsys, *argv, "--matrix", str(path), "--json")
        assert code == 3
        assert json.loads(out) == {"error": "group order exceeds the cap of 10080"}

    def test_roots(self, capsys):
        code, out = run_cli(capsys, "verify", "roots", "--pair", "A3toB2")
        assert code == 0
        assert "status: verified" in out

    @pytest.mark.parametrize("target", ["roots", "fibers", "denominators"])
    @pytest.mark.parametrize("pair", [("AtoC", "12"), ("DtoB", "20")], ids=["A23", "D21"])
    def test_root_cap_is_a_limit(self, capsys, target, pair):
        # A23 has 276 positive roots and D21 has 420, past the cap of 240
        argv = ["verify", target, "--pair", pair[0], "--rank", pair[1]]
        assert run_cli(capsys, *argv) == (3, "error: the root system has more than 240 positive roots\n")
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 3
        assert json.loads(out) == {"error": "the root system has more than 240 positive roots"}

    @pytest.mark.parametrize("target", ["roots", "fibers"])
    def test_root_system_under_the_cap_is_verified(self, capsys, target):
        # A21 has 231 positive roots
        code, out = run_cli(capsys, "verify", target, "--pair", "AtoC", "--rank", "11")
        assert (code, out) == (0, "status: verified\nexit: 0\n")

    def test_fibers(self, capsys):
        code, out = run_cli(capsys, "verify", "fibers", "--pair", "D4toG2")
        assert code == 0

    @pytest.mark.parametrize("target,witness", [("roots", "(0, 0)"),
                                                ("fibers", "((0, 0, -1), (0, 0, 1))")],
                             ids=["roots", "fibers"])
    def test_root_lemma_mismatch(self, capsys, monkeypatch, target, witness):
        # a projection that reads one member of each orbit instead of summing it sends
        # alpha_3 to (0, 0), which is no root of B2, and -alpha_3 there too
        monkeypatch.setattr(roots, "project_vector", lambda v, orbits: tuple(v[o[0]] for o in orbits))
        code, out = run_cli(capsys, "verify", target, "--pair", "A3toB2")
        assert (code, out) == (1, f"status: mismatch\nwitness: {witness}\nexit: 1\n")

    def test_denominators(self, capsys):
        code, out = run_cli(capsys, "verify", "denominators", "--pair", "A3toB2")
        assert code == 0
        assert "status: verified" in out

    @pytest.mark.parametrize("owner,name,stub,detail", [
        (LaurentPolynomial, "denominator_vector", lambda self: (0, 0, 0),
         "denominator vector (0, 0, 0) is hit twice"),
        (roots, "almost_positive_roots", roots.positive_roots,
         "mismatch: missing [], extra [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]"),
    ], ids=["hit-twice", "missing-extra"])
    def test_denominators_mismatch(self, capsys, monkeypatch, owner, name, stub, detail):
        monkeypatch.setattr(owner, name, stub)
        code, out = run_cli(capsys, "verify", "denominators", "--pair", "A3toB2")
        assert (code, out) == (1, f"status: mismatch\ndetail: {detail}\nexit: 1\n")

    def test_denominators_at_the_limit(self, capsys):
        code, out = run_cli(capsys, "verify", "denominators", "--pair", "A5toC3", "--limit", "5")
        assert code == 3
        assert out == "status: limit-exceeded\nexit: 3\n"
        code, out = run_cli(capsys, "verify", "denominators", "--pair", "A5toC3", "--limit", "5",
                            "--json")
        assert code == 3
        assert json.loads(out) == {"status": "limit-exceeded", "exit": "3"}

    def test_finite_type_equality(self, capsys):
        code, out = run_cli(
            capsys, "verify", "finite-type-equality", "--pair", "A3toB2"
        )
        assert code == 0
        assert "ambient variables: 9" in out
        assert "quotient variables: 6" in out
        assert "status: verified" in out

    def test_finite_type_equality_mismatch(self, capsys, monkeypatch):
        project = LaurentPolynomial.project
        monkeypatch.setattr(LaurentPolynomial, "project", lambda p, orbits: -project(p, orbits))
        code, out = run_cli(capsys, "verify", "finite-type-equality", "--pair", "A3toB2")
        assert code == 1
        assert out.splitlines()[3:] == [
            "status: mismatch", "witness: -u1", "witness: -u1*u2^-1 - u1^-1 - u1^-1*u2^-1",
            "witness: -u1^-1*u2 - u1^-1", "exit: 1",
        ]

    def test_finite_type_equality_stops_at_the_ambient_limit(self, capsys, monkeypatch, tmp_path):
        # the Markov triangle is mutation-finite but of infinite type: no side closes
        calls = []

        def counting(matrix, max_seeds):
            calls.append(max_seeds)
            return seeds.enumerate_cluster_variables(matrix, max_seeds=max_seeds)

        monkeypatch.setattr(cli, "enumerate_cluster_variables", counting)
        path = tmp_path / "markov.txt"
        path.write_text("n = 3\n0 2 -2\n-2 0 2\n2 -2 0\n")
        argv = ("verify", "finite-type-equality", "--matrix", str(path), "--group", "(1)",
                "--limit", "5")
        assert run_cli(capsys, *argv) == (3, "status: limit-exceeded\nexit: 3\n")
        assert calls == [5]
        code, out = run_cli(capsys, *argv, "--json")
        assert (code, json.loads(out)) == (3, {"status": "limit-exceeded", "exit": "3"})
        assert calls == [5, 5]

    @pytest.mark.parametrize("name", ["squaretoK2", "hexagontoK2"])
    def test_finite_type_equality_refuses_acyclic_infinite_type(self, capsys, monkeypatch, name):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("an infinite-type pair reached the enumeration")

        monkeypatch.setattr(cli, "enumerate_cluster_variables", no_enumeration)
        error = ("ambient matrix is acyclic and its Cartan counterpart is Affine, "
                 "so it is not of finite type")
        start = time.perf_counter()
        argv = ("verify", "finite-type-equality", "--pair", name, "--limit", "300")
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, f"error: {error}\n", "")
        code = main([*argv, "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, f'{{\n  "error": "{error}"\n}}\n', "")
        assert time.perf_counter() - start < 1.0

    def test_affine_finiteness_small_ranks(self, capsys):
        code, out = run_cli(
            capsys, "verify", "affine-finiteness",
            "--max-rank", "3", "--limit", "50000",
        )
        assert code == 0
        assert "status: verified" in out
        assert "indefinite control:" in out
        assert "finite" in out

    def test_counterexamples(self, capsys):
        code, out = run_cli(capsys, "verify", "counterexamples")
        assert code == 0
        assert "stability: unstable" in out
        assert "commutation: mismatch" in out
        assert "status: verified" in out

    def test_counterexample_commuting_is_a_witness(self, capsys, monkeypatch):
        verify = cli.verify_commutation

        def agreeing(pair, word, require_stable):
            found = verify(pair, word, require_stable=require_stable)
            return SimpleNamespace(ok=True, quotient_side=found.quotient_side,
                                   projected_side=found.quotient_side)

        monkeypatch.setattr(cli, "verify_commutation", agreeing)
        code, out = run_cli(capsys, "verify", "counterexamples")
        assert code == 1
        assert "commutation: agreement" in out.splitlines()
        assert out.splitlines()[-2:] == ["status: counterexample-not-reproduced", "exit: 1"]

    def test_counterexamples_unknown_case(self, capsys):
        # remark-stabilite is the only case, so there is no flag to name one
        code = main(["verify", "counterexamples", "--case", "nope"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unrecognized arguments: --case nope" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_affine_finiteness_limit_is_not_a_witness(self, capsys):
        # the labeled ~A1 class has 2 members
        for extra in ((), ("--expect-fail",)):
            code, out = run_cli(capsys, "verify", "affine-finiteness",
                                "--max-rank", "2", "--limit", "1", *extra)
            assert code == 3
            assert out.splitlines() == ["~A1: limit-exceeded size=1", "status: limit-exceeded", "exit: 3"]

    def test_affine_finiteness_control_must_outgrow_the_closed_classes(self, capsys):
        # the control stops at 2 matrices, no later than the 2-member ~A1 classes close
        for extra in ((), ("--expect-fail",)):
            code, out = run_cli(capsys, "verify", "affine-finiteness",
                                "--max-rank", "2", "--limit", "2", *extra)
            assert code == 3
            assert out.splitlines() == [
                "~A1: finite size=2", "~A1(2): finite size=2",
                "indefinite control: limit-exceeded size=2", "status: limit-exceeded", "exit: 3",
            ]
        code, out = run_cli(capsys, "verify", "affine-finiteness", "--max-rank", "2", "--limit", "3")
        assert code == 0
        assert out.splitlines()[-3:] == [
            "indefinite control: limit-exceeded size=3", "status: verified", "exit: 0",
        ]

    def test_affine_finiteness_finite_control_is_a_witness(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_INDEFINITE_CONTROL", ((0, 1, 0), (-1, 0, 1), (0, -1, 0)))
        code, out = run_cli(capsys, "verify", "affine-finiteness", "--max-rank", "2")
        assert (code, out.splitlines()[2:]) == (1, [
            "indefinite control: finite size=14", "status: control-unexpectedly-finite", "exit: 1",
        ])

    def test_affine_finiteness_sweeps_past_rank_6(self, capsys):
        # ~B6 has rank 7; a sweep that stopped at rank 6 reported `verified` here
        argv = ["verify", "affine-finiteness", "--max-rank", "7", "--limit", "50000"]
        report = {"~A1": "finite size=2", "~A1(2)": "finite size=2",
                  "~F4(1)": "finite size=720", "~F4(2)": "finite size=720",
                  "~G2(1)": "finite size=12", "~G2(2)": "finite size=12",
                  "~B2": "finite size=6", "~B3": "finite size=40", "~B4": "finite size=420",
                  "~B5": "finite size=6048", "~B6": "limit-exceeded size=50000",
                  "status": "limit-exceeded", "exit": "3"}
        code, out = run_cli(capsys, *argv)
        assert (code, out) == (3, "".join(f"{key}: {value}\n" for key, value in report.items()))
        code, out = run_cli(capsys, *argv, "--json")
        assert (code, out) == (3, json.dumps(report, indent=2) + "\n")

    @pytest.mark.parametrize("max_rank", ["0", "1"])
    def test_affine_finiteness_empty_window_is_an_input_error(self, capsys, max_rank):
        code = main(["verify", "affine-finiteness", "--max-rank", max_rank])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == f"error: no affine diagram has rank <= {max_rank}; the smallest has rank 2\n"
        assert captured.err == ""


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["mutate", "--bogus"]) == 2

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, reads in READS.items() for flag in FLAGS if flag not in reads
    ])
    def test_limit_and_depth_only_where_read(self, capsys, command, flag):
        code = main([*command_argv(command), flag, "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"unrecognized arguments: {flag} 3" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, reads in READS.items() for flag in reads
    ])
    def test_each_command_accepts_the_flags_it_reads(self, command, flag):
        args = cli.build_parser().parse_args([*command_argv(command), flag, FLAG_VALUES[flag]])
        assert str(getattr(args, flag[2:].replace("-", "_"))) == FLAG_VALUES[flag]

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--pair", "A3toB2", "--limit"],
        ["verify", "commutation", "--pair", "A3toB2", "--depth"],
        ["verify", "commutation", "--pair", "A3toB2", "--random-words"],
        ["verify", "affine-finiteness", "--max-rank"],
    ])
    @pytest.mark.parametrize("value", ["-1", "-3", "x"])
    def test_counts_are_non_negative_integers(self, capsys, argv, value):
        code = main([*argv, value])
        captured = capsys.readouterr()
        assert code == 2
        assert f"argument {argv[-1]}: expected a non-negative integer, got '{value}'" in captured.err
        assert captured.out == ""
        assert "Traceback" not in captured.err

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        code, out = run_cli(capsys, "verify", "commutation", "--pair", "E6toF4", "--limit", "5")
        assert code == 3
        assert "stability: limit-exceeded" in out
        code, out = run_cli(capsys, "verify", "commutation", "--pair", "E6toF4")
        assert code == 0
        assert "stability: stable-exhaustive" in out
        assert "status: verified" in out

    def test_readme_flag_table_matches_the_parser(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        table = text.split("| command | flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        rows = {}
        for line in table.splitlines():
            _, command, flags, _ = line.split("|")
            rows[command.strip().strip("`")] = set(re.findall(r"`(--[a-z-]+)`", flags))
        assert rows == registered_flags(cli.build_parser())

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv, error", [
        (["fold", "--pair", "A3toB2", "--matrix", "m.txt", "--group", "(1 2)"],
         "--group applies only to --matrix, not to --pair"),
        (["fold", "--pair", "A3toB2", "--group", "(1 2)"],
         "--group applies only to --matrix, not to --pair"),
        (["fold", "--pair", "A3toB2", "--matrix", "m.txt"],
         "--pair and --matrix are two sources; give one"),
        (["mutate", "--pair", "A3toB2", "--matrix", "m.txt"],
         "--pair and --matrix are two sources; give one"),
        (["explore", "--matrix", "m.txt", "--rank", "3"], "--rank applies only to --pair"),
        (["fold", "--matrix", "m.txt", "--rank", "3"], "--rank applies only to --pair"),
        (["enumerate", "--rank", "3"], "--rank applies only to --pair"),
    ], ids=["pair-matrix-group", "pair-group", "pair-matrix", "mutate-pair-matrix",
            "explore-matrix-rank", "fold-matrix-rank", "enumerate-rank"])
    def test_conflicting_sources_are_input_errors(self, capsys, tmp_path, monkeypatch, argv, error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.txt").write_text(A3_WITH_GROUP)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, f"error: {error}\n", "")
        code = main([*argv, "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, f'{{\n  "error": "{error}"\n}}\n', "")

    # a token that is not an integer is named with where it was read, not
    # with Python's conversion message
    @pytest.mark.parametrize("argv, text, error", [
        (["mutate", "--pair", "A3toB2", "--word", "1 x"], None, "word: expected an integer, got 'x'"),
        (["orbit-mutate", "--pair", "A3toB2", "--word", "1,2.5"], None,
         "word: expected an integer, got '2.5'"),
        (["mutate", "--matrix", "m.txt"], "n = x\n0\n", "matrix header: expected an integer, got 'x'"),
        (["explore", "--matrix", "m.txt"], "n = 2\n0 1\n-1 x\n",
         "matrix row 2: expected an integer, got 'x'"),
        (["fold", "--matrix", "m.txt"], "n = 2\n0 1.5\n-1 0\ngroup: (1)\n",
         "matrix row 1: expected an integer, got '1.5'"),
        (["fold", "--matrix", "m.txt", "--group", "(1 x)"], A3_FILE,
         "permutation '(1 x)': expected an integer, got 'x'"),
    ], ids=["word", "orbit-word", "header", "row-2", "row-1", "group"])
    def test_a_token_that_is_not_an_integer_is_named(self, capsys, tmp_path, monkeypatch, argv, text,
                                                     error):
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / "m.txt").write_text(text)
        assert run_cli(capsys, *argv) == (2, f"error: {error}\n")
        code, out = run_cli(capsys, *argv, "--json")
        assert (code, json.loads(out)) == (2, {"error": error})

    def test_skew_symmetrizability_witness_is_1_based(self, capsys, tmp_path):
        # the library's witness (0, 1) is the entry pair of vertices 1 and 2
        path = tmp_path / "m.txt"
        path.write_text("n = 2\n0 1\n1 0\n")
        expected = "error: matrix is not skew-symmetrizable, witness entry pair (1, 2)\n"
        assert run_cli(capsys, "fold", "--matrix", str(path)) == (2, expected)
        path.write_text("n = 3\n0 0 0\n0 0 1\n0 1 0\n")
        code, out = run_cli(capsys, "explore", "--matrix", str(path), "--json")
        assert (code, json.loads(out)) == (
            2, {"error": "matrix is not skew-symmetrizable, witness entry pair (2, 3)"})

    def test_json_on_error(self, capsys):
        code, out = run_cli(capsys, "catalog", "show", "nope", "--json")
        assert code == 2
        data = json.loads(out)
        assert "error" in data

    @pytest.mark.parametrize("argv, message", [
        (["catalog", "show", "--json"], "the following arguments are required: name"),
        (["enumerate", "--pair", "A3toB2", "--limit", "x", "--json"],
         "argument --limit: expected a non-negative integer, got 'x'"),
    ])
    def test_json_on_usage_error(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {"error": message}
        assert captured.err == ""
        # without --json, argparse's usage text on stderr as before
        assert main([arg for arg in argv if arg != "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cluster-fold ")
        assert captured.err.endswith(f": error: {message}\n")


@pytest.mark.skipif(shutil.which("cluster-fold") is None,
                    reason="console script not installed")
def test_console_script():
    proc = subprocess.run(
        ["cluster-fold", "fold", "--pair", "A3toB2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "quotient 1: 0 -2" in proc.stdout


def test_closed_pipe_is_neither_a_traceback_nor_a_witness():
    # the report is 317 KB, past any pipe buffer; the reader keeps 100 bytes and closes
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    argv = [sys.executable, "-m", "clusterfold.cli", "catalog", "show", "AtoC", "--rank", "150"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(100).startswith(b"name: A299toC150\nambient: n = 299 / ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")  # catalog show's own code


def test_console_script_entry_point(capsys, monkeypatch):
    """The installed script's target, read from pyproject.toml, is cli.main, and
    run as the script runs it (argv from sys.argv) it prints what main prints."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["cluster-fold"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is cli.main
    argv = ["fold", "--pair", "A3toB2"]
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["cluster-fold", *argv])
    assert (entry(), capsys.readouterr().out) == expected
    assert expected[0] == 0
    assert "quotient 1: 0 -2" in expected[1]
