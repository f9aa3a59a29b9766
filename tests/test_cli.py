"""Command-line interface: commands, exit codes, JSON output, file I/O."""

import json
import shutil
import subprocess
import time

import pytest

from clusterfold import cli, folding, seeds
from clusterfold.cli import main

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


# S8 on eight isolated vertices: order 40,320, past the group-order cap
S8_ON_ZERO_MATRIX = "n = 8\n" + "0 0 0 0 0 0 0 0\n" * 8 + "group: (1 2 3 4 5 6 7 8)\ngroup: (1 2)\n"


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

    def test_emit_dot(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out = run_cli(
            capsys, "enumerate", "--pair", "A3toB2", "--emit-dot", str(target)
        )
        assert code == 0
        text = target.read_text()
        assert text.count("--") == 21

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
        code, out = run_cli(capsys, "catalog", "show", "nope")
        assert code == 2

    def test_show_without_name(self, capsys):
        code, out = run_cli(capsys, "catalog", "show")
        assert code == 2


class TestVerify:
    def test_commutation(self, capsys):
        code, out = run_cli(
            capsys, "verify", "commutation", "--pair", "A3toB2",
            "--depth", "3", "--random-words", "10",
        )
        assert code == 0
        assert "stability: stable-exhaustive" in out
        assert "status: verified" in out

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

    def test_commutation_limit_is_not_verified(self, capsys):
        # the E6toF4 orbit-mutation class has 120 members
        code, out = run_cli(capsys, "verify", "commutation", "--pair", "E6toF4", "--limit", "5")
        assert code == 3
        assert "stability: limit-exceeded" in out
        assert "class size: 5" in out
        assert "verified" not in out
        assert "witness" not in out

    def test_commutation_mismatch_in_random_words(self, capsys, monkeypatch):
        # the exhaustive words have length <= 2, so the first longer word
        # is the first random word; its draws match the RNG stream
        checked = []

        def fails_past_length_2(pair, word):
            checked.append(word)
            return folding.CommutationReport(len(word) <= 2, word, None, None)

        monkeypatch.setattr(cli, "verify_commutation", fails_past_length_2)
        code, out = run_cli(
            capsys, "verify", "commutation", "--pair", "E6toF4",
            "--depth", "2", "--random-words", "30",
        )
        assert code == 1
        assert out.splitlines()[1:3] == ["status: mismatch", "word: 4 1 3 4 4 3 4"]
        assert len(checked) == 22

    def test_counterexample_found_stable_is_a_witness(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_stability",
                            lambda pair, max_nodes: folding.StabilityVerdict("stable-exhaustive", 3, 7))
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

    def test_fibers(self, capsys):
        code, out = run_cli(capsys, "verify", "fibers", "--pair", "D4toG2")
        assert code == 0

    def test_denominators(self, capsys):
        code, out = run_cli(capsys, "verify", "denominators", "--pair", "A3toB2")
        assert code == 0
        assert "status: verified" in out

    def test_finite_type_equality(self, capsys):
        code, out = run_cli(
            capsys, "verify", "finite-type-equality", "--pair", "A3toB2"
        )
        assert code == 0
        assert "ambient variables: 9" in out
        assert "quotient variables: 6" in out
        assert "status: verified" in out

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

    def test_counterexamples_unknown_case(self, capsys):
        code, out = run_cli(
            capsys, "verify", "counterexamples", "--case", "nope"
        )
        assert code == 2


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["mutate", "--bogus"]) == 2

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in ("mutate", "fold", "orbit-mutate")
        for flag in ("--limit", "--depth")
    ] + [("enumerate", "--depth"), ("explore", "--depth")])
    def test_limit_and_depth_only_where_read(self, capsys, command, flag):
        code = main([command, "--pair", "A3toB2", flag, "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"unrecognized arguments: {flag} 3" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_json_on_error(self, capsys):
        code, out = run_cli(capsys, "catalog", "show", "nope", "--json")
        assert code == 2
        data = json.loads(out)
        assert "error" in data


@pytest.mark.skipif(shutil.which("cluster-fold") is None,
                    reason="console script not installed")
def test_console_script():
    proc = subprocess.run(
        ["cluster-fold", "fold", "--pair", "A3toB2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "quotient 1: 0 -2" in proc.stdout
