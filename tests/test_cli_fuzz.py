"""CLI fuzz: every searching and folding command answers any small input with
an exit code, 0 to 3, and never a traceback.

Matrices are skew-symmetrizable with n <= 5 and |entries| <= 4, each with
an involution group: a random one (which may not preserve the matrix, an
input error), the identity, or the swap of two copies of a matrix (which
always folds).  Limits are tiny and ``laurent.MAX_WORK`` is lowered, so no
example runs long.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterfold.cli import main
from test_exchange import bounded_skew_symmetrizable_rows

COMMANDS = [
    ["explore", "--limit", "20"],
    ["enumerate", "--limit", "20"],
    ["fold"],
    ["verify", "commutation", "--depth", "1", "--random-words", "2", "--limit", "20"],
    ["verify", "denominators", "--limit", "20"],
    ["verify", "finite-type-equality", "--limit", "20"],
]
WORK_BOUND = 2_000  # multiply-adds; the bound of every example's products and divisions


def matrix_text(rows, cycles) -> str:
    group = "".join(f"({a + 1} {b + 1})" for a, b in cycles) or "(1)"
    lines = [f"n = {len(rows)}", *(" ".join(map(str, row)) for row in rows), f"group: {group}"]
    return "\n".join(lines) + "\n"


@st.composite
def folded_inputs(draw):
    """A matrix file with one involution generator."""
    kind = draw(st.sampled_from(["doubled", "involution", "identity"]))
    if kind == "doubled":  # B ⊕ B, its two copies swapped
        rows = draw(bounded_skew_symmetrizable_rows(max_n=2))
        m = len(rows)
        rows = [row + [0] * m for row in rows] + [[0] * m + row for row in rows]
        return matrix_text(rows, [(i, i + m) for i in range(m)])
    rows = draw(bounded_skew_symmetrizable_rows())
    if kind == "identity":
        return matrix_text(rows, [])
    order = draw(st.permutations(range(len(rows))))
    swaps = draw(st.integers(1, len(rows) // 2))
    return matrix_text(rows, [(order[2 * i], order[2 * i + 1]) for i in range(swaps)])


@given(folded_inputs())
@settings(max_examples=40, deadline=None)
@example("n = 2\n0 4\n-2 0\ngroup: (1)\n")
@example(f"n = 3\n0 {2**32} 0\n-1 0 1\n0 -1 0\ngroup: (1)\n")  # the 2^32 mutate input
@example("n = 6\n0 2 0 0 0 0\n-2 0 2 0 0 0\n0 -2 0 0 0 0\n"  # the bench reproducer input
         "0 0 0 0 2 0\n0 0 0 -2 0 2\n0 0 0 0 -2 0\ngroup: (1 4)(2 5)(3 6)\n")
def test_every_command_answers_with_an_exit_code(text):
    with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as patch:
        patch.setattr("clusterfold.laurent.MAX_WORK", WORK_BOUND)
        path = Path(folder) / "matrix.txt"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--matrix", str(path)])
            assert code in (0, 1, 2, 3), (command, code)
            assert "Traceback" not in out.getvalue() + err.getvalue(), command
