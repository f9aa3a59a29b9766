"""Rewrite the CLI golden corpus: one JSON file per argv in this directory.

Each file holds the argv, the exit code, and stdout and stderr as lists of
lines, as ``cli.main`` gives them in-process.  Run from the repository root:

    PYTHONPATH=src python3 tests/golden/cli/regenerate.py

``tests/test_cli_golden.py`` replays every file and compares the bytes.  Any
golden that changes is a change of the CLI's output, so say why it changed.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from clusterfold import catalog, cli

HERE = Path(__file__).resolve().parent

FIXED_PAIRS = [name for name in catalog.list_names() if not name.endswith("(n)")]

ARGVS = [
    *(["verify", "commutation", "--pair", name, "--depth", "2", "--random-words", "20"]
      for name in FIXED_PAIRS),
    ["verify", "counterexamples"],
    ["explore", "--pair", "A5toC3"],
    ["explore", "--pair", "E6t-F4t1", "--limit", "2000"],
    ["verify", "affine-finiteness", "--max-rank", "4"],
    ["verify", "affine-finiteness", "--max-rank", "4", "--json"],
    ["verify", "commutation", "--pair", "E7t-F4t2", "--limit", "100"],
]


def file_name(argv) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", " ".join(argv)) + ".json"


def run(argv) -> dict:
    """The argv, exit code, stdout and stderr of one in-process ``cli.main`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue().split("\n"), "stderr": err.getvalue().split("\n")}


def main():
    for old in HERE.glob("*.json"):
        old.unlink()
    for argv in ARGVS:
        text = json.dumps(run(argv), indent=1) + "\n"
        (HERE / file_name(argv)).write_text(text, encoding="utf-8")
    print(f"wrote {len(ARGVS)} goldens to {HERE}")


if __name__ == "__main__":
    main()
