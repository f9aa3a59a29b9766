"""Rewrite the CLI golden corpus: one JSON file per argv in this directory.

Each file holds the argv, the exit code, and stdout and stderr as lists of
lines, as ``cli.main`` gives them in-process.  An argv with ``--emit-dot``
also keeps the lines of the file it writes, under "dot".  Each argv runs in
a fresh temporary directory holding a copy of ``inputs/``, so the input
files are named by relative paths and nothing is written here but the
goldens.  Run from the repository root:

    PYTHONPATH=src python3 tests/golden/cli/regenerate.py           # rewrite
    PYTHONPATH=src python3 tests/golden/cli/regenerate.py --check   # compare

``--check`` writes nothing: it prints the argv of every golden that would
change (a missing file included) and every file no argv writes, and exits 1
when there is any.  ``tests/test_cli_golden.py`` replays every file and
compares the bytes.  Any golden that changes is a change of the CLI's
output, so say why it changed.
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

from clusterfold import catalog, cli

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

FIXED_PAIRS = [name for name in catalog.list_names() if not name.endswith("(n)")]
FINITE_PAIRS = ["A3toB2", "A5toC3", "D4toB3", "D4toG2", "E6toF4"]
FAMILIES = [name[:-len("(n)")] for name in catalog.list_names() if name.endswith("(n)")]
# each parametric family at its two smallest ranks
FAMILY_RANKS = [(family, str(catalog._PARAMETRIC[family][1] + step))
                for family in FAMILIES for step in (0, 1)]

ARGVS = [
    *(["verify", "commutation", "--pair", name, "--depth", "2", "--random-words", "20"]
      for name in FIXED_PAIRS),
    ["verify", "counterexamples"],
    ["explore", "--pair", "A5toC3"],
    ["explore", "--pair", "E6t-F4t1", "--limit", "2000"],
    ["verify", "affine-finiteness", "--max-rank", "4"],
    ["verify", "affine-finiteness", "--max-rank", "4", "--json"],
    ["verify", "commutation", "--pair", "E7t-F4t2", "--limit", "100"],
    *(["fold", "--pair", name] for name in FIXED_PAIRS),
    *(["fold", "--pair", name, "--json"] for name in FIXED_PAIRS),
    ["catalog", "list"],
    *(["catalog", "show", name] for name in FIXED_PAIRS),
    *(["verify", target, "--pair", name, *limit] for name in FINITE_PAIRS
      for target, limit in (("roots", ()), ("fibers", ()),
                            ("finite-type-equality", ("--limit", "2000")))),
    ["enumerate", "--pair", "A3toB2"],
    ["enumerate", "--pair", "A3toB2", "--json"],  # a repeated key
    ["orbit-mutate", "--pair", "E6toF4", "--word", "1 2 1"],
    ["mutate", "--pair", "A3toB2", "--word", "1 2"],
    *(argv for family, n in FAMILY_RANKS for argv in (
        ["fold", "--pair", family, "--rank", n],
        ["catalog", "show", family, "--rank", n],
        ["verify", "commutation", "--pair", family, "--rank", n, "--depth", "2",
         "--random-words", "20"])),
    *(["verify", "denominators", "--pair", name] for name in FINITE_PAIRS),
    ["verify", "commutation", "--pair", "E6toF4"],  # depth 4 and 200 random words
    ["mutate", "--pair", "A3toB2", "--word", "1 1 2 2"],  # a step back
    ["orbit-mutate", "--matrix", "inputs/triangle-rotation.txt"],  # the initial seed
    ["enumerate", "--pair", "A3toB2", "--emit-dot", "exchange.dot"],
    ["fold", "--pair", "D4toG2", "--emit-dot", "quotient.dot"],
    # error paths
    ["mutate", "--pair", "A3toB2", "--word", "1 x"],
    ["fold", "--pair", "A3toB9"],
    ["fold", "--matrix", "inputs/triangle-rotation.txt"],
    ["orbit-mutate", "--matrix", "inputs/triangle-rotation.txt", "--word", "1"],
    ["enumerate", "--matrix", "inputs/rank2-wild.txt", "--limit", "30"],  # the work bound
    ["explore", "--matrix", "inputs/indefinite-control.txt"],  # an entry overflow
]


def file_name(argv) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", " ".join(argv)) + ".json"


def run(argv) -> dict:
    """The argv, exit code, stdout and stderr of one in-process ``cli.main`` run
    from the current directory, and the lines of the file ``--emit-dot`` names."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    golden = {"argv": list(argv), "exit": code,
              "stdout": out.getvalue().split("\n"), "stderr": err.getvalue().split("\n")}
    if "--emit-dot" in argv:
        golden["dot"] = Path(argv[argv.index("--emit-dot") + 1]).read_text().split("\n")
    return golden


def render(argv) -> str:
    """The text of the golden of one argv, run in a scratch copy of ``inputs/``."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(INPUTS, Path(scratch) / "inputs")
        os.chdir(scratch)
        try:
            return json.dumps(run(argv), indent=1) + "\n"
        finally:
            os.chdir(cwd)


def main(args) -> int:
    check = args == ["--check"]
    if args and not check:
        print("usage: regenerate.py [--check]", file=sys.stderr)
        return 2
    texts = {file_name(argv): (argv, render(argv)) for argv in ARGVS}
    if check:
        changed = [argv for name, (argv, text) in texts.items()
                   if not (HERE / name).is_file()
                   or (HERE / name).read_text(encoding="utf-8") != text]
        strays = [path.name for path in sorted(HERE.glob("*.json")) if path.name not in texts]
        for argv in changed:
            print("would change:", json.dumps(argv))
        for name in strays:
            print("no argv writes:", name)
        print(f"{len(changed)} of {len(texts)} goldens would change, {len(strays)} files have no argv")
        return 1 if changed or strays else 0
    for old in HERE.glob("*.json"):
        old.unlink()
    for name, (_, text) in texts.items():
        (HERE / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(texts)} goldens to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
