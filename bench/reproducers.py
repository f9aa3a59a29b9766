"""Robustness reproducers, kept out of the timed workloads because they fail.

    python3 bench/reproducers.py

The input is two disjoint copies of [[0,2,0],[-2,0,2],[0,-2,0]] with the group
(1 4)(2 5)(3 6), written to ``.bench_out/`` in the checkout.  Each reproducer
runs the CLI in its own process under a deadline that this script enforces.
The expected answer for both is a clean exit code 3 (limit exceeded) with no
traceback.  Both are known failures at commit e1cf929: ``verify commutation``
dies with an uncaught EntryOverflowError (exit code 1, the "witness found"
code) after about 0.16 s, and ``enumerate --limit 300`` does not finish.

Prints one JSON line with ``attempted``, ``failed`` and the outcome of each
reproducer; exits 1 when any of them fails, so a fix shows as failed: 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MATRIX_TEXT = """\
n = 6
0 2 0 0 0 0
-2 0 2 0 0 0
0 -2 0 0 0 0
0 0 0 0 2 0
0 0 0 -2 0 2
0 0 0 0 -2 0
group: (1 4)(2 5)(3 6)
"""
EXPECTED_EXIT = 3
REPRODUCERS = (
    ("verify-commutation-overflow", ["verify", "commutation"], 30.0),
    ("enumerate-limit-300", ["enumerate", "--limit", "300"], 20.0),
)
CLI = "import sys; sys.path.insert(0, sys.argv.pop(1)); from clusterfold.cli import main; sys.exit(main())"


def run(name: str, argv: list[str], deadline_s: float, matrix: Path) -> dict:
    command = [sys.executable, "-c", CLI, str(ROOT / "src"), *argv, "--matrix", str(matrix)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=deadline_s)
    except subprocess.TimeoutExpired:
        outcome, ok = f"no answer within the {deadline_s:g} s deadline", False
    else:
        traceback = "Traceback" in proc.stderr
        last = proc.stderr.strip().splitlines()[-1] if traceback else ""
        outcome = f"exit {proc.returncode}" + (f", traceback: {last}" if traceback else "")
        ok = proc.returncode == EXPECTED_EXIT and not traceback
    return {"name": name, "argv": argv, "ok": ok, "outcome": outcome,
            "seconds": round(time.perf_counter() - start, 3)}


def main() -> int:
    if not (ROOT / "src" / "clusterfold" / "__init__.py").is_file():
        print(f"error: no clusterfold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    matrix = out / "reproducer-matrix.txt"
    matrix.write_text(MATRIX_TEXT, encoding="utf-8")
    results = [run(name, argv, deadline, matrix) for name, argv, deadline in REPRODUCERS]
    failed = sum(not r["ok"] for r in results)
    print(json.dumps({"attempted": len(results), "failed": failed, "reproducers": results}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
