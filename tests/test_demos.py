"""The demos print exactly their golden output (tests/golden/<demo>.txt)."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in (ROOT / "tests" / "golden").glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_golden(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_text(encoding="utf-8")
