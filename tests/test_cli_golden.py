"""Every CLI golden (tests/golden/cli/*.json) replays byte for byte through ``cli.main``.

``tests/golden/cli/regenerate.py`` writes the files.
"""

import json
from pathlib import Path

import pytest

from clusterfold.cli import main

GOLDENS = sorted((Path(__file__).resolve().parent / "golden" / "cli").glob("*.json"))


def test_the_corpus_is_there():
    assert len(GOLDENS) >= 20


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_cli_output_is_golden(capsys, path):
    golden = json.loads(path.read_text(encoding="utf-8"))
    code = main(golden["argv"])
    captured = capsys.readouterr()
    assert captured.out == "\n".join(golden["stdout"])
    assert captured.err == "\n".join(golden["stderr"])
    assert code == golden["exit"]
