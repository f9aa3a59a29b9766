"""Every CLI golden (tests/golden/cli/*.json) replays byte for byte through ``cli.main``.

``tests/golden/cli/regenerate.py`` writes the files; each argv runs from the
corpus directory, so the input files it names resolve against it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from clusterfold.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "cli"
GOLDENS = sorted(CORPUS.glob("*.json"))


def _regenerate_module():
    spec = importlib.util.spec_from_file_location("golden_regenerate", CORPUS / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_corpus_is_there():
    assert len(GOLDENS) >= 80


def test_every_golden_has_its_argv_and_every_argv_its_golden():
    regenerate = _regenerate_module()
    names = [regenerate.file_name(argv) for argv in regenerate.ARGVS]
    assert len(set(names)) == len(names), "two argvs write one golden"
    assert sorted(set(names) - {p.name for p in GOLDENS}) == [], "an argv has no golden"
    assert sorted({p.name for p in GOLDENS} - set(names)) == [], "a golden has no argv"
    for path in GOLDENS:
        assert regenerate.file_name(json.loads(path.read_text(encoding="utf-8"))["argv"]) \
            == path.name


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_cli_output_is_golden(capsys, monkeypatch, path):
    golden = json.loads(path.read_text(encoding="utf-8"))
    monkeypatch.chdir(CORPUS)
    code = main(golden["argv"])
    captured = capsys.readouterr()
    assert captured.out == "\n".join(golden["stdout"])
    assert captured.err == "\n".join(golden["stderr"])
    assert code == golden["exit"]


def test_check_writes_nothing_and_names_each_golden_that_would_change(
        capsys, monkeypatch, tmp_path):
    regenerate = _regenerate_module()
    argvs = [["fold", "--pair", "A3toB2"], ["catalog", "show", "A3toB2"]]
    monkeypatch.setattr(regenerate, "ARGVS", argvs)
    monkeypatch.setattr(regenerate, "HERE", tmp_path)
    for argv in argvs:
        name = regenerate.file_name(argv)
        (tmp_path / name).write_text((CORPUS / name).read_text(encoding="utf-8"), encoding="utf-8")
    assert regenerate.main(["--check"]) == 0
    assert capsys.readouterr().out == "0 of 2 goldens would change, 0 files have no argv\n"
    changed = tmp_path / regenerate.file_name(argvs[1])
    changed.write_text("{}\n", encoding="utf-8")
    (tmp_path / "stray.json").write_text("{}\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert regenerate.main(["--check"]) == 1
    assert capsys.readouterr().out == ('would change: ["catalog", "show", "A3toB2"]\n'
                                       "no argv writes: stray.json\n"
                                       "1 of 2 goldens would change, 1 files have no argv\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
