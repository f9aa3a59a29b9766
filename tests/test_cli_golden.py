"""Every CLI golden (tests/golden/cli/*.json) replays byte for byte through ``cli.main``.

``tests/golden/cli/regenerate.py`` writes the files; each argv runs in a
temporary directory holding a copy of the corpus's ``inputs/``, so the input
files it names resolve there and the file an ``--emit-dot`` argv writes
lands there, to be compared with the golden's "dot" lines.
"""

import importlib.util
import json
import shutil
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
    assert len(GOLDENS) >= 140
    assert sum("dot" in json.loads(p.read_text(encoding="utf-8")) for p in GOLDENS) == 2


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
def test_cli_output_is_golden(capsys, monkeypatch, tmp_path, path):
    golden = json.loads(path.read_text(encoding="utf-8"))
    shutil.copytree(CORPUS / "inputs", tmp_path / "inputs")
    monkeypatch.chdir(tmp_path)
    argv = golden["argv"]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == "\n".join(golden["stdout"])
    assert captured.err == "\n".join(golden["stderr"])
    assert code == golden["exit"]
    if "--emit-dot" in argv:
        dot = tmp_path / argv[argv.index("--emit-dot") + 1]
        assert dot.read_text() == "\n".join(golden["dot"])
    else:
        assert "dot" not in golden


def test_check_writes_nothing_and_names_each_golden_that_would_change(
        capsys, monkeypatch, tmp_path):
    regenerate = _regenerate_module()
    dot_argv = ["fold", "--pair", "D4toG2", "--emit-dot", "quotient.dot"]
    argvs = [["fold", "--pair", "A3toB2"], ["catalog", "show", "A3toB2"], dot_argv]
    monkeypatch.setattr(regenerate, "ARGVS", argvs)
    monkeypatch.setattr(regenerate, "HERE", tmp_path)
    for argv in argvs:
        name = regenerate.file_name(argv)
        (tmp_path / name).write_text((CORPUS / name).read_text(encoding="utf-8"), encoding="utf-8")
    assert regenerate.main(["--check"]) == 0
    assert capsys.readouterr().out == "0 of 3 goldens would change, 0 files have no argv\n"
    changed = tmp_path / regenerate.file_name(argvs[1])
    changed.write_text("{}\n", encoding="utf-8")
    # the golden of the DOT file less one edge, its stdout unchanged
    dotted = tmp_path / regenerate.file_name(dot_argv)
    golden = json.loads(dotted.read_text(encoding="utf-8"))
    edge = next(i for i, line in enumerate(golden["dot"]) if "->" in line)
    del golden["dot"][edge]
    dotted.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    (tmp_path / "stray.json").write_text("{}\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert regenerate.main(["--check"]) == 1
    assert capsys.readouterr().out == ('would change: ["catalog", "show", "A3toB2"]\n'
                                       f"would change: {json.dumps(dot_argv)}\n"
                                       "no argv writes: stray.json\n"
                                       "2 of 3 goldens would change, 1 files have no argv\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
