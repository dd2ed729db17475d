"""Replay tests/corpus.jsonl: every recorded run gives the same stdout,
stderr and exit code byte for byte.  `make_corpus.py` says what the runs
are and how the file is written."""

import json
from pathlib import Path

import pytest

from alexkit.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus.jsonl"
RUNS = [json.loads(line) for line in
        CORPUS.read_text(encoding="utf-8").splitlines()]
INPUT = "INPUT"


@pytest.mark.parametrize("run", RUNS, ids=[run["name"] for run in RUNS])
def test_corpus_replays(tmp_path, capsys, run):
    path = tmp_path / "input"
    if run["input"] is not None:
        path.write_text(run["input"], encoding="utf-8")
    code = main([str(path) if item == INPUT else item
                 for item in run["argv"]])
    assert (capsys.readouterr(), code) == \
        ((run["stdout"], run["stderr"]), run["code"])
