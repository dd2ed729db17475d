"""Write tests/corpus.jsonl: the answers of this checkout's `alexkit` on the
benchmark's inputs and on the fixtures, which `test_corpus.py` replays.

Usage: PYTHONPATH=src python3 tests/make_corpus.py

The runs are every warm-up and operation of the three workloads of
`bench/workloads.py` at seeds 1-3, and `invariants` on every fixture in
tests/data, plain and with --projective.  Each line is one run: a name,
its argv with the input file's path written as INPUT, the input's text
(null for a `seifert` call), and the stdout, stderr and exit code of
`alexkit.cli.main`.  This records answers and checks none of them, so run
it on a checkout whose answers are known good; it writes nothing under
bench/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "bench"))

import workloads  # noqa: E402

from alexkit.cli import main  # noqa: E402

INPUT = "INPUT"
SEEDS = (1, 2, 3)


def record(name: str, argv: list, path) -> dict:
    """One run of `main(argv)`, with `path` (an item of argv, or None)
    replaced by INPUT and its text kept."""
    text = None
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        argv = [INPUT if item == path else item for item in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([path if item == INPUT else item for item in argv])
    return {"name": name, "argv": argv, "input": text,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def runs():
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                ops = [(f"warmup{i}", argv) for i, argv in
                       enumerate(workloads.warmup(workload, workdir))]
                ops += [(f"op{i:02d}", op["argv"]) for i, op in
                        enumerate(workloads.build(workload, seed, workdir))]
                for label, argv in ops:
                    path = argv[1] if argv[0] != "seifert" else None
                    yield record(f"{workload}:{seed}:{label}", argv, path)
    data = os.path.join(HERE, "data")
    for name in sorted(os.listdir(data)):
        path = os.path.join(data, name)
        argv = ["invariants", path] + ["--matrix"] * name.endswith(".json")
        yield record(f"fixture:{name}", argv, path)
        yield record(f"fixture:{name}:projective", argv + ["--projective"],
                     path)


def write_corpus():
    with open(os.path.join(HERE, "corpus.jsonl"), "w",
              encoding="utf-8") as fh:
        for run in runs():
            fh.write(json.dumps(run, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_corpus()
