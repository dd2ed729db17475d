"""Inputs that once ran without bound, each in a fresh interpreter: each
must end with the stated exit code within a wall-time bound."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import alexkit

# seconds; each input below ends in well under one second
WALL_BOUND = 10


def _run_cli(*argv):
    """(`python -m alexkit.cli` in a fresh interpreter, its wall time)."""
    src = str(Path(alexkit.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "alexkit.cli", *argv],
        capture_output=True, text=True, timeout=2 * WALL_BOUND,
        env=dict(os.environ, PYTHONPATH=src))
    return proc, time.perf_counter() - start


def test_seifert_prime_weight_over_degree_cap():
    """Δ(u) = (u^N′ − 1)/(u − 1) with N′ = 10⁸ + 7 has degree 10⁸ + 6: it
    is refused from the weights, before any coefficient list exists."""
    proc, wall = _run_cli("seifert", "--weights", "1,1,100000007", "--q", "2")
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: Seifert polynomial degree 100000006 "
        "exceeds cap 100000"]


def test_invariants_power_2000_commutator(tmp_path):
    """a^2000 b a^-2000 b^-1: Δ = (t1^2000 − 1)/(t1 − 1), whose 19
    factors Φ_d(t1), 1 < d | 2000, are read off its exponent sequence."""
    path = tmp_path / "g.grp"
    path.write_text("gens: a b\nrel: a^2000 b a^-2000 b^-1\n")
    proc, wall = _run_cli("invariants", str(path))
    assert wall < WALL_BOUND
    assert proc.returncode == 0, proc.stderr
    factored = json.loads(proc.stdout)["factored"]
    assert factored["constant"] == 1
    assert [f["multiplicity"] for f in factored["factors"]] == [1] * 19
