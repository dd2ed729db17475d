"""Inputs that once ran without bound, each in a fresh interpreter: each
must end with the stated exit code within a wall-time bound."""

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import alexkit
from alexkit.laurent import LaurentPoly, _nextprime

from conftest import data_path, poly

# seconds; each input below ends in about a second or less
WALL_BOUND = 10


# bytes of address space for each child, so that a regression that fills
# the memory fails its test rather than the machine
MEMORY_BOUND = 1 << 30


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BOUND, MEMORY_BOUND))


def _run_cli(*argv, **env):
    """(`python -m alexkit.cli` in a fresh interpreter under MEMORY_BOUND,
    with `env` added to its environment, its wall time)."""
    src = str(Path(alexkit.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "alexkit.cli", *argv],
        capture_output=True, text=True, timeout=2 * WALL_BOUND,
        env=dict(os.environ, PYTHONPATH=src, **env), preexec_fn=_limit_memory)
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


def test_invariants_power_20000_commutator(tmp_path):
    """a^20000 b a^-20000 b^-1: Δ = (t1^20000 − 1)/(t1 − 1), of degree
    19999, whose 29 factors Φ_d(t1), 1 < d | 20000, are read off its
    exponent sequence."""
    path = tmp_path / "g.grp"
    path.write_text("gens: a b\nrel: a^20000 b a^-20000 b^-1\n")
    proc, wall = _run_cli("invariants", str(path))
    assert wall < WALL_BOUND
    assert proc.returncode == 0, proc.stderr
    factored = json.loads(proc.stdout)["factored"]
    assert factored["constant"] == 1
    assert [f["multiplicity"] for f in factored["factors"]] == [1] * 29


def test_matrix_delta_over_print_limit(tmp_path):
    """Δ = 3^9100 has more digits than Python prints: refused with one
    line, not a traceback."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"vars": ["t"], "rows": [["3^9100*(t-1)", "3^9100*(t+1)"]]}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("alexkit: cap exceeded: ")


@pytest.mark.parametrize("entry", ["11^111111211", "(11*t)^111111211"],
                         ids=["integer", "monomial"])
def test_matrix_power_over_print_limit(tmp_path, entry):
    """|11|^k is the leading coefficient of 11^k and of (11·t)^k, and at
    k = 111111211 it has some 1.2·10⁸ digits: the power is refused from
    its base and exponent, before it is expanded.  It once ran without
    bound."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["t"], "rows": [[entry]]}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < 2
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: bits of a power's leading coefficient "
        "333333633 exceeds cap 14284"]


def test_matrix_power_under_print_limit(tmp_path):
    """11^4000 has 4166 digits, within what Python prints: answered, and
    the entry is echoed in full."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["t"], "rows": [["11^4000"]]}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["input"]["rows"] == [[str(11 ** 4000)]]


@pytest.mark.parametrize("name,text,code,line", [
    ("m.json", json.dumps({"vars": ["t"], "rows": [["7^1500*t + 1", "0"]]}),
     3, "alexkit: cap exceeded: bits of a power's leading coefficient 3000 "
     "exceeds cap 2126"),
    ("g.grp", f"gens: a b\nrel: a^{'1' * 700} b\n", 2,
     "alexkit: line 2, column 6: exponent on 'a' has more than 640 digits"),
], ids=["matrix-power", "presentation-exponent"])
def test_print_limit_follows_interpreter(tmp_path, name, text, code, line):
    """Under a digit limit of 640 for int and str conversion, a number
    past it is refused with one line, as past the default 4300: a power
    of 1268 digits, and an exponent of 700.  Each once ended in a
    ValueError traceback."""
    path = tmp_path / name
    path.write_text(text)
    argv = ["--matrix", str(path)] if name.endswith(".json") else [str(path)]
    proc, wall = _run_cli("invariants", *argv, PYTHONINTMAXSTRDIGITS="640")
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.splitlines() == [line]


def test_seifert_many_components_over_output_cap():
    """1000 unit weights, then 2 and 3, as 1000 components: Δ has degree
    5995, under the degree cap, but its terms would carry 1000 exponents
    each; refused from the weights before any coefficient list exists."""
    weights = ",".join(["1"] * 1000 + ["2", "3"])
    proc, wall = _run_cli("seifert", "--weights", weights, "--q", "1000")
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: Seifert output size q·(degree + 1) = "
        "5996000 exceeds cap 300003"]


def _first_primes(count):
    primes = [2]
    while len(primes) < count:
        primes.append(_nextprime(primes[-1]))
    return primes


def test_seifert_thousands_of_prime_weights_over_degree_cap():
    """Two unit components and the first 2000 primes: N′ has more than
    4300 digits, so the degree is refused without being printed, and
    neither the coprimality test nor N′ costs a pass over all pairs."""
    weights = ",".join(map(str, [1, 1] + _first_primes(2000)))
    proc, wall = _run_cli("seifert", "--weights", weights, "--q", "2")
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: Seifert polynomial degree of more than "
        "4300 digits exceeds cap 100000"]


def test_seifert_thousands_of_unit_weights():
    """8000 unit weights, then 2 and 3, with two components: Δ has degree
    7, and the weights are checked coprime by one lcm, not by 3.2·10⁷
    pairwise gcds."""
    weights = ",".join(["1"] * 8000 + ["2", "3"])
    proc, wall = _run_cli("seifert", "--weights", weights, "--q", "2")
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["delta"] == ("t1^7*t2^7 + t1^5*t2^5 + t1^4*t2^4"
                               " + t1^3*t2^3 + t1^2*t2^2 + 1")
    assert len(report["weights"]) == 8002


# a 4300-digit exponent, the longest the parser takes
_LONG = "9" * 4300


@pytest.mark.parametrize("relators,message", [
    ("rel: a^100000000", "Fox word length 100000000 exceeds cap 100000"),
    ("rel: a^1000000 b a^-1000000 b^-1",
     "Fox word length 2000002 exceeds cap 100000"),
    (f"rel: a^{_LONG} b^{_LONG}",
     "Fox word length of more than 4300 digits exceeds cap 100000"),
], ids=["power-1e8", "commutator-1e6", "4300-digits"])
def test_invariants_over_fox_word_cap(tmp_path, relators, message):
    """A relator expands to one Fox term per unit of exponent: a word
    length over `DEGREE_CAP` is refused from the presentation, before
    any term exists, and a length too long to print is not printed."""
    path = tmp_path / "g.grp"
    path.write_text(f"gens: a b\n{relators}\n")
    proc, wall = _run_cli("invariants", str(path))
    assert wall < 2
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [f"alexkit: cap exceeded: {message}"]


@pytest.mark.parametrize("names,rows,message", [
    (["t"], [["t^100000000 + t^3 - 1", "t - 1"]],
     "dense degree 100000000 exceeds cap 100000"),
    (["t"], [["t^1000000 + t^3 - 1", "t - 1"]],
     "dense degree 1000000 exceeds cap 100000"),
    (["x", "y"], [["(x^100000000 + x^3 - 1)*y", "0"]],
     "dense degree 100000000 exceeds cap 100000"),
    (["x", "y"], [["x^100000000*y + x + 1", "0"]],
     "dense degree 100000000 exceeds cap 100000"),
    (["y", "z", "x"], [["y*z*x^100000000 + y + z", "0"]],
     "dense degree 100000000 exceeds cap 100000"),
], ids=["gcd-1e8", "gcd-1e6", "fibers-1e8", "coprime-1e8",
        "coprime-other-variable-1e8"])
def test_matrix_over_dense_degree_cap(tmp_path, names, rows, message):
    """A sparse entry of high degree is refused where it would be written
    as a coefficient list: in the one-variable gcd of the minors, in a
    line of Δ's terms along a direction, and in the one-variable image of
    the coprimality test, also where the high degree is in a variable
    other than the image's, whose power of an evaluation point the image
    would take.  Each once filled the memory or ran without bound."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": names, "rows": rows}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < 2
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [f"alexkit: cap exceeded: {message}"]


@pytest.mark.parametrize("names,rows", [
    (["t"], [["t^20000 + t^3 - 1", "t - 1"]]),
    (["x", "y"], [["x^1000000*y + y^3 - 1", "x - 1"]]),
], ids=["gcd-2e4", "sparse-1e6"])
def test_matrix_sparse_entries_under_dense_degree_cap(tmp_path, names, rows):
    """Δ = 1 for each: a dense degree within the cap, and a sparse entry
    that no step writes as a coefficient list, are answered."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": names, "rows": rows}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < WALL_BOUND
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["delta"] == "1"


@pytest.mark.parametrize("entry,size", [
    ("(t+1)^3000", 9006001), ("(t+1)^5000", 25010001),
    ("(t+1)^200*(x+1)^200", 16200801),
], ids=["power-3000", "power-5000", "product-200x200"])
def test_matrix_expansion_over_cap(tmp_path, entry, size):
    """(t + 1)^k has k + 1 terms of up to k + 1 bits, and the product of
    (t + 1)^200 and (x + 1)^200 has 201² terms of up to 401 bits: past
    `EXPANSION_CAP` a power or product is refused from its operands,
    before it is expanded.  (t + 1)^3000 took 7.6 s, and (t + 1)^5000 in
    a matrix entry ran past 40 s."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["t", "x"], "rows": [[entry]]}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < 1
    assert (proc.returncode, proc.stdout) == (3, "")
    kind = "product" if "*" in entry else "power"
    assert proc.stderr.splitlines() == [
        f"alexkit: cap exceeded: terms × coefficient bits of a {kind} "
        f"{size} exceeds cap 5000000"]


def test_matrix_expansion_under_cap(tmp_path):
    """(t + 1)^2000, 4004001 terms × bits, is expanded and answered."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["t"], "rows": [["(t+1)^2000"]]}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stderr) == (0, "")
    [[entry]] = json.loads(proc.stdout)["input"]["rows"]
    assert len(entry.split(" + ")) == 2001


def test_matrix_expansion_work_over_cap(tmp_path):
    """A sum of (t + 1)^1500, each inside `EXPANSION_CAP`, ran without
    bound: the product work of the whole expression, 8.2·10^8 a power,
    would pass `PRODUCT_WORK_CAP` within the fourth power, and the product
    that would pass it is refused."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["t"],
                                "rows": [[" + ".join(["(t+1)^1500"] * 40)]]}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: product work 3275109176 exceeds cap "
        "3000000000"]


def test_matrix_sparse_piece_over_factor_box(tmp_path):
    """x^99999·y^99999 + x + 1 reaches sympy's `factor_list`, which ran
    past 20 s on it: its box ∏(deg_i + 1) = 10^10 passes `FACTOR_BOX_CAP`,
    so it is refused before the call."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["x", "y"],
                                "rows": [["x^99999*y^99999 + x + 1", "0"]]}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: box ∏(deg_i + 1) of a piece to factor "
        "10000000000 exceeds cap 20000"]


def _commutator_in(m):
    """One commutator in m generators: b1 = m, and Δ = 0 for m ≥ 3."""
    return ("gens: " + " ".join(f"g{i}" for i in range(m))
            + "\nrel: g0 g1 g0^-1 g1^-1\n")


def test_invariants_over_smith_basis_cap(tmp_path):
    """One commutator in 30000 generators filled the memory with the
    30000 × 30000 change of basis of the Smith form: `fox_matrix` charges
    the input's meter m·2(m + h) term products for it, the exponent matrix
    and the Fox entries before `abelianization`, and is refused there."""
    path = tmp_path / "g.grp"
    path.write_text(_commutator_in(30000))
    proc, wall = _run_cli("invariants", str(path))
    assert wall < 1
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: product work 923430780000 exceeds cap "
        "3000000000"]


def test_invariants_commutator_in_1200_generators(tmp_path):
    """m² = 1440000 was refused by a cap on the Smith basis; its build,
    m·2(m + h) = 2882400 term products, is inside the one meter."""
    path = tmp_path / "g.grp"
    path.write_text(_commutator_in(1200))
    proc, wall = _run_cli("invariants", str(path))
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert (report["b1"], report["delta"]) == (1200, None)


def test_invariants_many_one_letter_relators(tmp_path):
    """1000 generators and 20000 relators g(i mod 1000): G is trivial, but
    the 20000 × 1000 exponent and Fox matrices filled 1 GiB (a MemoryError
    traceback after 23 s).  Their h·m entries are priced before either is
    built."""
    path = tmp_path / "g.grp"
    path.write_text("gens: " + " ".join(f"g{i}" for i in range(1000)) + "\n"
                    + "".join(f"rel: g{i % 1000}\n" for i in range(20000)))
    proc, wall = _run_cli("invariants", str(path))
    assert wall < 1
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: product work 21546000000 exceeds cap "
        "3000000000"]


def test_invariants_long_relator_in_1000_generators(tmp_path):
    """One relator g0 g1 … g999 repeated to 20000 letters: G_ab is
    Z^1000/(20, …, 20) = Z^999 ⊕ Z/20, and the 1 × 1000 Fox matrix has no
    999-minor, so E₁ = 0.  Each of its 20000 Fox terms was pushed through
    the 999 × 1000 projection (still running at 30 s); each generator's
    term is now keyed at its image in Z^999 as the relator is walked."""
    path = tmp_path / "g.grp"
    letters = " ".join(f"g{i % 1000}" for i in range(20000))
    path.write_text("gens: " + " ".join(f"g{i}" for i in range(1000))
                    + f"\nrel: {letters}\n")
    proc, wall = _run_cli("invariants", str(path))
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert (report["b1"], report["torsion"], report["delta"]) == (
        999, [20], None)


# six relators on whose exponent matrix a Smith form that swapped each
# remainder into the pivot in place ran past 20 s
_SMITH_GROWTH = """gens: a b c d e f
rel: a^5 b^7 c^-5 d^-5 e^3
rel: a^5 b^3 c^-5 d^9 e^5 f^-5
rel: a^9 b^-5 c^18 d^-5 e^7 f^5
rel: b^5 c^5 d^7 e^7 f^-12
rel: a^3 b^5 c^9 d^9 e^-12 f^5
rel: a^-5 b^18 c^18 d^5 e^-12 f^3
"""


@pytest.mark.parametrize("argv", [
    ["invariants"], ["betti", "--char", "a=1,b=1,c=1,d=1,e=1,f=1"],
], ids=["invariants", "betti-trivial"])
def test_smith_form_entry_growth(tmp_path, argv):
    """G_ab = Z/4886019: the Smith form reduces only its pivot's row and
    column, so the entries stay small and both commands answer at once;
    `betti` at the trivial character needs no Δ."""
    path = tmp_path / "g.grp"
    path.write_text(_SMITH_GROWTH)
    proc, wall = _run_cli(argv[0], str(path), *argv[1:])
    assert wall < 1
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    report = json.loads(proc.stdout)
    if argv[0] == "invariants":
        assert (report["b1"], report["torsion"]) == (0, [4886019])
    else:
        assert report["b1"] == 0


def test_smith_form_wide_wirtinger_like(tmp_path):
    """1000 generators and 999 relators g(i+1)^-1 g(j) g(i) g(j)^-1: every
    pivot is a unit, found at the first ±1 of the block, so the Smith form
    takes under 2 s (over 40 s when each pivot scanned the whole block).
    The one 999 × 999 determinant of Δ₁ is then refused by the input's
    meter, which the Fox build has charged first, at the level of its
    Laplace expansion that would pass the cap."""
    rng = random.Random(1)
    m = 1000
    lines = ["gens: " + " ".join(f"g{i}" for i in range(m))]
    for i in range(m - 1):
        j = rng.randrange(m)
        lines.append(f"rel: g{i + 1}^-1 g{j} g{i} g{j}^-1")
    path = tmp_path / "g.grp"
    path.write_text("\n".join(lines) + "\n")
    proc, wall = _run_cli("invariants", str(path))
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: product work 3034403721 exceeds cap "
        "3000000000"]


# Fox entries of 5-18 terms spread over degrees up to 1.7·10^7: the one
# 6 × 6 determinant of Δ₁ filled the memory (a MemoryError traceback)
_SPARSE_DETERMINANT = """gens: a b c d e f g
rel: a^9 b^18 c^18 d^9 e^18 f^9 g^-12
rel: b^-12 c^7 d^18 e^7 f^7 g^7
rel: a^-12 c^5 e^5 g^7
rel: a^-12 b^5 d^7 e^7 g^5
rel: b^7 c^5 d^5 e^-12 f^18 g^18
rel: a^-12 c^7 d^-12 e^-12 f^18 g^7
"""


def test_sparse_determinant_over_product_work(tmp_path):
    """Each level of the Laplace expansion is charged its products before
    they are done, so the level that would pass `PRODUCT_WORK_CAP` is
    refused at once."""
    path = tmp_path / "g.grp"
    path.write_text(_SPARSE_DETERMINANT)
    proc, wall = _run_cli("invariants", str(path))
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: product work 6829484355 exceeds cap "
        "3000000000"]


@pytest.mark.parametrize("entry,bound,work", [
    (" - ".join(["*".join(["11^4000"] * 300)] * 4), 5, 3005902360),
    ("(" + "*".join(f"(1+t^{1 << i})" for i in range(13)) + ")^2", 1,
     34435296855),
], ids=["big-integer-chain", "squared-product"])
def test_matrix_entry_over_product_work(tmp_path, entry, bound, work):
    """A product of big integers costs their digits' products: four chains
    of 300 × 11^4000 ran 16-18 s before the printing limit refused them.
    The square of ∏(1 + t^(2^i)), i < 13, has 8192² term products, inside
    `EXPANSION_CAP`, and ran 43 s; both are refused from `product_work`."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["t"], "rows": [[entry, "t - 1"]]}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < bound
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        f"alexkit: cap exceeded: product work {work} exceeds cap 3000000000"]


@pytest.mark.parametrize("rows,work", [
    ([["(t+1)^1900"]] * 12, 3580406700),
    ([["(t+1)^2000", "(t+1)^2000"]], 4244375906),
], ids=["twelve-powers", "two-powers"])
def test_matrix_entries_share_one_meter(tmp_path, rows, work):
    """Each entry inside the product work one meter admits, all of them
    past it: one meter bounds every entry of the input.  With a meter per
    entry the twelve ran 18 s and the two 59-63 s, most of it in the gcd
    of the two powers."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["t"], "rows": rows}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < 5
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        f"alexkit: cap exceeded: product work {work} exceeds cap 3000000000"]


@pytest.mark.parametrize("column", ["0", "t - 1"], ids=["zeros", "t-1"])
def test_matrix_row_subsets_over_product_work(tmp_path, column):
    """A 30 × 12 matrix has C(30, 11) row subsets of 11 rows, which do no
    products when their minors vanish: the loop over them is charged
    before it starts."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": ["t"],
                                "rows": [[column] + ["0"] * 11] * 30}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < 1
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: product work 4035427905600 exceeds cap "
        "3000000000"]


def _torus_knot(p, q):
    """The Wirtinger presentation of T(p, q), q ≥ 2, as the closure of
    (σ₁⋯σ_{p−1})^q: at σ_i the arc at position i passes over the one at
    i + 1, and the new under-arc c = over·under·over⁻¹ takes position i,
    the over-arc position i + 1.  The closure identifies each final arc
    with the arc it started as; the relators come in crossing order, the
    last one dropped.  Its (p − 1)·q generators are a0, a1, …"""
    pos, crossings = list(range(p)), []
    for _ in range(q):
        for i in range(p - 1):
            crossings.append((p + len(crossings), pos[i], pos[i + 1]))
            pos[i], pos[i + 1] = crossings[-1][0], pos[i]
    closure = {arc: k for k, arc in enumerate(pos)}
    names: dict = {}
    for arc in range(p + len(crossings)):
        names.setdefault(closure.get(arc, arc), f"a{len(names)}")
    rels = "".join(
        f"rel: {names[closure.get(c, c)]}^-1 {names[closure.get(o, o)]} "
        f"{names[closure.get(u, u)]} {names[closure.get(o, o)]}^-1\n"
        for c, o, u in crossings[:-1])
    return f"gens: {' '.join(names.values())}\n{rels}"


@pytest.mark.parametrize("command", ["invariants", "betti"])
def test_knot_diagram_of_61_arcs(tmp_path, command):
    """T(2, 61) has 61 arcs, which no shape cap refuses now: Δ = Φ₁₂₂, and
    at ζ₁₂₂ on every arc b1 = 1, the bound attained."""
    path = tmp_path / "g.grp"
    path.write_text(_torus_knot(2, 61))
    argv = [command, str(path)] if command == "invariants" else [
        command, str(path), "--char",
        ",".join(f"a{i}=zeta122" for i in range(61))]
    proc, wall = _run_cli(*argv)
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    report = json.loads(proc.stdout)
    if command == "invariants":
        assert poly(report["delta"], ("t",)) == LaurentPoly(
            1, {(k,): (-1) ** k for k in range(61)})
    else:
        assert (report["b1"], report["attained"]) == (1, True)


def test_matrix_over_ring_variables_cap(tmp_path):
    """The gcd of x1 + 1 and x2 + 1 with 1000 declared variables filled
    the memory inside sympy's ring: a ring of more than
    `RING_VARIABLES_CAP` variables is refused before sympy is loaded."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vars": [f"x{i}" for i in range(1, 1001)],
                                "rows": [["x1 + 1", "x2 + 1"]]}))
    proc, wall = _run_cli("invariants", "--matrix", str(path))
    assert wall < 1
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "alexkit: cap exceeded: variables of a sympy ring 1000 exceeds cap "
        "100"]


def _pencil5_character(n, last):
    """x_i = ζ_n^i for i ≤ 4 and x5 = ζ_n^last."""
    return ",".join([f"x{i}=zeta{n}^{i}" for i in range(1, 5)]
                    + [f"x5=zeta{n}^{last}"])


def _rank_deficient_matrix():
    """An 8×8 matrix B·C in x, B 8×5 and C 5×8, of rank 5 over Q(x)."""
    rng = random.Random(8)
    pool = ["x-1", "x^2+1", "2*x", "x+3", "1", "0", "x^3-x", "-x^2+2", "3",
            "x^-1+x"]

    def entries(rows, cols):
        return [[poly(rng.choice(pool), ("x",)) for _ in range(cols)]
                for _ in range(rows)]

    b, c = entries(8, 5), entries(5, 8)
    return [[sum((b[i][k] * c[k][j] for k in range(5)),
                 LaurentPoly.zero(1)).render(("x",)) for j in range(8)]
            for i in range(8)]


@pytest.mark.parametrize("argv,b1", [
    (["pencil5.grp", "--char", _pencil5_character(211, -10), "--depth", "1"],
     3),
    (["pencil5.grp", "--char", _pencil5_character(211, 5), "--depth", "1"],
     0),
    (["pencil5.grp", "--char", _pencil5_character(239, -10)], 3),
    (["t11-13.grp", "--char", "x=zeta143^13,y=zeta143^11"], 1),
    (["--matrix", "m.json", "--char", "x=zeta239^7"], 2),
    (["--matrix", "m.json", "--char", "x=3/7*zeta240^11"], 2),
], ids=["pencil5-zeta211-on", "pencil5-zeta211-off", "pencil5-zeta239",
        "torus11-13-zeta143", "matrix8-zeta239", "matrix8-zeta240-scaled"])
def test_betti_at_high_conductor(tmp_path, argv, b1):
    """Ranks and vanishing orders in Q(ζ_N) for N up to 240, where a value
    has up to 238 coordinates in ζ_N: on the jump locus of pencil5 every
    2-minor vanishes and the rank reads the most primes."""
    shutil.copy(data_path("pencil5.grp"), tmp_path)
    (tmp_path / "t11-13.grp").write_text("gens: x y\nrel: x^11 y^-13\n")
    (tmp_path / "m.json").write_text(json.dumps(
        {"vars": ["x"], "rows": _rank_deficient_matrix()}))
    argv = [str(tmp_path / a) if a.endswith((".grp", ".json")) else a
            for a in argv]
    proc, wall = _run_cli("betti", *argv)
    assert wall < WALL_BOUND
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert json.loads(proc.stdout)["b1"] == b1
