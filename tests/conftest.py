import json
import math
import os

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_decomp

from alexkit.alexander import fox_matrix, load_matrix
from alexkit.cyclofield import parse_character, rank
from alexkit.intlinalg import smith_normal_form
from alexkit import PRODUCT_WORK_CAP, ProductMeter, product_work
from alexkit.laurent import (_dup_mul, _phi_coeffs, divides, normalize,
                             parse_poly)
from alexkit.presentation import free_reduce_letters, parse_presentation

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def load_presentation(name):
    with open(data_path(name), "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def load_matrix_fixture(name):
    with open(data_path(name), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return load_matrix(data["vars"], data["rows"])


def poly(text, names):
    """The polynomial a test writes out: `parse_poly` on a meter of its
    own."""
    return parse_poly(text, names, ProductMeter())


def meter_with_room(products):
    """A ProductMeter that refuses once it is charged more than `products`
    further term products of 1-digit coefficients."""
    meter = ProductMeter()
    meter.spent = PRODUCT_WORK_CAP - product_work(products, 1, 1, 1)
    return meter


def character(*values):
    """The Character with these values, each written as `parse_character`
    reads it: 1, -1, "zeta3", "zeta8^3" or "2*zeta4"."""
    names = [f"v{i}" for i in range(len(values))]
    return parse_character(
        ",".join(f"{n}={v}" for n, v in zip(names, values)), names)


# -- helpers that only tests use: no CLI path calls them

def word(letters):
    """The Word of arbitrary letters (index, exponent), reduced freely."""
    return free_reduce_letters(tuple(letters))


def commutator(a, b):
    return a * b * a.inverse() * b.inverse()


def render_presentation(p):
    """Canonical text form; parse_presentation(render_presentation(p)) == p."""
    lines = ["gens: " + " ".join(p.generator_names)]
    for r in p.relators:
        parts = []
        for g, e in r.letters:
            name = p.generator_names[g]
            parts.append(name if e == 1 else f"{name}^{e}")
        lines.append("rel: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def check_smith_form(m):
    """(D, V, W) = smith_normal_form(m), checked: V is unimodular with
    inverse W, D is sympy's Smith form of m up to the signs of its
    invariants, and M·V is zero past the rank."""
    d, v, w = smith_normal_form(m)
    cols = len(v)
    assert abs(sympy.Matrix(v).det()) == 1
    assert sympy.Matrix(w) * sympy.Matrix(v) == sympy.eye(cols)
    a, _, _ = smith_normal_decomp(sympy.Matrix(m), domain=sympy.ZZ)
    assert d == [[abs(int(x)) for x in a.row(i)] for i in range(len(m))]
    rank = sum(1 for i in range(min(len(m), cols)) if d[i][i])
    assert (sympy.Matrix(m) * sympy.Matrix(v))[:, rank:].is_zero_matrix
    return d, v, w


def multiplicity(f, delta):
    """The largest k ≥ 0 with f^k dividing delta ≠ 0 over Q, for a
    nonconstant f."""
    assert not normalize(f).is_constant() and not delta.is_zero()
    k, power = 0, f
    while divides(power, delta):
        k, power = k + 1, power * f
    return k


def seifert_link(weights, q):
    """The exterior of the Seifert link with fiber weights a_1..a_n whose
    first q fibers are its components, in the homology sphere Σ(a_1..a_n):
    (presentation text, exponent vector of each component's meridian).

    The generators are c1..cn h, with relators [c_i, h] for every i,
    c_i^(a_i)·h^(b_i) for each fiber i > q, and c1⋯cn; the b_i solve
    Σ b_i·∏_(j≠i) a_j = 1, and the meridian of component i is
    c_i^(a_i)·h^(b_i)."""
    n, total = len(weights), math.prod(weights)
    b = [pow(total // a, -1, a) for a in weights]  # each term is 1 mod a_i
    excess = sum(bi * (total // a) for bi, a in zip(b, weights)) - 1
    b[0] -= excess // total * weights[0]
    c = [f"c{i}" for i in range(1, n + 1)]
    rels = [f"{x} h {x}^-1 h^-1" for x in c]
    rels += [f"{c[i]}^{weights[i]}" + (f" h^{b[i]}" if b[i] else "")
             for i in range(q, n)]
    rels.append(" ".join(c))
    text = "".join(f"rel: {r}\n" for r in rels)
    meridians = [[weights[i] * (j == i) for j in range(n)] + [b[i]]
                 for i in range(q)]
    return f"gens: {' '.join(c)} h\n{text}", meridians


@pytest.fixture
def pencil3():
    return fox_matrix(load_presentation("pencil3.grp"))


@pytest.fixture
def torusbundle():
    return fox_matrix(load_presentation("torusbundle.grp"))


# -- values in Q(ζ_n) reduced mod Φ_n: the reference arithmetic of the
# oracles for `cyclofield.rank`

def reduce_mod_phi(coeffs, n):
    """A coefficient list in ζ_n reduced mod Φ_n, to degree < φ(n)."""
    phi = _phi_coeffs(n)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    while len(coeffs) > deg:
        c = coeffs.pop()
        if c:
            shift = len(coeffs) - deg
            for i in range(deg):
                coeffs[shift + i] -= c * phi[i]
    return tuple(coeffs + [0] * (deg - len(coeffs)))


def mul_mod_phi(x, y, n):
    """x·y in Q(ζ_n), reduced mod Φ_n."""
    return reduce_mod_phi(_dup_mul(x, y), n)


def reduced(value, n):
    """Σ c·ζ_n^k over the pairs (c, k) of a value, reduced mod Φ_n."""
    buckets = [0] * n
    for c, k in value:
        buckets[k % n] += c
    return reduce_mod_phi(buckets, n)


def value_at(f, chi):
    """The value of f at the character chi, as the pairs (c, k) of
    Σ c·ζ_N^k that `cyclofield.rank` takes."""
    return list(zip(*chi.at(f.terms)))


def vanishes(value, n):
    """Whether the value Σ c·ζ_n^k, given as the pairs (c, k), is zero:
    whether the 1×1 matrix holding it has rank 0."""
    return rank([[value]], n) == 0
