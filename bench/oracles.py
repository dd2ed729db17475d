"""Answers computed apart from alexkit, and the checks of alexkit's JSON.

Nothing here imports alexkit.  Polynomials are dicts {exponent tuple: int};
the heavier algebra (exact division, gcd, factoring) goes through sympy's
sparse polynomial rings, a different path from alexkit's own sympy bridge.
Two Laurent polynomials are compared up to units ±(monomial), written ≐.
"""

from __future__ import annotations

import copy
import math
import re
from fractions import Fraction

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.rings import ring

# -- Laurent polynomials as dicts -------------------------------------------


def default_names(n):
    """Variable names alexkit prints: t for one variable, else t1..tn."""
    return ["t"] if n == 1 else [f"t{i + 1}" for i in range(n)]


_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_poly(text, names):
    """Read alexkit's rendering ("2*t1^2*t2 - t1^-1 + 3") into a dict."""
    index = {name: i for i, name in enumerate(names)}
    out = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coeff = Fraction(sign)
        exp = [0] * len(names)
        for part in chunk.split("*"):
            m = _FACTOR.match(part)
            if m is None:
                coeff *= Fraction(part)
                continue
            if m.group(1) not in index:
                raise ValueError(f"unknown variable {m.group(1)!r} in {text!r}")
            exp[index[m.group(1)]] += int(m.group(2) or 1)
        key = tuple(exp)
        out[key] = out.get(key, 0) + coeff
    return {e: c for e, c in out.items() if c != 0}


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def ppow(a, k, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = pmul(out, a)
    return out


def unit_normal(p):
    """Canonical representative of p up to ±(monomial), as a sorted tuple."""
    if not p:
        return ()
    n = len(next(iter(p)))
    mins = [min(e[i] for e in p) for i in range(n)]
    shifted = {tuple(x - m for x, m in zip(e, mins)): c for e, c in p.items()}
    if shifted[max(shifted)] < 0:
        shifted = {e: -c for e, c in shifted.items()}
    return tuple(sorted(shifted.items()))


def associate(a, b):
    return unit_normal(a) == unit_normal(b)


def shift_to_polynomial(p):
    """Multiply by a monomial so that every exponent is >= 0."""
    if not p:
        return p
    n = len(next(iter(p)))
    mins = [min(0, min(e[i] for e in p)) for i in range(n)]
    return {tuple(x - m for x, m in zip(e, mins)): c for e, c in p.items()}


def _ring(nvars):
    names = ",".join(f"z{i}" for i in range(nvars))
    return ring(names, ZZ)[0]


def _to_dict(elem):
    return {tuple(e): int(c) for e, c in dict(elem).items()}


def cyclotomic(d, nvars=1, var=0):
    """Φ_d in variable `var` of an nvars-variable ring."""
    poly = sympy.cyclotomic_poly(d, sympy.Symbol("x"), polys=True)
    out = {}
    for (k,), c in poly.as_dict().items():
        e = [0] * nvars
        e[var] = k
        out[tuple(e)] = int(c)
    return out


def factor_dicts(p):
    """Irreducible factors over Q of a Laurent polynomial dict, up to units:
    [(factor, multiplicity)], leaving out constants and monomials."""
    n = len(next(iter(p)))
    R = _ring(n)
    _, parts = R.from_dict(shift_to_polynomial(p)).factor_list()
    return [(_to_dict(f), k) for f, k in parts if len(f) > 1]


# -- the group families ------------------------------------------------------


def pencil_delta(n):
    """Δ of pencil_n = F_{n-1} x Z: (t1...tn - 1)^(n-2)."""
    k = n - 2
    return {(j,) * n: math.comb(k, j) * (-1) ** (k - j) for j in range(k + 1)}


def torus_delta(p, q):
    """Δ of T(p,q): (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))."""
    R, t = ring("t", ZZ)
    quo, rem = divmod((t ** (p * q) - 1) * (t - 1), (t ** p - 1) * (t ** q - 1))
    if rem:
        raise ArithmeticError("torus knot quotient is not exact")
    return _to_dict(quo)


def torus_root_orders(p, q):
    """Orders d of the roots of Δ(T(p,q)): d | pq, d ∤ p, d ∤ q."""
    return [d for d in range(1, p * q + 1)
            if (p * q) % d == 0 and p % d and q % d]


def power_sum_delta(e):
    """Δ of <a, b | a^e b a^-e b^-1> in t1, t2: (t1^e - 1)/(t1 - 1)."""
    return {(k, 0): 1 for k in range(e)}


def fox_row(letters, n):
    """Abelianized Fox derivatives of a relator whose letters are
    (generator, exponent) pairs, with t_i the image of x_i."""
    row = [dict() for _ in range(n)]
    prefix = [0] * n
    for g, e in letters:
        step = range(e) if e > 0 else range(-1, e - 1, -1)
        for k in step:
            exp = list(prefix)
            exp[g] += k
            key = tuple(exp)
            row[g][key] = row[g].get(key, 0) + (1 if e > 0 else -1)
        prefix[g] += e
    return [{k: c for k, c in entry.items() if c} for entry in row]


def fox_delta(relators, n):
    """Δ of a deficiency-one presentation with free abelianization, from
    the gcd of the maximal minors of its Fox matrix; None when zero.

    Each row is shifted by a monomial (a unit) to a polynomial; the minors
    over column subsets are built by Laplace expansion along the rows.
    """
    R = _ring(n)
    rows = []
    for letters in relators:
        row = fox_row(letters, n)
        allexp = [e for entry in row for e in entry]
        mins = [min(e[i] for e in allexp) for i in range(n)] if allexp \
            else [0] * n
        rows.append([R.from_dict({tuple(x - m for x, m in zip(e, mins)): c
                                  for e, c in entry.items()})
                     for entry in row])
    h = len(rows)
    minors = {(): R.one}
    for r in range(h):
        nxt = {}
        for cols, det in minors.items():
            if not det:
                continue
            for j in range(n):
                if j in cols:
                    continue
                key = tuple(sorted(cols + (j,)))
                sign = (-1) ** sum(1 for c in cols if c > j)
                nxt[key] = nxt.get(key, R.zero) + sign * rows[r][j] * det
        minors = nxt
    acc = R.zero
    for det in minors.values():
        if det:
            acc = det if not acc else acc.gcd(det)
    return _to_dict(acc) if acc else None


def qp_verdict(delta, b1):
    """The verdict alexkit's obstruction test must reach (non-projective):
    with b1 >= 3 a nonconstant Δ must have collinear support whose
    univariate image is a product of cyclotomic polynomials."""
    if delta is None:
        return "CONSISTENT"
    if b1 <= 1:
        return "CONSISTENT"
    if b1 == 2:
        return "NO-OBSTRUCTION-APPLICABLE"
    pts = sorted(delta)
    if len(pts) == 1:
        return "CONSISTENT"
    base = pts[0]
    diffs = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
    g = math.gcd(*diffs[0])
    direction = tuple(x // g for x in diffs[0])
    lead = next(i for i, x in enumerate(direction) if x)
    univ = {(0,): delta[base]}
    for p, d in zip(pts[1:], diffs):
        k = d[lead] // direction[lead]
        if tuple(k * x for x in direction) != d:
            return "OBSTRUCTED"
        univ[(k,)] = delta[p]
    univ = shift_to_polynomial(univ)
    x = sympy.Symbol("x")
    for f, _ in factor_dicts(univ):
        poly = sympy.Poly.from_dict({k: c for k, c in f.items()}, x)
        if not poly.is_cyclotomic:
            return "OBSTRUCTED"
    return "CONSISTENT"


# -- Seifert links (Eisenbud-Neumann) ----------------------------------------


def seifert_data(weights, q):
    """(N_j for the q components, N'_j for the nontrivial other fibers, N')."""
    comp, rest = weights[:q], [k for k in weights[q:] if k > 1]
    big_n = math.prod(comp)
    big_np = math.prod(rest)
    return [big_n // k for k in comp], [big_np // k for k in rest], big_np


def seifert_delta(weights, q):
    """Δ = (u^N' - 1)^(q+s-2) / Π_j (u^N'_j - 1), u = Π t_i^N_i."""
    n_j, np_j, big_np = seifert_data(weights, q)
    R, u = ring("u", ZZ)
    num = (u ** big_np - 1) ** (q + len(np_j) - 2)
    for k in np_j:
        num, rem = divmod(num, u ** k - 1)
        if rem:
            raise ArithmeticError("Seifert quotient is not exact")
    return {tuple(m * e for m in n_j): int(c) for (e,), c in dict(num).items()}


def seifert_mult(weights, q, d):
    """m(d) = q + s - 2 - #{j : d | N'_j}."""
    _, np_j, _ = seifert_data(weights, q)
    return q + len(np_j) - 2 - sum(1 for k in np_j if k % d == 0)


def seifert_divisor(weights, q):
    _, _, big_np = seifert_data(weights, q)
    return [{"root_order": d, "multiplicity": seifert_mult(weights, q, d)}
            for d in range(1, big_np + 1)
            if big_np % d == 0 and seifert_mult(weights, q, d) > 0]


def seifert_b1(weights, q, conductor, exps):
    """Twisted rank at t_i = ζ_M^{k_i}: m(d) for the order d of
    α = Π t_i^{N_i} when d | N', else 0."""
    n_j, _, big_np = seifert_data(weights, q)
    a = sum(k * m for k, m in zip(exps, n_j)) % conductor
    d = conductor // math.gcd(conductor, a)
    return max(seifert_mult(weights, q, d), 0) if big_np % d == 0 else 0


# -- checking alexkit's reports ----------------------------------------------


class Mismatch(AssertionError):
    pass


def _require(cond, what):
    if not cond:
        raise Mismatch(what)


def _check_factored(fac, delta, factors, names):
    _require(fac is not None, "factored missing")
    prod = {(0,) * len(names): fac["constant"]}
    got = []
    for f in fac["factors"]:
        poly = parse_poly(f["poly"], names)
        got.append((unit_normal(poly), f["multiplicity"]))
        prod = pmul(prod, ppow(poly, f["multiplicity"], len(names)))
    _require(associate(prod, delta), "factored does not multiply back to delta")
    if factors is not None:
        want = sorted((unit_normal(f), k) for f, k in factors)
        _require(sorted(got) == want, "factors differ from the oracle's")


def _check_char(got, want):
    _require(got["b1"] == want["b1"], "twisted b1")
    if "bound" in want:
        _require(got["bound_pointwise"] == want["bound"], "bound_pointwise")
        _require(got["bound_generic"] == want["generic"], "bound_generic")
        _require(got["attained"] == (want["b1"] == want["bound"]), "attained")


def check_report(expect, rep):
    """Raise Mismatch unless the parsed JSON report agrees with `expect`."""
    kind = expect["kind"]
    if kind == "invariants":
        n = expect["b1"]
        names = default_names(n)
        _require(rep["b1"] == n, "b1")
        _require(rep["torsion"] == [], "torsion")
        if expect["delta"] is None:
            _require(rep["delta"] is None and rep["factored"] is None,
                     "delta should be zero")
        else:
            _require(rep["delta"] is not None, "delta is zero")
            _require(associate(parse_poly(rep["delta"], names),
                               expect["delta"]), "delta")
            _check_factored(rep["factored"], expect["delta"],
                            expect["factors"], names)
        _require(rep["qp"]["verdict"] == expect["verdict"], "qp verdict")
        if "cyclo_orders" in expect:
            _require(rep["qp"]["certificate"]["cyclotomic_orders"]
                     == expect["cyclo_orders"], "cyclotomic orders")
        chars = expect.get("chars", {})
        _require(sorted(rep.get("characters", {})) == sorted(chars),
                 "character keys")
        for spec, want in chars.items():
            _check_char(rep["characters"][spec], want)
    elif kind == "betti":
        _check_char(rep, expect)
        _require(rep["depth"] == expect["depth"], "depth")
        _require(rep["member"] == (expect["b1"] >= expect["depth"]), "member")
    elif kind == "seifert":
        names = default_names(len(expect["exps"]))
        _require(associate(parse_poly(rep["delta"], names), expect["delta"]),
                 "seifert delta")
        _require(rep["divisor"] == expect["divisor"], "seifert divisor")
        _require(rep["b1"] == expect["b1"], "seifert b1")
    else:
        raise ValueError(f"unknown kind {kind}")


def perturbations(rep):
    """Wrong variants of a correct report; each must fail check_report."""
    def variant(edit):
        bad = copy.deepcopy(rep)
        edit(bad)
        return bad

    out = []
    if "b1" in rep:
        out.append(variant(lambda r: r.update(b1=r["b1"] + 1)))
    if rep.get("delta"):
        out.append(variant(lambda r: r.update(delta=r["delta"] + " + 1")))
    if rep.get("factored") and rep["factored"]["factors"]:
        def bump(r):
            r["factored"]["factors"][0]["multiplicity"] += 1
        out.append(variant(bump))
    if "qp" in rep:
        def flip(r):
            r["qp"]["verdict"] = "OBSTRUCTED" \
                if r["qp"]["verdict"] != "OBSTRUCTED" else "CONSISTENT"
        out.append(variant(flip))
    if rep.get("characters"):
        spec = sorted(rep["characters"])[0]

        def char_b1(r):
            r["characters"][spec]["b1"] += 1
        out.append(variant(char_b1))
    if "member" in rep:
        out.append(variant(lambda r: r.update(member=not r["member"])))
    if rep.get("divisor"):
        def div(r):
            r["divisor"][-1]["multiplicity"] += 1
        out.append(variant(div))
    return out
