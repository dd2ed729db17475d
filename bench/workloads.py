"""The benchmark's three workloads, generated from a seed.

Each operation is an `alexkit` argument list plus the answer it must give,
computed by `oracles` (never by alexkit).  Presentation files are written
into a work directory.  Seeds change the inputs in ways that keep their
cost about the same: relators are inverted, reordered and, outside the
pencils and character-scan, cyclically rotated; random presentations are
drawn with Δ inside a fixed size band, and characters are drawn with a
fixed conductor per position and a fixed split between points on and off
the jump locus.  The reasons for each workload are in README.md.
"""

from __future__ import annotations

import math
import os
import random

import oracles

WORKLOADS = ("fox-width", "univariate-degree", "character-scan")

# (generators, count, min and max number of terms of Δ) of the random
# deficiency-one presentations in fox-width.  The bands narrow each slot's
# cost spread across seeds.  Twelve operations cost less than pencil5 and
# twelve more, so the median operation is that fixed input.
RANDOM_SLOTS = ((3, 4, 4, 8), (4, 6, 6, 8), (5, 10, 22, 28))
PENCILS = (3, 4, 5, 6, 7)
TORUS_LADDER = ((2, 3), (3, 4), (3, 5), (4, 5), (3, 7), (5, 6), (4, 7),
                (5, 7), (5, 8), (5, 11), (7, 11))
POWER_LADDER = (10, 20, 30, 40, 50, 60, 70, 80)
SEIFERT_LADDER = ((2, 3), (2, 5), (3, 5), (3, 7), (5, 7), (7, 9), (5, 11),
                  (7, 11), (9, 11), (11, 13))
# character-scan: groups whose Δ is cheap, one invariants call each
SCAN_PENCILS = (3, 4, 5)
SCAN_TORUS = ((2, 5), (3, 4), (3, 5), (2, 7), (3, 7), (4, 5))
SCAN_FREE = (2, 3, 4)
SCAN_CONDUCTORS = (5, 7, 8, 9, 11)
CHARS_PER_CALL = 16
# betti --depth calls, each on a presentation no other call uses.  The
# torus knots have Φ_pq of degree at most 12 where the character lies on
# the jump locus (odd positions), so most calls cost 0.05-0.2 s and the
# median operation falls among them.
BETTI_PENCILS = (3, 4)
BETTI_TORUS = ((2, 9), (5, 6), (2, 11), (4, 9), (3, 8), (2, 13), (3, 10),
               (4, 7), (5, 8), (3, 14), (2, 15), (6, 7), (4, 11), (2, 21))
BETTI_FREE = (5, 6)


# -- presentations -----------------------------------------------------------


def render(names, relators):
    lines = ["gens: " + " ".join(names)]
    for letters in relators:
        lines.append("rel: " + " ".join(
            names[g] if e == 1 else f"{names[g]}^{e}" for g, e in letters))
    return "\n".join(lines) + "\n"


def reshape(rng, letters, rotate=True):
    """A cyclic rotation of the relator (or none), inverted or not: the
    same normal subgroup, so the same group."""
    k = rng.randrange(len(letters)) if rotate else 0
    out = list(letters[k:]) + list(letters[:k])
    if rng.random() < 0.5:
        out = [(g, -e) for g, e in reversed(out)]
    return out


def reshaped(rng, relators, rotate=True):
    rels = [reshape(rng, r, rotate) for r in relators]
    rng.shuffle(rels)
    return rels


def commutator(a, ea, b, eb):
    return [(a, ea), (b, eb), (a, -ea), (b, -eb)]


def pencil_relators(n):
    """[x1...xn, x_i] for i < n: pencil_n, the group F_{n-1} x Z."""
    prod = [(g, 1) for g in range(n)]
    inv = [(g, -1) for g in reversed(range(n))]
    return [prod + [(i, 1)] + inv + [(i, -1)] for i in range(n - 1)]


def random_relators(rng, n):
    rels = []
    for _ in range(n - 1):
        letters = []
        for _ in range(2):
            a, b = rng.sample(range(n), 2)
            letters += commutator(a, rng.choice((1, -1)),
                                  b, rng.choice((1, -1)))
        rels.append(letters)
    return rels


def xnames(n):
    return [f"x{i + 1}" for i in range(n)]


# -- characters --------------------------------------------------------------


def zeta(m, k):
    k %= m
    return "1" if k == 0 else f"zeta{m}^{k}"


def char_spec(names, m, exps):
    return ",".join(f"{name}={zeta(m, k)}" for name, k in zip(names, exps))


def totient(m):
    return sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)


def single_term_exps(rng, m, n, total=None):
    """n exponents k_i in [1, φ(m)) with gcd(m, k_1, ..., k_n) = 1: every
    value ζ_m^k is one term in the power basis and the character's
    conductor is m, so the cost of a position does not change with the
    seed.  With `total`, the exponents sum to it mod m."""
    phi = totient(m)
    for _ in range(100_000):
        ks = [rng.randrange(1, phi) for _ in range(n)]
        if total is not None:
            ks[-1] = (total - sum(ks[:-1])) % m
            if not 1 <= ks[-1] < phi:
                continue
        if math.gcd(m, *ks) == 1:
            return ks
    raise ValueError(f"no {n} single-term exponents for conductor {m}")


def pencil_chars(rng, n, count):
    """Characters of pencil_n, alternately on the jump locus (product of the
    values is 1) and off it, with conductors from SCAN_CONDUCTORS."""
    out = {}
    while len(out) < count:
        i = len(out)
        m = SCAN_CONDUCTORS[i % len(SCAN_CONDUCTORS)]
        on = i % 2 == 0
        exps = single_term_exps(rng, m, n, 0 if on else None)
        if (sum(exps) % m == 0) != on:
            continue
        out.setdefault(char_spec(xnames(n), m, exps),
                       {"b1": n - 2, "bound": n - 2, "generic": n - 2} if on
                       else {"b1": 0, "bound": 0, "generic": None})
    return out


def torus_chars(rng, p, q, on_count, off_count):
    """x = ζ^q, y = ζ^p, where ζ is a power of ζ_pq: b1 = 1 exactly when the
    order of ζ is a root order of Δ(T(p,q)).  On the locus ζ has order pq;
    off it, order p for the first half and q for the rest."""
    m = p * q

    def units(k):
        return [j for j in range(1, k) if math.gcd(j, k) == 1]

    on = rng.sample(units(m), min(on_count, len(units(m))))
    n_p = min(off_count // 2, len(units(p)))
    n_q = min(off_count - n_p, len(units(q)))
    off = [q * j for j in rng.sample(units(p), n_p)] + \
        [p * j for j in rng.sample(units(q), n_q)]
    out = {}
    for ks, b1 in ((on, 1), (off, 0)):
        for k in ks:
            spec = f"x={zeta(m, k * q)},y={zeta(m, k * p)}"
            out[spec] = {"b1": b1, "bound": b1, "generic": 1 if b1 else None}
    return out


def free_chars(rng, r, count):
    out = {}
    while len(out) < count:
        m = SCAN_CONDUCTORS[len(out) % len(SCAN_CONDUCTORS)]
        out.setdefault(char_spec(xnames(r), m, single_term_exps(rng, m, r)),
                       {"b1": r - 1})
    return out


# -- expected answers --------------------------------------------------------


def pencil_expect(n):
    return {"kind": "invariants", "b1": n, "delta": oracles.pencil_delta(n),
            "factors": [({(0,) * n: -1, (1,) * n: 1}, n - 2)],
            "verdict": "CONSISTENT", "cyclo_orders": [[1, n - 2]]}


def torus_expect(p, q):
    return {"kind": "invariants", "b1": 1, "delta": oracles.torus_delta(p, q),
            "factors": [(oracles.cyclotomic(d), 1)
                        for d in oracles.torus_root_orders(p, q)],
            "verdict": "CONSISTENT"}


def free_expect(r):
    return {"kind": "invariants", "b1": r, "delta": None, "factors": None,
            "verdict": "CONSISTENT"}


def fox_expect(relators, n):
    delta = oracles.fox_delta(relators, n)
    return {"kind": "invariants", "b1": n, "delta": delta,
            "factors": None if delta is None else oracles.factor_dicts(delta),
            "verdict": oracles.qp_verdict(delta, n)}


# -- the workloads -----------------------------------------------------------


class OpList:
    """Collects the operations of one workload and writes their files."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.ops = []
        self.files = 0

    def write(self, text):
        self.files += 1
        path = os.path.join(self.workdir, f"g{self.files:03d}.grp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def add(self, argv, expect):
        self.ops.append({"argv": argv, "expect": expect})

    def invariants(self, text, expect, chars=None):
        argv = ["invariants", self.write(text)]
        for spec in chars or {}:
            argv += ["--char", spec]
        if chars:
            expect = dict(expect, chars=chars)
        self.add(argv, expect)

    def betti(self, text, spec, depth, expect):
        self.add(["betti", self.write(text), "--char", spec,
                  "--depth", str(depth)],
                 dict(expect, kind="betti", depth=depth))


def fox_width(rng, b):
    # pencil5 is the median operation; rotating its relators moved its
    # time by up to 24% from seed to seed (0.083-0.103 s), inverting and
    # reordering them by 11%
    for n in PENCILS:
        b.invariants(render(xnames(n),
                            reshaped(rng, pencil_relators(n), rotate=False)),
                     pencil_expect(n))
    for n, count, lo, hi in RANDOM_SLOTS:
        made = 0
        while made < count:
            rels = random_relators(rng, n)
            expect = fox_expect(rels, n)
            if expect["delta"] is None or not lo <= len(expect["delta"]) <= hi:
                continue
            b.invariants(render(xnames(n), reshaped(rng, rels)), expect)
            made += 1


def torus_text(rng, p, q, rotate=True):
    return render(["x", "y"], [reshape(rng, [(0, p), (1, -q)], rotate)])


def univariate_degree(rng, b):
    for p, q in TORUS_LADDER:
        b.invariants(torus_text(rng, p, q), torus_expect(p, q))
    for e in POWER_LADDER:
        rel = reshape(rng, [(0, e), (1, 1), (0, -e), (1, -1)])
        b.invariants(render(["a", "b"], [rel]),
                     {"kind": "invariants", "b1": 2,
                      "delta": oracles.power_sum_delta(e),
                      "factors": [(oracles.cyclotomic(d, 2, 0), 1)
                                  for d in range(2, e + 1) if e % d == 0],
                      "verdict": "NO-OBSTRUCTION-APPLICABLE"})
    for i, (k4, k5) in enumerate(SEIFERT_LADDER):
        weights = (1, 1, 1) + tuple(rng.sample((k4, k5), 2))
        np_ = k4 * k5
        # alexkit's cost depends on the order d of α = t1 t2 t3, so d is
        # fixed per position: alternately on the divisor (d = N', where
        # b1 = 3, or d = k5, where b1 = 2) and off it (d a small prime
        # power that does not divide N', where b1 = 0)
        if i % 2 == 0:
            m, d = np_, (np_ if i % 4 == 0 else k5)
        else:
            m = d = next(c for c in (4, 8, 16, 17) if np_ % c)
        a = (m // d) * rng.choice([u for u in range(1, d)
                                   if math.gcd(u, d) == 1])
        k1, k2 = rng.randrange(m), rng.randrange(m)
        exps = [k1, k2, (a - k1 - k2) % m]
        b.add(["seifert", "--weights", ",".join(map(str, weights)),
               "--q", "3", "--char", char_spec(["t1", "t2", "t3"], m, exps)],
              {"kind": "seifert", "exps": exps,
               "b1": oracles.seifert_b1(weights, 3, m, exps),
               "delta": oracles.seifert_delta(weights, 3),
               "divisor": oracles.seifert_divisor(weights, 3)})


def character_scan(rng, b):
    # Relators are inverted and reordered but not rotated here: a rotation
    # multiplies a row of the Fox matrix by a monomial, and the exact ranks
    # at the characters then cost up to 1.7x more or less (pencil4 with 16
    # characters: 0.33 s on one seed, 0.56 s on another).  A betti call
    # has one character, and its cost moves with it (T(2,11) off the jump
    # locus: 0.066-0.126 s over the ten characters), so the betti
    # characters and depths come from a generator that does not depend on
    # the seed.  The betti calls on torus knots, among which the median
    # operation falls, do not depend on the seed at all, since even the
    # inversion of the relator moves their cost (T(2,15): 0.055-0.094 s).
    # The calls with 16 characters average such differences out.
    fixed = random.Random("character-scan:betti")
    half = CHARS_PER_CALL // 2
    for n in SCAN_PENCILS:
        b.invariants(render(xnames(n),
                            reshaped(rng, pencil_relators(n), rotate=False)),
                     pencil_expect(n), pencil_chars(rng, n, CHARS_PER_CALL))
    for p, q in SCAN_TORUS:
        b.invariants(torus_text(rng, p, q, rotate=False), torus_expect(p, q),
                     torus_chars(rng, p, q, half, half))
    for r in SCAN_FREE:
        b.invariants(render(xnames(r), []), free_expect(r),
                     free_chars(rng, r, CHARS_PER_CALL))
    for n in BETTI_PENCILS:
        [(spec, want)] = pencil_chars(fixed, n, 1).items()
        b.betti(render(xnames(n),
                       reshaped(rng, pencil_relators(n), rotate=False)),
                spec, fixed.randint(1, n - 2), want)
    for i, (p, q) in enumerate(BETTI_TORUS):
        [(spec, want)] = torus_chars(fixed, p, q, i % 2, 1 - i % 2).items()
        b.betti(render(["x", "y"], [[(0, p), (1, -q)]]), spec, 1, want)
    for r in BETTI_FREE:
        [(spec, want)] = free_chars(fixed, r, 1).items()
        b.betti(render(xnames(r), []), spec, fixed.randint(1, r), want)


def warmup(workload, workdir):
    """Operations on inputs outside the workload, run before it to load
    sympy's lazily imported parts and fill alexkit's small static tables."""
    grp = os.path.join(workdir, "warmup-group.grp")
    knot = os.path.join(workdir, "warmup-knot.grp")
    with open(grp, "w", encoding="utf-8") as fh:
        fh.write("gens: y1 y2 y3 y4\n"
                 "rel: y1 y2 y1^-1 y2^-1 y3 y4 y3^-1 y4^-1\n"
                 "rel: y2 y3 y2^-1 y3^-1 y1 y4^-1 y1^-1 y4\n"
                 "rel: y4 y1 y4^-1 y1^-1\n")
    with open(knot, "w", encoding="utf-8") as fh:
        fh.write("gens: x y\nrel: x^2 y^-13\n")
    return {
        "fox-width": [["invariants", grp]],
        "univariate-degree": [["invariants", knot],
                              ["seifert", "--weights", "1,1,1,4,5", "--q",
                               "3", "--char", "t1=zeta20,t2=1,t3=1"]],
        "character-scan": [["invariants", knot, "--char",
                            "x=zeta26^13,y=zeta26^2"],
                           ["betti", grp, "--char",
                            "y1=zeta6,y2=zeta6^5,y3=-1,y4=1", "--depth", "1"]],
    }[workload]


def build(workload, seed, workdir):
    """The operations of one workload for one seed, with their answers."""
    rng = random.Random(f"{workload}:{seed}")
    b = OpList(workdir)
    {"fox-width": fox_width, "univariate-degree": univariate_degree,
     "character-scan": character_scan}[workload](rng, b)
    return b.ops
