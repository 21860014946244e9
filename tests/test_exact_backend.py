"""The exact fiber backend against a dict-of-Fraction reference.

The reference keeps a fiber as a dict position -> weight of Fractions:
positions reduced mod 1, coincident atoms merged, exact zeros dropped,
atoms sorted by position.  The library keeps integer numerators over
shared denominators; every operation below must give the reference's
atoms, including for the lacunary angle's 2^64 and the golden
surrogate's 10^60 denominators.
"""

import math
import random
from fractions import Fraction as F

import pytest

from oracles import pairwise_lp_w1
from skewstab.dynamics import OrbitBump
from skewstab.measures import (
    FiberMeasure,
    coarsen,
    uniform_fiber,
    w1_norm,
)
from skewstab.measures import _w1_tableau
from skewstab.stability import _EXACT_COS, _term_value

DENOMINATORS = (2 ** 64, 10 ** 60, 12, 97, 2 ** 10)


def ref(atoms) -> list:
    merged: dict = {}
    for p, w in atoms:
        p = F(p) % 1
        merged[p] = merged.get(p, F(0)) + F(w)
    return sorted((p, w) for p, w in merged.items() if w != 0)


def random_atoms(rng: random.Random, den: int, n: int, signed=True) -> list:
    """n atoms over denominator den, with repeated positions, positions
    outside [0, 1) and weights that cancel to exactly zero."""
    atoms = []
    for _ in range(n):
        p = F(rng.randrange(den), den) + rng.randrange(-2, 3)
        lo = -40 if signed else 1
        w = F(rng.randrange(lo, 40), rng.randrange(1, 30))
        atoms.append((p, w))
    for p, w in atoms[: n // 3]:
        atoms.append((p + 1, -w if rng.random() < 0.5 else w))
    rng.shuffle(atoms)
    return atoms


def build(atoms) -> FiberMeasure:
    return FiberMeasure([p for p, _ in atoms], [w for _, w in atoms],
                        exact=True)


def cases(seed: int, count: int = 6, signed=True):
    rng = random.Random(seed)
    for den in DENOMINATORS:
        for _ in range(count):
            yield rng, den, random_atoms(rng, den, rng.randrange(1, 12),
                                         signed=signed)


def test_construction_mass_and_atoms_match_reference():
    for _, den, atoms in cases(1):
        fm = build(atoms)
        want = ref(atoms)
        assert fm.exact
        assert fm.atoms() == want
        assert fm.mass() == sum((w for _, w in want), F(0))
        assert fm.abs_mass() == sum((abs(w) for _, w in want), F(0))
        # denominators in lowest terms: the least common ones
        assert fm.q == math.lcm(*(p.denominator for p, _ in want))
        assert fm.r == math.lcm(*(w.denominator for _, w in want))


def test_algebra_matches_reference():
    for rng, den, atoms in cases(2):
        other = random_atoms(rng, DENOMINATORS[rng.randrange(5)], 7)
        a, b = build(atoms), build(other)
        assert (a + b).atoms() == ref(atoms + other)
        assert (a - b).atoms() == ref(atoms + [(p, -w) for p, w in other])
        # a - a cancels every atom
        assert (a - a).atoms() == [] and (a - a).mass() == 0
        for s in (F(3, 7), F(-1), F(0), 5, F(1, 10 ** 60)):
            assert a.scale(s).atoms() == ref([(p, s * w) for p, w in atoms])
        for t in (F(1, 3), F(-5, 2 ** 64), F(7, 10 ** 60), 2):
            assert a.translate(t).atoms() == ref([(p + t, w)
                                                  for p, w in atoms])
        for e in (F(1, 16), F(1, 3), F(3, 10 ** 6)):
            assert coarsen(a, e).atoms() == ref(
                [((F(p) % 1 / e).__floor__() * e, w) for p, w in atoms])


def test_content_key_ignores_how_content_was_written():
    rng = random.Random(3)
    for den in DENOMINATORS:
        a = build(random_atoms(rng, den, 9))
        b = build(random_atoms(rng, 10 ** 60, 9))
        t = F(rng.randrange(2 ** 64), 2 ** 64)
        same = [(a + b) - b, a.scale(F(3, 10 ** 60)).scale(F(10 ** 60, 3)),
                a.translate(t).translate(1 - t),
                a + build([(F(1, 10 ** 60), F(1, 2 ** 64)),
                           (F(1, 10 ** 60), F(-1, 2 ** 64))])]
        for c in same:
            assert c.content_key() == a.content_key()
            assert (c.q, c.r) == (a.q, a.r)
    # coincident atoms written over different denominators merge
    x = build([(F(2, 4), F(1, 3)), (F(10 ** 59, 2 * 10 ** 59), F(2, 6))])
    assert x.content_key() == build([(F(1, 2), F(2, 3))]).content_key()


def test_w1_matches_reference():
    # single-signed: |mass|
    for _, den, atoms in cases(4, signed=False):
        fm = build(atoms)
        assert w1_norm(fm) == abs(sum((w for _, w in ref(atoms)), F(0)))
    # balanced: min over c of sum gap * |F - c| (the optimum sits at a
    # prefix value F), one exact Fraction; the exact LP agrees on <= 8 atoms
    for rng, den, atoms in cases(5):
        want = ref(atoms)
        if len(want) < 2:
            continue
        total = sum((w for _, w in want), F(0))
        want[-1] = (want[-1][0], want[-1][1] - total)
        want = [a for a in want if a[1] != 0]
        if len(want) < 2:
            continue
        pos = [p for p, _ in want]
        prefix, acc = [], F(0)
        for _, w in want:
            acc += w
            prefix.append(acc)
        gaps = [b - a for a, b in zip(pos, pos[1:])] + [pos[0] + 1 - pos[-1]]
        value = min(sum((g * abs(f - c) for f, g in zip(prefix, gaps)), F(0))
                    for c in prefix)
        fm = build(want)
        assert w1_norm(fm) == value
        if len(fm) <= 8:
            assert _w1_tableau(fm) == value
    # unbalanced signed measures on <= 8 atoms: the exact LP, checked
    # against the all-pairs float program
    for _, den, atoms in cases(6):
        fm = build(atoms)
        if len(fm) > 8 or fm.mass() == 0:
            continue
        v = w1_norm(fm)
        assert isinstance(v, F)
        assert float(v) == pytest.approx(pairwise_lp_w1(fm), abs=1e-9)


def test_canonical_constructors():
    for n, total in ((1, F(1)), (12, F(1, 64)), (2 ** 10, F(3, 7))):
        fm = uniform_fiber(n, weight_total=total)
        want = ref([(F(j, n), total / n) for j in range(n)])
        assert fm.atoms() == want
        assert fm.content_key() == build(want).content_key()
    for p, q, off in ((1, 16, 0), (3, 8, F(5, 16)), (5, 12, F(7, 3)),
                      (1, 1, F(1, 10 ** 60))):
        fm = uniform_fiber(q).translate(off)
        want = ref([(off + F(j * p, q), F(1, q)) for j in range(q)])
        assert fm.atoms() == want
        assert fm.content_key() == build(want).content_key()


def test_orbit_bump_fixes_matches_reference():
    rng = random.Random(7)
    for k in (1, 4, 16):
        bump = OrbitBump(k, 0.0)
        for den in (2 * k, 4 * k, 3, 2 ** 64):
            for _ in range(5):
                atoms = [(F(rng.randrange(den), den), F(1))
                         for _ in range(rng.randrange(1, 6))]
                fm = build(atoms)
                assert bump.fixes(fm) == all(
                    (p * 2 * k).denominator == 1 for p, _ in fm.atoms())


def _term_reference(atoms, freq: int):
    groups: dict = {}
    for p, w in atoms:
        phase = (freq * p) % 1
        groups[phase] = groups.get(phase, F(0)) + w
    if not groups:
        return F(0)
    weights = list(groups.values())
    L = len(groups)
    base = min(groups)
    if L > 1 and all(w == weights[0] for w in weights) and \
            sorted(groups) == [base + F(i, L) for i in range(L)]:
        return F(0)
    if all(p in _EXACT_COS for p in groups):
        return sum((w * _EXACT_COS[p] for p, w in groups.items()), F(0))
    return math.fsum(float(w) * math.cos(2 * math.pi * float(p))
                     for p, w in groups.items())


def test_term_value_residues_match_reference():
    freqs = (1, 2, 3, 2 ** 4, 2 ** 16, 2 ** 64, 2 ** 256)
    for _, den, atoms in cases(8):
        fm = build(atoms)
        for freq in freqs:
            assert _term_value(fm, freq) == \
                _term_reference(ref(atoms), freq)
    for fm in (uniform_fiber(2 ** 8),
               uniform_fiber(12).translate(F(1, 24)),
               uniform_fiber(6).scale(F(1, 10 ** 60))):
        for freq in freqs:
            assert _term_value(fm, freq) == \
                _term_reference(fm.atoms(), freq)
