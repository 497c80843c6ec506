"""Closed-form counts, Weil bounds, classification bundles."""

import copy
import json
import math
import os
import pickle
import random
import subprocess
import sys

import numpy
import pytest

import artinschreier
from artinschreier.counting import (
    CountReport,
    CurveSpec,
    HypersurfaceSpec,
    classify_curve,
    classify_curve_detail,
    classify_hypersurface,
    classify_hypersurface_detail,
    count_curve,
    count_hypersurface,
    eps,
    weil_bounds,
)
from artinschreier.fields import FieldTower, build_tower
from artinschreier.oracle import DEFAULT_LIMIT, oracle_curve, oracle_hypersurface

from conftest import grid_towers, random_terms, zero_trace_element


def _curve(p, s, n, i, lam=None):
    t = build_tower(p, s, n)
    return CurveSpec(t, i, t.zero if lam is None else lam)


def _hyper(p, s, n, terms, lam=None):
    t = build_tower(p, s, n)
    return HypersurfaceSpec(t, tuple(terms), t.zero if lam is None else lam)


# -------------------------------------------------------------------- eps


def test_eps_examples():
    assert eps(0, 3) == 2
    assert eps(1, 3) == -1
    for q in (3, 9, 25):
        assert sum(eps(a, q) for a in range(q)) == 0


# ------------------------------------------------------------ curve counts


def test_count_curve_examples():
    assert count_curve(_curve(3, 1, 2, 1)).closed_form == 9
    t = build_tower(3, 1, 2)
    assert count_curve(CurveSpec(t, 1, (2, 0))).closed_form == 18
    assert count_curve(_curve(3, 1, 4, 2)).closed_form == 27
    assert count_curve(_curve(3, 1, 6, 1)).closed_form == 891


def test_count_curve_regressions():
    # multiple-even cases; signs pinned by exhaustive enumeration
    r = count_curve(_curve(3, 1, 6, 2))
    assert r.closed_form == 1215 and r.classification == "Maximal"
    assert count_curve(_curve(3, 1, 9, 3)).closed_form == 3 ** 9
    r = count_curve(_curve(3, 1, 12, 2))
    assert r.closed_form == 518319 and r.classification == "Minimal"
    r = count_curve(_curve(3, 1, 12, 4))
    assert r.closed_form == 413343 and r.classification == "Minimal"
    r = count_curve(_curve(3, 1, 12, 6))
    assert r.closed_form == 492075 and r.classification == "Neither"


def test_count_curve_branch_names():
    assert count_curve(_curve(3, 1, 2, 1)).branch == "coprime-odd"
    assert count_curve(_curve(3, 1, 5, 1)).branch == "coprime-even"
    assert count_curve(_curve(3, 1, 9, 3)).branch == "multiple-odd"
    assert count_curve(_curve(3, 1, 6, 2)).branch == "multiple-even"


def test_count_curve_report_fields():
    r = count_curve(_curve(3, 1, 2, 1))
    assert isinstance(r, CountReport)
    assert r.trace_lambda == 0
    assert r.bound_lower <= r.closed_form <= r.bound_upper


def _specialized_two_i(t, i, trl):
    """Count for n = 2i written directly in terms of i."""
    q = t.q
    if i % 2 == 1:
        arg = t.bmul(t.bmul(t.base_from_int(2 * (-1) ** ((i + 1) // 2)),
                            t.bpow(t.base_from_int(2), i)), trl)
        return q ** (2 * i) - t.quadratic_character(arg) * q ** ((3 * i + 1) // 2)
    arg = t.bmul(t.base_from_int((-1) ** (i // 2)), t.bpow(t.base_from_int(2), i))
    return q ** (2 * i) + eps(trl, q) * t.quadratic_character(arg) * q ** (3 * i // 2)


def test_n_equals_2i_consistency():
    # the dedicated n = 2i form and the general branch must coincide
    rng = random.Random(53)
    for p, s, n in [(3, 1, 2), (3, 1, 4), (3, 1, 6), (3, 1, 8),
                    (5, 1, 4), (3, 2, 2), (7, 1, 6)]:
        t = build_tower(p, s, n)
        i = n // 2
        lams = [t.zero] + [t.random_element(rng) for _ in range(4)]
        for lam in lams:
            spec = CurveSpec(t, i, lam)
            assert count_curve(spec).closed_form == _specialized_two_i(t, i, t.trace(lam))


def _reference_i_one(t, trl):
    """Independent i = 1 count: four branches written out with l = n."""
    q, n, p = t.q, t.n, t.p
    if n % p != 0:
        if n % 2 == 0:
            arg = t.bmul(t.base_from_int(2 * (-1) ** (n // 2) * n), trl)
            return q ** n - t.quadratic_character(arg) * q ** ((n + 2) // 2)
        arg = t.base_from_int((-1) ** ((n - 1) // 2) * n)
        return q ** n + eps(trl, q) * t.quadratic_character(arg) * q ** ((n + 1) // 2)
    if n % 2 == 0:
        arg = t.base_from_int((-1) ** (n // 2))
        return q ** n - eps(trl, q) * t.quadratic_character(arg) * q ** ((n + 2) // 2)
    arg = t.bmul(t.base_from_int(2 * (-1) ** ((n - 3) // 2)), trl)
    return q ** n + t.quadratic_character(arg) * q ** ((n + 3) // 2)


def test_i_one_reference_agreement():
    rng = random.Random(59)
    for p, s, n in grid_towers():
        t = build_tower(p, s, n)
        lams = [t.zero] + [t.ext_from_int(t.q ** k) for k in range(n)]
        lams += [t.random_element(rng) for _ in range(3)]
        for lam in lams:
            spec = CurveSpec(t, 1, lam)
            assert count_curve(spec).closed_form == _reference_i_one(t, t.trace(lam)), (p, s, n)


def test_count_depends_only_on_trace_of_lambda():
    rng = random.Random(61)
    for p, s, n in [(3, 1, 5), (3, 2, 3), (5, 1, 4), (7, 1, 3)]:
        t = build_tower(p, s, n)
        for _ in range(5):
            lam = t.random_element(rng)
            shifted = t.xadd(lam, zero_trace_element(t, rng))
            assert t.trace(shifted) == t.trace(lam)
            for i in (1, n - 1):
                a = count_curve(CurveSpec(t, i, lam))
                b = count_curve(CurveSpec(t, i, shifted))
                assert a.closed_form == b.closed_form


# ------------------------------------------------------------ hypersurface


def test_count_hypersurface_examples():
    assert count_hypersurface(_hyper(3, 1, 2, [(1, 1), (1, 1)])).closed_form == 27
    # q=25, n=30, terms x_j (x_j^{q^i}-x_j) for i = 2, 3, 6
    r = count_hypersurface(_hyper(5, 2, 30, [(1, 2), (1, 3), (1, 6)]))
    assert r.closed_form == 25 ** 90 - 24 * 25 ** 56
    assert r.classification == "Minimal"
    assert r.closed_form == r.bound_lower


def test_hypersurface_r1_matches_curve():
    rng = random.Random(67)
    for p, s, n in [(3, 1, 4), (3, 1, 6), (5, 1, 3), (3, 2, 3), (7, 1, 4)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            lam = t.random_element(rng)
            c = count_curve(CurveSpec(t, i, lam))
            h = count_hypersurface(HypersurfaceSpec(t, ((1, i),), lam))
            assert h.closed_form == c.closed_form
            assert h.classification == c.classification
            assert (h.bound_lower, h.bound_upper) == (c.bound_lower, c.bound_upper)


def test_hypersurface_term_permutation_invariant():
    rng = random.Random(71)
    for p, s, n in [(3, 1, 6), (5, 1, 4), (3, 2, 3)]:
        t = build_tower(p, s, n)
        for _ in range(8):
            terms = list(random_terms(t, rng, 3))
            lam = t.random_element(rng)
            base = count_hypersurface(HypersurfaceSpec(t, tuple(terms), lam)).closed_form
            rng.shuffle(terms)
            assert count_hypersurface(HypersurfaceSpec(t, tuple(terms), lam)).closed_form == base


# ------------------------------------------------------------- weil bounds


def test_weil_bounds_examples():
    b = weil_bounds(_curve(3, 1, 6, 1))
    assert b.upper == 729 + 2 * 3 ** 4 == 891
    assert b.lower == 729 - 2 * 3 ** 4
    assert not b.half_integral
    b = weil_bounds(_hyper(5, 2, 30, [(1, 2), (1, 3), (1, 6)]))
    assert b.lower == 25 ** 90 - 24 * 25 ** 56


def test_weil_bounds_half_integral_flag():
    b = weil_bounds(_curve(3, 1, 3, 1))  # exponent 5, s = 1: sqrt(3) survives
    assert b.half_integral
    assert b.lower == 27 - math.isqrt(4 * 3 ** 5)
    # same exponent but q = 9 is a perfect square, so the bound is exact
    b = weil_bounds(_curve(3, 2, 3, 1))
    assert not b.half_integral
    assert b.upper == 9 ** 3 + 8 * 3 ** 5


def test_weil_deviation_equals_isqrt():
    # an even exponent s(nr + 2I) gives the deviation (q - 1) p^(s(nr+2I)/2)
    # directly, an odd one its floor by isqrt; both must equal isqrt
    cases = [(3, 1, 6, [(1, 1)]), (3, 1, 3, [(1, 1)]), (3, 2, 3, [(1, 1)]),
             (5, 1, 7, [(1, 2), (3, 4)]), (7, 1, 5, [(1, 1), (2, 3), (4, 2)]),
             (3, 1, 10 ** 5, [(1, 7), (2, 3)]), (3, 1, 10 ** 5 - 1, [(1, 5)]),
             (5, 2, 10 ** 5 - 1, [(1, 4)]), (7, 1, 10 ** 5 - 1, [(1, 1), (3, 2), (2, 9)])]
    branches = set()
    for p, s, n, terms in cases:
        b = weil_bounds(_hyper(p, s, n, terms))
        q, nr, two_i = p ** s, n * len(terms), 2 * sum(i for _, i in terms)
        dev = math.isqrt((q - 1) ** 2 * q ** (nr + two_i))
        assert (b.lower, b.upper) == (q ** nr - dev, q ** nr + dev), (p, s, n, terms)
        assert b.half_integral == (s * (nr + two_i) % 2 == 1), (p, s, n, terms)
        branches.add(b.half_integral)
    assert branches == {False, True}


def test_bounds_sandwich_sampled():
    rng = random.Random(73)
    for p, s, n in grid_towers():
        t = build_tower(p, s, n)
        for i in range(1, n):
            for lam in (t.zero, t.random_element(rng)):
                r = count_curve(CurveSpec(t, i, lam))
                assert r.bound_lower <= r.closed_form <= r.bound_upper


# ---------------------------------------------------------- classification


def _nonzero_trace_element(t):
    return next(t.ext_from_int(m) for m in range(1, t.ext_card)
                if t.trace(t.ext_from_int(m)) != 0)


def test_classify_curve_examples():
    assert classify_curve(_curve(3, 1, 6, 1)) == "Maximal"
    assert classify_curve(_curve(3, 1, 2, 1)) == "Neither"
    t = build_tower(3, 1, 6)
    assert classify_curve(CurveSpec(t, 1, _nonzero_trace_element(t))) == "Neither"


def test_classify_curve_bundle():
    label, cond = classify_curve_detail(_curve(3, 1, 6, 1))
    assert label == "Maximal"
    assert cond == {"traceLambdaZero": True, "nEven": True, "iDividesN": True,
                    "pDividesNOverI": True, "sign": 1}
    label, cond = classify_curve_detail(_curve(3, 1, 12, 6))
    assert label == "Neither"
    assert cond["iDividesN"] and not cond["pDividesNOverI"]
    assert cond["sign"] is None


def test_classify_hypersurface_bundle():
    label, cond = classify_hypersurface_detail(
        _hyper(5, 2, 30, [(1, 2), (1, 3), (1, 6)]))
    assert label == "Minimal"
    assert cond["traceLambdaZero"] and cond["D1Zero"] and cond["nrEven"]
    assert cond["YExponentsEqualGcd"]
    assert cond["D2"] == 11
    assert cond["tauExponentMod4"] == 0
    assert cond["tauFactor"] == 1
    assert cond["chiSign"] == -1
    assert cond["sign"] == -1


def test_classify_hypersurface_neither_cases():
    # D1 > 0: l = 4 is coprime to 3
    label, cond = classify_hypersurface_detail(_hyper(3, 1, 4, [(1, 1)]))
    assert label == "Neither" and not cond["D1Zero"]
    assert cond["sign"] is None
    # nonzero trace
    t = build_tower(3, 1, 6)
    spec = HypersurfaceSpec(t, ((1, 2),), _nonzero_trace_element(t))
    assert classify_hypersurface(spec) == "Neither"


def test_classification_matches_bounds_sampled():
    rng = random.Random(79)
    for p, s, n in [(3, 1, 6), (3, 1, 12), (5, 1, 4), (3, 2, 4), (7, 1, 7)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            for lam in (t.zero, t.random_element(rng)):
                r = count_curve(CurveSpec(t, i, lam))
                want = ("Maximal" if r.closed_form == r.bound_upper else
                        "Minimal" if r.closed_form == r.bound_lower else "Neither")
                assert r.classification == want


# ------------------------------------------------ the curve theorem in full


def _curve_theorem(t, i, trl):
    """The paper's curve count and its Weil-bound attainment, written out
    without the library's per-term core: (N, branch, condition bundle).

    With d = gcd(i, n) and l = n/d:
      l coprime to p, n+d odd:   N = q^n - chi(2 (-1)^((n-d+1)/2) Tr(lam) l^d) q^((n+d+1)/2)
      l coprime to p, n+d even:  N = q^n + eps(Tr(lam)) chi((-1)^((n-d)/2) l^d) q^((n+d)/2)
      p | l, n odd:              N = q^n + chi(2 (-1)^((n+1)/2) Tr(lam)) q^((n+2d+1)/2)
      p | l, n even:             N = q^n - eps(Tr(lam)) chi((-1)^(n/2)) q^((n+2d)/2)
    A bound is attained iff Tr(lam) = 0, n is even, i | n and p | n/i, and
    the attained end is sign = -chi((-1)^(n/2)): +1 Maximal, -1 Minimal.
    """
    q, n, p = t.q, t.n, t.p
    chi = t.quadratic_character
    d = math.gcd(i, n)
    l = n // d
    two_trl = t.bmul(t.base_from_int(2), trl)
    if l % p:
        ld = t.bpow(t.base_from_int(l), d)
        if (n + d) % 2:
            branch = "coprime-odd"
            arg = t.bmul(t.bmul(two_trl, ld), t.base_from_int((-1) ** ((n - d + 1) // 2)))
            count = q ** n - chi(arg) * q ** ((n + d + 1) // 2)
        else:
            branch = "coprime-even"
            arg = t.bmul(ld, t.base_from_int((-1) ** ((n - d) // 2)))
            count = q ** n + eps(trl, q) * chi(arg) * q ** ((n + d) // 2)
    elif n % 2:
        branch = "multiple-odd"
        arg = t.bmul(two_trl, t.base_from_int((-1) ** ((n + 1) // 2)))
        count = q ** n + chi(arg) * q ** ((n + 2 * d + 1) // 2)
    else:
        branch = "multiple-even"
        arg = t.base_from_int((-1) ** (n // 2))
        count = q ** n - eps(trl, q) * chi(arg) * q ** ((n + 2 * d) // 2)
    bundle = {"traceLambdaZero": trl == 0, "nEven": n % 2 == 0,
              "iDividesN": n % i == 0,
              "pDividesNOverI": n % i == 0 and (n // i) % p == 0}
    attained = all(bundle.values())
    bundle["sign"] = -chi(t.base_from_int((-1) ** (n // 2))) if attained else None
    return count, branch, bundle


def test_curve_theorem_reference():
    # p in {3,5,7,11,13}, s in {1,2}, 2 <= n <= 18, every i, three lambdas:
    # zero, 1 (trace n, zero exactly when p | n) and a random element
    rng = random.Random(127)
    labels = {1: "Maximal", -1: "Minimal", None: "Neither"}
    checked = 0
    for p in (3, 5, 7, 11, 13):
        for s in (1, 2):
            for n in range(2, 19):
                t = build_tower(p, s, n)
                lams = (t.zero, (1,) + t.zero[1:], t.random_element(rng))
                for i in range(1, n):
                    for lam in lams:
                        spec = CurveSpec(t, i, lam)
                        count, branch, bundle = _curve_theorem(t, i, t.trace(lam))
                        rep = count_curve(spec)
                        where = (p, s, n, i, lam)
                        assert (rep.closed_form, rep.branch) == (count, branch), where
                        label, got = classify_curve_detail(spec)
                        assert list(got.items()) == list(bundle.items()), where
                        assert label == rep.classification == labels[bundle["sign"]], where
                        checked += 1
    assert checked == 4590


# ------------------------------------------- counts that need no modulus


def test_count_curve_lambda_in_base_field_skips_the_modulus_search():
    # Tr(lambda) = n lambda_0 for lambda in F_q, so these counts never search
    # for a modulus of degree 2000; the search alone would take minutes
    n, i = 2000, 7
    src = os.path.dirname(os.path.dirname(artinschreier.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    t = FieldTower(3, 1, n)
    for lam0 in (0, 2):
        proc = subprocess.run(
            [sys.executable, "-m", "artinschreier.cli", "count-curve", "--p", "3",
             "--n", str(n), "--i", str(i), "--lambda", str(lam0)],
            capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 0, proc.stderr
        count, branch, _ = _curve_theorem(t, i, n * lam0 % 3)
        assert json.loads(proc.stdout)["closedForm"] == count
        lam = (lam0,) + t.zero[1:]
        spec = CurveSpec(t, i, lam)
        assert (count_curve(spec).closed_form, count_curve(spec).branch) == (count, branch)
        classify_curve(spec)
        classify_hypersurface(HypersurfaceSpec(t, ((1, i), (2, 3)), lam))
    assert t._ext_modulus is None and t._tr_mono is None


# (p, s, n, i or terms, c, e, k, branch, classification): lambda = (c, 0, ...,
# 0), so no count searches a modulus, and closed_form = q^(nr) + e q^k.  The
# rows cover p | l (where p | n makes Tr(lambda) = 0) and p not dividing l with
# Tr(lambda) zero and nonzero, R odd and even, and attained bounds with one,
# two and three terms
FAR_PAST_THE_GRID = [
    (3, 1, 300, 100, 0, -2, 250, 'multiple-even', 'Minimal'),
    (3, 1, 300, 50, 1, -2, 200, 'multiple-even', 'Minimal'),
    (3, 1, 300, 200, 2, -2, 250, 'multiple-even', 'Neither'),
    (3, 1, 105, 35, 0, 0, 0, 'multiple-odd', 'Neither'),
    (3, 1, 300, 75, 2, 0, 0, 'coprime-odd', 'Neither'),
    (5, 1, 101, 1, 1, -1, 51, 'coprime-even', 'Neither'),
    (5, 1, 101, 7, 0, 4, 51, 'coprime-even', 'Neither'),
    (7, 1, 200, 8, 3, -1, 104, 'coprime-even', 'Neither'),
    (7, 1, 202, 101, 3, 1, 152, 'coprime-odd', 'Neither'),
    (13, 2, 130, 10, 5, -168, 75, 'multiple-even', 'Minimal'),
    (13, 1, 1000, 250, 7, -1, 625, 'coprime-even', 'Neither'),
    (5, 2, 125, 25, 3, 0, 0, 'multiple-odd', 'Neither'),
    (3, 2, 150, 30, 0, 8, 90, 'coprime-even', 'Neither'),
    (3, 2, 151, 2, 4, -1, 76, 'coprime-even', 'Neither'),
    (7, 2, 343, 49, 2, 0, 0, 'multiple-odd', 'Neither'),
    (3, 1, 999, 333, 1, 0, 0, 'multiple-odd', 'Neither'),
    (3, 1, 102, ((1, 34), (2, 34)), 0, 2, 170, 'even', 'Maximal'),
    (5, 1, 101, ((1, 1), (3, 2)), 2, -1, 102, 'even', 'Neither'),
    (5, 1, 101, ((2, 1), (3, 5), (4, 10)), 1, -1, 153, 'even', 'Neither'),
    (7, 1, 105, ((1, 5), (6, 21)), 3, 0, 0, 'odd', 'Neither'),
    (13, 1, 130, ((2, 10), (5, 13)), 0, 0, 0, 'odd', 'Neither'),
    (3, 2, 101, ((1, 1), (5, 3)), 7, -1, 102, 'even', 'Neither'),
    (3, 2, 101, ((2, 1),), 1, -1, 51, 'even', 'Neither'),
    (5, 2, 101, ((3, 1), (7, 2), (11, 4)), 3, -1, 153, 'even', 'Neither'),
    (5, 1, 102, ((1, 3), (4, 2)), 2, 1, 105, 'odd', 'Neither'),
    (13, 2, 104, ((1, 1), (2, 13), (3, 8)), 2, 0, 0, 'odd', 'Neither'),
    (3, 1, 900, ((1, 300), (2, 300), (1, 100)), 0, -2, 2050, 'even', 'Minimal'),
    (7, 2, 202, ((1, 101), (10, 2)), 5, -1, 254, 'odd', 'Neither'),
    (3, 1, 300, ((1, 200), (2, 100)), 0, 2, 500, 'even', 'Neither'),
    (5, 1, 500, ((4, 100), (2, 250)), 0, -4, 725, 'even', 'Neither'),
]


def test_hypersurface_counts_far_past_the_grid():
    for p, s, n, what, c, e, k, branch, label in FAR_PAST_THE_GRID:
        t = build_tower(p, s, n)
        lam = (c,) + (0,) * (n - 1)
        if isinstance(what, int):
            rep, r = count_curve(CurveSpec(t, what, lam)), 1
        else:
            rep, r = count_hypersurface(HypersurfaceSpec(t, what, lam)), len(what)
        assert rep.closed_form == t.q ** (n * r) + e * t.q ** k, (p, s, n, what, c)
        assert (rep.branch, rep.classification) == (branch, label), (p, s, n, what, c)
        assert t._ext_modulus is None


def test_trace_builds_the_modulus_on_first_need():
    lazy, eager = FieldTower(3, 1, 30), FieldTower(3, 1, 30)
    eager.ext_modulus  # the search runs first, before any count
    count_curve(CurveSpec(lazy, 7, (2,) + lazy.zero[1:]))
    assert lazy._ext_modulus is None
    lam = (1, 2) + (0,) * 28
    assert lazy.trace(lam) == eager.trace(lam)
    assert lazy._ext_modulus == eager.ext_modulus


def test_trace_lambda_computed_once_per_spec(monkeypatch):
    calls = []
    real = FieldTower.trace

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(FieldTower, "trace", counted)
    t = build_tower(3, 2, 3)
    lam = (4, 7, 1)
    runs = [(CurveSpec, 2, count_curve, classify_curve, classify_curve_detail, oracle_curve),
            (HypersurfaceSpec, ((1, 2), (5, 1), (1, 2)), count_hypersurface,
             classify_hypersurface, classify_hypersurface_detail, oracle_hypersurface)]
    for cls, what, *steps in runs:
        calls.clear()
        spec = cls(t, what, lam)  # the spec computes its trace when it is made
        results = [step(spec) for step in steps]
        assert calls == [lam], cls.__name__
        assert results[0].trace_lambda == spec.trace_lambda == real(t, lam)
        # a spec that holds its trace is the same value as a fresh one
        fresh = cls(t, what, lam)
        assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
        assert copy.copy(spec) == fresh and repr(copy.deepcopy(spec)) == repr(fresh)
        assert pickle.dumps(spec) == pickle.dumps(fresh)
        assert repr(pickle.loads(pickle.dumps(spec))) == repr(fresh)


def test_term_profile_built_once_per_terms(monkeypatch):
    from artinschreier import counting

    calls = []
    real = counting.term_invariants

    def counted(t, n, a, i):
        calls.append((a, i))
        return real(t, n, a, i)

    monkeypatch.setattr(counting, "term_invariants", counted)
    t = build_tower(3, 1, 6)
    lam, other = t.zero, (0, 1, 0, 0, 0, 0)
    terms = ((1, 1), (2, 3), (1, 1))  # a repeated term
    runs = [(CurveSpec, 2, count_curve, classify_curve, classify_curve_detail),
            (HypersurfaceSpec, terms, count_hypersurface, classify_hypersurface,
             classify_hypersurface_detail)]
    for cls, what, *steps in runs:
        calls.clear()
        spec = cls(t, what, lam)
        for step in steps + [weil_bounds]:
            step(spec)
        assert len(calls) == len(spec.terms), cls.__name__
        calls.clear()
        for step in steps:
            step(cls(t, what, other))
        assert calls == [], cls.__name__
    base = count_hypersurface(HypersurfaceSpec(t, terms, other)).closed_form
    permuted = HypersurfaceSpec(t, ((2, 3), (1, 1), (1, 1)), other)
    assert count_hypersurface(permuted).closed_form == base
    assert count_hypersurface(HypersurfaceSpec(t, list(terms), other)).closed_form == base
    # every ordering of the multiset reads the one profile
    assert calls == []


def _lambdas_by_trace(t, seed):
    """Two lambdas for each trace in F_q."""
    rng, by_trace = random.Random(seed), {}
    while len(by_trace) < t.q or min(map(len, by_trace.values())) < 2:
        lam = t.random_element(rng)
        by_trace.setdefault(t.trace(lam), []).append(lam)
    return {c: lams[:2] for c, lams in by_trace.items()}


def test_count_computed_once_per_multiset_trace_and_kind(monkeypatch):
    from artinschreier import counting

    calls = []
    real = counting.count_qf_solutions

    def counted(t, n, v, delta_char, alpha):
        calls.append(alpha)
        return real(t, n, v, delta_char, alpha)

    monkeypatch.setattr(counting, "count_qf_solutions", counted)
    t = build_tower(3, 1, 4)
    by_trace = _lambdas_by_trace(t, 151)
    orderings = [((1, 1), (2, 3), (1, 1)), ((2, 3), (1, 1), (1, 1)), ((1, 1), (1, 1), (2, 3))]
    specs = [HypersurfaceSpec(t, terms, lam)
             for terms in orderings for lams in by_trace.values() for lam in lams]
    specs += [cls(t, what, lam) for cls, what in ((CurveSpec, 1), (HypersurfaceSpec, ((1, 1),)))
              for lams in by_trace.values() for lam in lams]
    reports = [(count_curve if isinstance(spec, CurveSpec) else count_hypersurface)(spec)
               for spec in specs]
    # one count per trace for each of three inputs: the multiset, and the
    # term (1, 1) as a curve and as a hypersurface, whose branches differ
    assert sorted(calls) == sorted(3 * list(by_trace))
    assert [rep.trace_lambda for rep in reports] == [spec.trace_lambda for spec in specs]
    # the classifiers read the kept report: no condition pass runs
    with monkeypatch.context() as patch:
        patch.setattr(counting, "_attainment", None)
        for spec, rep in zip(specs, reports):
            classify = classify_curve if isinstance(spec, CurveSpec) else classify_hypersurface
            assert classify(type(spec)(*spec)) == rep.classification
    # every kept report is the one a fresh profile computes
    monkeypatch.setattr(counting, "_PROFILES", {})
    for spec, rep in zip(specs, reports):
        count = count_curve if isinstance(spec, CurveSpec) else count_hypersurface
        assert count(type(spec)(*spec)) == rep


def test_cross_check_runs_on_the_first_count_of_each_input(monkeypatch):
    from artinschreier import counting

    t = build_tower(3, 1, 4)
    by_trace = _lambdas_by_trace(t, 157)
    (_, (lam0, lam0b)), *others = by_trace.items()
    count_hypersurface(HypersurfaceSpec(t, ((1, 1), (2, 3)), lam0))
    count_hypersurface(HypersurfaceSpec(t, ((1, 1),), lam0))

    real = counting._attainment

    def disagree(spec):
        # the attained end turned around: an attained bound reads Neither,
        # and Neither reads Maximal
        *conditions, end = real(spec)
        return (*conditions, None if end else (0, 1, 1, 1))

    monkeypatch.setattr(counting, "_attainment", disagree)
    # a repeat of identical inputs, in another order and with another lambda
    # of the same trace, reuses its checked report
    count_hypersurface(HypersurfaceSpec(t, ((2, 3), (1, 1)), lam0b))
    first_counts = [HypersurfaceSpec(t, ((2, 3), (1, 1)), lams[0]) for _, lams in others]
    first_counts += [HypersurfaceSpec(t, ((1, 1), (2, 3), (2, 3)), lam0), CurveSpec(t, 1, lam0)]
    for spec in first_counts:
        count = count_curve if isinstance(spec, CurveSpec) else count_hypersurface
        for _ in range(2):  # a refused report is not kept
            with pytest.raises(RuntimeError, match="disagrees"):
                count(spec)


def test_classify_reads_the_count_report(monkeypatch):
    from artinschreier import counting

    t = build_tower(3, 1, 6)
    by_trace = _lambdas_by_trace(t, 163)
    runs = [(CurveSpec, 2, classify_curve, count_curve),
            (HypersurfaceSpec, ((1, 1), (2, 2)), classify_hypersurface, count_hypersurface)]
    for cls, what, classify, count in runs:
        labels = []
        for lam in (by_trace[0][0], by_trace[1][0]):  # an attained bound, then Neither
            monkeypatch.setattr(counting, "_PROFILES", {})
            spec = cls(t, what, lam)
            labels.append(classify(spec))
            # the classification made the count and kept its one report
            reports = spec.profile[8]
            assert list(reports) == [(spec.trace_lambda, cls)]
            with monkeypatch.context() as patch:
                calls = []
                patch.setattr(counting, "count_qf_solutions", lambda *args: calls.append(args))
                rep = count(cls(t, what, lam))
            assert calls == [] and rep is reports[spec.trace_lambda, cls]
            assert rep.classification == labels[-1]
        assert labels[0] != "Neither" and labels[1] == "Neither", cls.__name__


# -------------------------------------------------------------- validation


def test_list_inputs_give_the_tuple_report():
    t = build_tower(3, 1, 4)
    lam = (1, 0, 2, 0)
    cases = [(CurveSpec(t, 1, list(lam)), CurveSpec(t, 1, lam), count_curve),
             (HypersurfaceSpec(t, [[1, 1], [2, 3]], list(lam)),
              HypersurfaceSpec(t, ((1, 1), (2, 3)), lam), count_hypersurface)]
    for listed, tupled, count in cases:
        assert listed == tupled and hash(listed) == hash(tupled)
        assert count(listed) == count(tupled)


def test_curve_spec_validation():
    t = build_tower(3, 1, 4)
    with pytest.raises(ValueError):
        CurveSpec(t, 0, t.zero)
    with pytest.raises(ValueError):
        CurveSpec(t, 4, t.zero)
    with pytest.raises(ValueError):
        CurveSpec(t, 1, (0, 0))  # wrong length


def test_hypersurface_spec_validation():
    t = build_tower(3, 1, 4)
    with pytest.raises(ValueError):
        HypersurfaceSpec(t, (), t.zero)
    with pytest.raises(ValueError):
        HypersurfaceSpec(t, ((0, 1),), t.zero)
    with pytest.raises(ValueError):
        HypersurfaceSpec(t, ((3, 1),), t.zero)  # a = q out of range
    with pytest.raises(ValueError):
        HypersurfaceSpec(t, ((1, 4),), t.zero)
    with pytest.raises(ValueError):
        HypersurfaceSpec(t, ((1, 1),), (0,))


def test_non_integer_entries_refused_before_and_after_the_int_count():
    # 1.0 == 1 and both hash alike, so a float let through would read the
    # report kept for the equal int spec, or fail inside the count
    t = build_tower(3, 1, 5)
    lam, lam_f = (1, 0, 0, 0, 0), (1.0, 0, 0, 0, 0)
    cases = [(CurveSpec, (1, lam_f), (1, lam)),                                  # lambda
             (CurveSpec, (1.0, lam), (1, lam)),                                  # i
             (HypersurfaceSpec, (((1.0, 2), (2, 3)), lam), (((1, 2), (2, 3)), lam)),  # a
             (HypersurfaceSpec, (((1, 2), (2, 3.0)), lam), (((1, 2), (2, 3)), lam)),  # i_j
             (HypersurfaceSpec, (((1, 2),), lam_f), (((1, 2),), lam))]              # lambda
    for cls, float_args, int_args in cases:
        count = count_curve if cls is CurveSpec else count_hypersurface
        for _ in range(2):  # before, then after, the int spec is counted
            with pytest.raises(TypeError, match="integer"):
                cls(t, *float_args)
            assert type(count(cls(t, *int_args)).trace_lambda) is int
    with pytest.raises(TypeError, match="integer"):
        CurveSpec(build_tower(3, 1, 4), 1, (0.5, 0, 0, 0))
    # integer types other than int are read as ints
    spec = CurveSpec(t, numpy.int64(1), numpy.array(lam))
    assert spec == CurveSpec(t, 1, lam) and repr(spec) == repr(CurveSpec(t, 1, lam))


# ---------------------------------------------- enumeration beyond the grid


def test_closed_forms_vs_enumeration_beyond_grid():
    # (5, 1, 10) enumerates the p = 5 multiple-even curve branch (5 | n/gcd(i, n),
    # n even); (3, 3, 3) and (3, 3, 4) enumerate odd s > 1, and (3, 3, 3) the
    # half-integral bound at s > 1.  (3, 3, 5) would add n = 5, but its
    # 3^15 = 14.3M elements exceed DEFAULT_LIMIT, so it is left out.
    rng = random.Random(113)
    branches = set()
    half_integral = set()
    for p, s, n in [(5, 1, 10), (3, 3, 3), (3, 3, 4)]:
        t = build_tower(p, s, n)
        assert t.q ** n <= DEFAULT_LIMIT
        lams = [t.zero] + [tuple(1 if j == u else 0 for j in range(n)) for u in range(n)]
        lams.append(t.random_element(rng))
        for i in range(1, n):
            for lam in lams:
                spec = CurveSpec(t, i, lam)
                rep = count_curve(spec)
                assert rep.closed_form == oracle_curve(spec), (p, s, n, i, lam)
                branches.add((p, rep.branch))
                if rep.half_integral_bound:
                    half_integral.add((p, s, n))
        for r in (2, 3):
            for _ in range(3):
                spec = HypersurfaceSpec(t, random_terms(t, rng, r), t.random_element(rng))
                rep = count_hypersurface(spec)
                assert rep.closed_form == oracle_hypersurface(spec), (p, s, n, spec.terms)
                if rep.half_integral_bound:
                    half_integral.add((p, s, n))
    assert (5, "multiple-even") in branches
    assert (3, 3, 3) in half_integral
