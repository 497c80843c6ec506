"""Closed-form point counts, Weil bounds, and bound-attainment classification.

Counts the affine rational points of

    curve          y^q - y = x (x^(q^i) - x) - lambda          over F_{q^n},
    hypersurface   y^q - y = sum_j a_j x_j (x_j^(q^i_j) - x_j) - lambda,

with everything exact: counts and bounds are arbitrary-precision integers.

The curve is the one-term hypersurface with a = 1.  Both counts, and the
classification, come from the rank and discriminant character of the trace
forms x -> Tr(a_j x (x^(q^i_j) - x)), which term_invariants derives from
d = gcd(i, n) and l = n/d alone.  y^q - y = c has q solutions in F_{q^n}
when Tr(c) = 0 and none otherwise, so a count is q times the number of x in
F_{q^n}^r where the direct sum of the forms takes the value Tr(lambda):
count_qf_solutions for dimension nr, the rank sum R and the discriminant
character (Lidl-Niederreiter, Finite Fields, Thms 6.26-6.27).  Hypersurface
branches are "even"/"odd" after the parity of R.  A curve branch name puts
the selector in front: "coprime" or "multiple" says whether l is coprime to
p or a multiple of it, so the names are coprime-odd, coprime-even,
multiple-odd and multiple-even.  The n = 2i case flows through the coprime
branches (l = 2 and p is odd).
"""

from __future__ import annotations

import math
import operator
from typing import Tuple, Union

from .fields import FieldTower, Record, tau_power


class _Spec(Record):
    """What both specs share.  When a spec is made it derives, once, what
    every count, classification and oracle read starts from, and keeps it
    beside its fields: trace_lambda = Tr(lambda), multiset_key = (p, s, n,
    sorted terms) and that multiset's profile from _PROFILES.  They are not
    fields, so a spec compares, hashes, pickles and copies by its fields
    alone.  Only a lambda outside F_q searches the modulus for its trace."""

    @staticmethod
    def _checked_lambda(tower: FieldTower, lam) -> tuple:
        """lam as a tuple of n F_q codes, else TypeError or ValueError."""
        lam = tuple(lam)
        if type(sum(lam)) is not int:  # one C-level sum clears a tuple of ints
            lam = tuple(map(operator.index, lam))
        if len(lam) != tower.n:
            raise ValueError("lambda has the wrong number of coefficients")
        ordered = sorted(lam)  # one builtin call, where min and max take two
        if ordered[0] < 0 or ordered[-1] >= tower.q:
            bad = next(c for c in lam if not 0 <= c < tower.q)
            raise ValueError(f"lambda coefficient {bad} is not in 0..q-1 = 0..{tower.q - 1}")
        return lam

    def _derive(self):
        t = self.tower
        key = (t.p, t.s, t.n, tuple(sorted(self.terms)))
        profile = _PROFILES.get(key)
        if profile is None:
            profile = _PROFILES[key] = _profile_compute(t, key[3])
        vars(self).update(trace_lambda=t.trace(self.lam), multiset_key=key, profile=profile)
        return self


class CurveSpec(_Spec):
    tower: FieldTower
    i: int
    lam: tuple

    def __new__(cls, tower: FieldTower, i: int, lam: tuple):
        lam, i = cls._checked_lambda(tower, lam), operator.index(i)
        if not 0 < i < tower.n:
            raise ValueError(f"need 0 < i < n, got i={i}, n={tower.n}")
        return tuple.__new__(cls, (tower, i, lam))._derive()

    @property
    def terms(self) -> tuple:
        """The curve as the one-term hypersurface: ((1, i),)."""
        return ((1, self.i),)


class HypersurfaceSpec(_Spec):
    tower: FieldTower
    terms: tuple  # ((a_1, i_1), ..., (a_r, i_r)), a_j in F_q*, 0 < i_j < n
    lam: tuple

    def __new__(cls, tower: FieldTower, terms: tuple, lam: tuple):
        terms, lam = tuple(map(tuple, terms)), cls._checked_lambda(tower, lam)
        if type(sum(map(sum, terms))) is not int:
            terms = tuple(tuple(map(operator.index, term)) for term in terms)
        if len(terms) < 1:
            raise ValueError("need at least one term")
        for a, i in terms:
            if not 0 < a < tower.q:
                raise ValueError(f"coefficient a={a} is not in F_q*")
            if not 0 < i < tower.n:
                raise ValueError(f"need 0 < i_j < n, got i_j={i}, n={tower.n}")
        return tuple.__new__(cls, (tower, terms, lam))._derive()

    @property
    def r(self) -> int:
        return len(self.terms)


class WeilBounds(Record):
    lower: int
    upper: int
    half_integral: bool  # the real bound has a half-integral q-exponent; floor stored


class CountReport(Record):
    closed_form: int
    trace_lambda: int
    bound_lower: int
    bound_upper: int
    classification: str  # "Maximal" | "Minimal" | "Neither"
    branch: str
    half_integral_bound: bool


def eps(alpha: int, q: int) -> int:
    """q - 1 if alpha = 0, else -1 (the complete character sum over F_q*)."""
    return q - 1 if alpha == 0 else -1


def count_qf_solutions(tower: FieldTower, n: int, v: int, delta_char: int, alpha: int) -> int:
    """Number of x in F_q^n with Q(x) = alpha, for a quadratic form of radical
    dimension v whose reduced determinant has quadratic character delta_char.

    n + v even:  S_alpha = q^(n-1) + eps(alpha) D q^((n+v-2)/2),
                 with D = chi((-1)^((n-v)/2)) * delta_char.
    n + v odd:   S_0 = q^(n-1),
                 S_a = q^(n-1) + chi((-1)^((n-v-1)/2) alpha) delta_char
                       * q^((n+v-1)/2)                     (a != 0).
    """
    if not 0 <= v <= n:
        raise ValueError("need 0 <= v <= n")
    if delta_char not in (-1, 1):
        raise ValueError("delta_char must be +1 or -1")
    q = tower.q
    if not 0 <= alpha < q:
        raise ValueError(f"alpha={alpha} is not in 0..q-1 = 0..{q - 1}")
    if v == n:  # zero form
        return q ** n if alpha == 0 else 0
    if (n + v) % 2 == 0:
        D = tower.quadratic_character(tower.base_from_int((-1) ** ((n - v) // 2))) * delta_char
        return q ** (n - 1) + eps(alpha, q) * D * q ** ((n + v - 2) // 2)
    if alpha == 0:
        return q ** (n - 1)
    arg = tower.bmul(tower.base_from_int((-1) ** ((n - v - 1) // 2)), alpha)
    D = tower.quadratic_character(arg) * delta_char
    return q ** (n - 1) + D * q ** ((n + v - 1) // 2)


def term_invariants(t: FieldTower, n: int, a: int, i: int) -> Tuple[int, int, int, int, int]:
    """(d, l, rank, sign, chi_arg) of the trace form x -> Tr(a x (x^(q^i) - x))
    on F_{q^n}, from d = gcd(i, n) and l = n/d.  Only the F_q arithmetic of
    t is used, so any tower over F_q will do.

    The form has rank n - d when l is coprime to p and n - 2d when p | l, and
    its reduced determinant delta has
        chi(delta) = (-1)^(n-d) chi((-2)^(n-d) l^d)        (l coprime to p),
        chi(delta) = (-1)^(n+1) chi((-1)^(n-d) 2^(n-2d))   (p | l).
    sign is the +-1 prefactor, and chi(a^rank delta) = sign chi(chi_arg).
    Only chi(chi_arg) is ever used, so chi_arg is kept up to squares: every
    exponent is reduced mod 2.

    The n = 2i case (l = 2, coprime to odd p) flows through the coprime case;
    its reduced determinant (-2)^i equals the general (-1)^(n-d) l^d.  In the
    p | l case the prefactor is (-1)^(n+1), not (-1)^(n-d): the two agree
    exactly when d is odd, and exhaustive rank_and_char tabulations over p in
    {3,5,7,11,13}, s in {1,2}, n <= 18 single out (-1)^(n+1) as the value
    that matches every even-d case as well.
    """
    d = math.gcd(i, n)
    l = n // d
    if l % t.p:
        rank = n - d
        sign = -1 if rank & 1 else 1
        arg = (-2 if rank & 1 else 1) * (l if d & 1 else 1)
    else:
        rank = n - 2 * d
        sign = 1 if n & 1 else -1
        arg = (-1 if (n - d) & 1 else 1) * (2 if n & 1 else 1)
    arg = t.base_from_int(arg)
    if rank & 1 and a != 1:
        arg = t.bmul(arg, a)
    return d, l, rank, sign, arg


_PROFILES: dict = {}


def _profile_compute(t: FieldTower, terms: tuple) -> tuple:
    """The one pass over the terms: all that the count, the classifiers and
    weil_bounds read and that depends on neither lambda nor the order of the
    terms, as (nr, R, chi_delta, chi_arg, exact, D1, D2, WeilBounds, reports).
    chi_arg is the product of the terms' chi arguments, chi_delta =
    (prod_j sign_j) chi(chi_arg) the discriminant character of the direct
    sum of the term forms, and exact says i_j = d_j for every j in Y.
    reports holds the CountReport of each (Tr(lambda), kind of spec) counted
    so far: a count depends on lambda only through its trace."""
    q, n, p, s = t.q, t.n, t.p, t.s
    R = I = D1 = D2 = 0
    signs = chi_arg = 1
    exact = True
    for a, i in terms:
        d, l, rank, sign, arg = term_invariants(t, n, a, i)
        R += rank
        I += i
        signs *= sign
        chi_arg = t.bmul(chi_arg, arg)
        if l % p:
            D1 += d
        else:
            D2 += d
            exact = exact and i == d
    nr = n * len(terms)
    center = q ** nr
    square = (q - 1) ** 2 * q ** (nr + 2 * I)
    e = s * (nr + 2 * I)  # square = (q - 1)^2 p^e: a root needs no isqrt when e is even
    dev = (q - 1) * p ** (e // 2) if e % 2 == 0 else math.isqrt(square)
    half = (s * nr) % 2 == 1
    if (dev * dev == square) == half:
        raise RuntimeError("half-integral flag disagrees with the Weil deviation")
    chi_delta = signs * t.quadratic_character(chi_arg)
    return (nr, R, chi_delta, chi_arg, exact, D1, D2,
            WeilBounds(center - dev, center + dev, half), {})


def weil_bounds(spec: Union[CurveSpec, HypersurfaceSpec]) -> WeilBounds:
    """q^rn +/- (q-1) q^((nr+2I)/2); when the deviation is irrational (odd
    nr with p^s not a square, so s(nr+2I) odd) the floor is stored and the
    bounds are flagged half_integral (the floor is valid for integer counts)."""
    return spec.profile[7]


def _count(spec: Union[CurveSpec, HypersurfaceSpec]) -> CountReport:
    """count_hypersurface for either kind of spec.  The report of each (term
    multiset, Tr(lambda), kind) is computed once, its label cross-checked
    against the condition pass, kept in the profile, and returned to every
    later spec with those inputs."""
    nr, R, chi_delta, _, _, _, D2, bounds, reports = spec.profile
    trl = spec.trace_lambda
    kind = type(spec)
    report = reports.get((trl, kind))
    if report is not None:
        return report
    t = spec.tower
    count = t.q * count_qf_solutions(t, nr, nr - R, chi_delta, trl)
    branch = "odd" if R % 2 else "even"
    if kind is CurveSpec:
        branch = ("multiple-" if D2 else "coprime-") + branch  # p | l iff D2 = d > 0
    lower, upper, half = bounds
    classification = ("Maximal" if count == upper else
                      "Minimal" if count == lower else "Neither")
    end = _attainment(spec)[-1]
    if classification != _LABELS[end and end[3]]:
        raise RuntimeError("condition bundle disagrees with bounds")
    report = reports[trl, kind] = CountReport(count, trl, lower, upper, classification,
                                              branch, half)
    return report


def count_curve(spec: CurveSpec) -> CountReport:
    """Exact N for the curve y^q - y = x(x^(q^i) - x) - lambda over F_{q^n}.

    This is the one-term hypersurface count with a = 1.  With d = gcd(i, n)
    and l = n/d it comes out as
      l coprime to p, n+d odd:   N = q^n - chi(2 (-1)^((n-d+1)/2) Tr(lam) l^d)
                                           q^((n+d+1)/2)
      l coprime to p, n+d even:  N = q^n + eps(Tr(lam)) chi((-1)^((n-d)/2) l^d)
                                           q^((n+d)/2)
      p | l, n odd:   N = q^n + chi(2 (-1)^((n+1)/2) Tr(lam)) q^((n+2d+1)/2)
      p | l, n even:  N = q^n - eps(Tr(lam)) chi((-1)^(n/2)) q^((n+2d)/2)
    with no (-1)^d factor in the multiple branches (e.g. i = 2, n = 6, p = 3
    attains the upper bound 1215, not the lower).
    """
    return _count(spec)


def count_hypersurface(spec: HypersurfaceSpec) -> CountReport:
    """Exact N for y^q - y = sum_j a_j x_j (x_j^(q^i_j) - x_j) - lambda.

    N = q count_qf_solutions(nr, nr - R, chi(delta), Tr(lam)): the direct sum
    of the term forms has dimension nr, rank R = sum of the rank_j and
    discriminant character chi(delta) = prod_j sign_j chi(chi_arg_j), with
    rank_j, sign_j and chi_arg_j from term_invariants.  That is
      R even: N = q^rn + eps(Tr(lam)) chi((-1)^(R/2) delta) q^(rn - R/2)
      R odd:  N = q^rn                          if Tr(lam) = 0,
              N = q^rn + chi((-1)^((R-1)/2) Tr(lam) delta) q^(rn - (R-1)/2)
                                                otherwise.
    """
    return _count(spec)


_LABELS = {1: "Maximal", -1: "Minimal", None: "Neither"}


def _attainment(spec: Union[CurveSpec, HypersurfaceSpec]) -> tuple:
    """The condition pass of the detail classifiers and the count's
    cross-check: (Tr(lambda) = 0, nr even, D1, D2, i_j = d_j for every j in
    Y, end); end is None, or (sR mod 4, tauFactor, chiSign, sign) when a
    bound is attained.  The sign is a Gauss-sum derivation: tauFactor is
    stated here, and chiSign writes its prefactor (-1)^((n+1)|Y|) out
    instead of taking the term signs or the count's chi(delta), so the
    cross-check compares it with the quadric count.
    """
    t = spec.tower
    n, s = t.n, t.s
    nr, R, _, chi_arg, exact, D1, D2, _, _ = spec.profile
    trace_zero = spec.trace_lambda == 0
    if not trace_zero or D1 or nr % 2 or not exact:
        return trace_zero, nr % 2 == 0, D1, D2, exact, None
    if R != nr - 2 * D2 or R % 2:
        raise RuntimeError("rank sum is not the even nr - 2 D2")
    # D1 = 0, so every term lies in Y
    tau_factor = 1 if (2 * (s + 1) * R + tau_power(t.p, s * R)) % 4 == 0 else -1
    chi_sign = (-1) ** ((n + 1) * len(spec.terms)) * t.quadratic_character(chi_arg)
    return True, True, 0, D2, True, ((s * R) % 4, tau_factor, chi_sign, tau_factor * chi_sign)


def classify_curve_detail(spec: CurveSpec) -> Tuple[str, dict]:
    """Classification with the condition bundle that decided it.

    The curve attains a Weil bound iff Tr(lambda) = 0, n is even, i | n, and
    p | (n/i); the attained end is the hypersurface sign of the one term
    (1, i), which equals -chi((-1)^(n/2)): Maximal for +1 and Minimal for -1.
    """
    trace_zero, n_even, D1, D2, _, end = _attainment(spec)
    i, sign = spec.i, end and end[3]
    return _LABELS[sign], {"traceLambdaZero": trace_zero, "nEven": n_even,
                           "iDividesN": i == D1 + D2, "pDividesNOverI": i == D2,
                           "sign": sign}


def classify_curve(spec: CurveSpec) -> str:
    return _count(spec).classification


def classify_hypersurface_detail(spec: HypersurfaceSpec) -> Tuple[str, dict]:
    """Classification with the condition bundle that decided it.

    Attainment needs Tr(lambda) = 0, D1 = 0, nr even, and i_j = d_j for every
    term: the Weil deviation (q-1) q^((nr+2I)/2) forces the even branch with
    eps = q - 1 and exponent nr - R/2 = (nr+2I)/2, i.e. R = nr - 2I, which
    pins every i_j to d_j and empties X.  The attained end is
        sign = tauFactor * chiSign,
    tauFactor = (-1)^(R(s+1)) tau^(sR) with R = nr - 2 D2 (so -1 exactly when
    p = 3 (mod 4) and sR = 2 (mod 4), else +1), and
        chiSign = (-1)^((n+1)|Y|) chi(prod_j (-1)^(n-d_j) 2^(n-2d_j) a_j^(n-2d_j)),
    Maximal for +1 and Minimal for -1.
    """
    trace_zero, nr_even, D1, D2, exact, end = _attainment(spec)
    conditions = {"traceLambdaZero": trace_zero, "D1Zero": D1 == 0, "nrEven": nr_even,
                  "YExponentsEqualGcd": exact, "D2": D2}
    if end:
        conditions["tauExponentMod4"] = end[0]
    tau_factor, chi_sign, sign = end[1:] if end else (None, None, None)
    conditions.update(tauFactor=tau_factor, chiSign=chi_sign, sign=sign)
    return _LABELS[sign], conditions


def classify_hypersurface(spec: HypersurfaceSpec) -> str:
    return _count(spec).classification
