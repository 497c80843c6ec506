"""Closed-form point counts, Weil bounds, and bound-attainment classification.

Counts the affine rational points of

    curve          y^q - y = x (x^(q^i) - x) - lambda          over F_{q^n},
    hypersurface   y^q - y = sum_j a_j x_j (x_j^(q^i_j) - x_j) - lambda,

with everything exact: counts and bounds are arbitrary-precision integers,
and the fourth-root-of-unity bookkeeping must land in {1, -1} (a non-real
unit raises, it is never truncated).

Curve branch names record the two selectors: "coprime"/"multiple" says
whether l = n/gcd(i, n) is coprime to p or a multiple of it, and "odd"/"even"
is the parity of n + d (coprime) or n (multiple).  The n = 2i case flows
through the coprime branches (l = 2 and p is odd).  Hypersurface branches
are "even"/"odd" after the parity of nr - D1.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

from .fields import FieldTower, Record, tau_power


class CurveSpec(Record):
    __slots__ = ("tower", "i", "lam")

    def __init__(self, tower: FieldTower, i: int, lam: tuple):
        if not 0 < i < tower.n:
            raise ValueError(f"need 0 < i < n, got i={i}, n={tower.n}")
        if len(lam) != tower.n:
            raise ValueError("lambda has the wrong number of coefficients")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "lam", lam)


class HypersurfaceSpec(Record):
    __slots__ = ("tower", "terms", "lam")

    def __init__(self, tower: FieldTower, terms: tuple, lam: tuple):
        # terms = ((a_1, i_1), ..., (a_r, i_r)), a_j in F_q*, 0 < i_j < n
        if len(terms) < 1:
            raise ValueError("need at least one term")
        for a, i in terms:
            if a == 0 or not 0 < a < tower.q:
                raise ValueError(f"coefficient a={a} is not in F_q*")
            if not 0 < i < tower.n:
                raise ValueError(f"need 0 < i_j < n, got i_j={i}, n={tower.n}")
        if len(lam) != tower.n:
            raise ValueError("lambda has the wrong number of coefficients")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "lam", lam)

    @property
    def r(self) -> int:
        return len(self.terms)


class WeilBounds(Record):
    __slots__ = ("lower", "upper", "half_integral")

    def __init__(self, lower: int, upper: int, half_integral: bool):
        # half_integral: the real bound has a half-integral q-exponent; floor stored
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "half_integral", half_integral)


class CountReport(Record):
    __slots__ = ("closed_form", "trace_lambda", "bound_lower", "bound_upper",
                 "classification", "branch", "half_integral_bound", "oracle_count")

    def __init__(self, closed_form: int, trace_lambda: int, bound_lower: int,
                 bound_upper: int, classification: str, branch: str,
                 half_integral_bound: bool, oracle_count: Optional[int] = None):
        # classification is "Maximal" | "Minimal" | "Neither"
        object.__setattr__(self, "closed_form", closed_form)
        object.__setattr__(self, "trace_lambda", trace_lambda)
        object.__setattr__(self, "bound_lower", bound_lower)
        object.__setattr__(self, "bound_upper", bound_upper)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "half_integral_bound", half_integral_bound)
        object.__setattr__(self, "oracle_count", oracle_count)


class HypersurfaceInvariants(Record):
    """X, Y: indices j with gcd(l_j, p) = 1 and with p | l_j.  L1, A1, A2
    are F_q elements: prod over X of l_j^(d_j), prod over X of a_j^(n - d_j)
    and prod over Y of a_j^n; A = A1 A2."""

    __slots__ = ("X", "Y", "D1", "D2", "L1", "A1", "A2", "A", "I")

    def __init__(self, X: tuple, Y: tuple, D1: int, D2: int, L1: int,
                 A1: int, A2: int, A: int, I: int):
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "D1", D1)
        object.__setattr__(self, "D2", D2)
        object.__setattr__(self, "L1", L1)
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "A2", A2)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "I", I)


def eps(alpha: int, q: int) -> int:
    """q - 1 if alpha = 0, else -1 (the complete character sum over F_q*)."""
    return q - 1 if alpha == 0 else -1


def hypersurface_invariants(spec: HypersurfaceSpec) -> HypersurfaceInvariants:
    t = spec.tower
    n, p = t.n, t.p
    X, Y = [], []
    D1 = D2 = 0
    L1 = A1 = A2 = 1
    I = 0
    for j, (a, i) in enumerate(spec.terms):
        d = math.gcd(i, n)
        l = n // d
        I += i
        if l % p != 0:
            X.append(j)
            D1 += d
            L1 = t.bmul(L1, t.bpow(t.base_from_int(l), d))
            A1 = t.bmul(A1, t.bpow(a, n - d))
        else:
            Y.append(j)
            D2 += d
            A2 = t.bmul(A2, t.bpow(a, n))
    return HypersurfaceInvariants(X=tuple(X), Y=tuple(Y), D1=D1, D2=D2,
                                  L1=L1, A1=A1, A2=A2, A=t.bmul(A1, A2), I=I)


def weil_bounds(spec: Union[CurveSpec, HypersurfaceSpec]) -> WeilBounds:
    """q^rn +/- (q-1) q^((nr+2I)/2); when the deviation is irrational (odd
    nr with p^s not a square, so s(nr+2I) odd) the floor is stored and the
    bounds are flagged half_integral (the floor is valid for integer counts)."""
    t = spec.tower
    if isinstance(spec, CurveSpec):
        r, I = 1, spec.i
    else:
        r, I = spec.r, sum(i for _, i in spec.terms)
    q, n = t.q, t.n
    exponent = n * r + 2 * I
    center = q ** (n * r)
    dev = math.isqrt((q - 1) ** 2 * q ** exponent)
    half = (t.s * exponent) % 2 == 1
    if (dev * dev == (q - 1) ** 2 * q ** exponent) == half:
        raise RuntimeError("half-integral flag disagrees with the Weil deviation")
    return WeilBounds(lower=center - dev, upper=center + dev, half_integral=half)


def _classify_by_bounds(count: int, bounds: WeilBounds) -> str:
    if count == bounds.upper:
        return "Maximal"
    if count == bounds.lower:
        return "Minimal"
    return "Neither"


def count_curve(spec: CurveSpec) -> CountReport:
    """Exact N for the curve y^q - y = x(x^(q^i) - x) - lambda over F_{q^n}.

    Branches on d = gcd(i, n), l = n/d:
      l coprime to p, n+d odd:   N = q^n - chi(2 (-1)^((n-d+1)/2) Tr(lam) l^d)
                                           q^((n+d+1)/2)
      l coprime to p, n+d even:  N = q^n + eps(Tr(lam)) chi((-1)^((n-d)/2) l^d)
                                           q^((n+d)/2)
      p | l, n odd:   N = q^n + chi(2 (-1)^((n+1)/2) Tr(lam)) q^((n+2d+1)/2)
      p | l, n even:  N = q^n - eps(Tr(lam)) chi((-1)^(n/2)) q^((n+2d)/2)
    The multiple-branch signs carry no (-1)^d factor: such a factor is vacuous
    for n odd (d | n forces d odd) and wrong for n even, where exhaustive
    enumeration fixes the sign at -1 for every d (e.g. i = 2, n = 6, p = 3
    attains the upper bound 1215, not the lower).
    """
    t = spec.tower
    q, n, p, i = t.q, t.n, t.p, spec.i
    d = math.gcd(i, n)
    l = n // d
    trl = t.trace(spec.lam)
    two = t.base_from_int(2)
    if l % p != 0:
        ld = t.bpow(t.base_from_int(l), d)
        if (n + d) % 2 == 1:
            branch = "coprime-odd"
            arg = t.bmul(t.bmul(two, t.base_from_int((-1) ** ((n - d + 1) // 2))),
                         t.bmul(trl, ld))
            count = q ** n - t.quadratic_character(arg) * q ** ((n + d + 1) // 2)
        else:
            branch = "coprime-even"
            arg = t.bmul(t.base_from_int((-1) ** ((n - d) // 2)), ld)
            count = q ** n + eps(trl, q) * t.quadratic_character(arg) * q ** ((n + d) // 2)
    else:
        if n % 2 == 1:
            branch = "multiple-odd"
            arg = t.bmul(t.bmul(two, t.base_from_int((-1) ** ((n + 1) // 2))), trl)
            count = q ** n + t.quadratic_character(arg) * q ** ((n + 2 * d + 1) // 2)
        else:
            branch = "multiple-even"
            arg = t.base_from_int((-1) ** (n // 2))
            count = q ** n - eps(trl, q) * t.quadratic_character(arg) * q ** ((n + 2 * d) // 2)
    bounds = weil_bounds(spec)
    classification = _classify_by_bounds(count, bounds)
    if classification != classify_curve(spec):
        raise RuntimeError("condition bundle disagrees with bounds")
    return CountReport(closed_form=count, trace_lambda=trl,
                       bound_lower=bounds.lower, bound_upper=bounds.upper,
                       classification=classification, branch=branch,
                       half_integral_bound=bounds.half_integral)


def _term_units(t: FieldTower, terms: Sequence[Tuple[int, int]]) -> Tuple[int, int, int]:
    """Accumulate (sum of ranks, i-exponent mod 4, chi argument in F_q*) over
    the per-term character sums sum_x psi(Tr(c a_j x (x^(q^i_j) - x))).

    Each term is a quadratic form of rank l_j = n - d_j (l coprime to p) or
    n - 2 d_j (p | l) and contributes
        (-1)^(l_j (s+1)) tau^(s l_j) chi((c a_j)^l_j delta_j) q^(n - l_j / 2),
    where chi(delta_j) = (-1)^(n-d_j) chi((-2)^(n-d_j) l^(d_j)) in the coprime
    case and (-1)^(n+1) chi((-1)^(n-d_j) 2^(n-2d_j)) in the multiple case.
    Fourth roots of unity are tracked as powers of i; sign prefactors add 2.
    The chi(c)^(l_j) factors are left to the caller via the rank-sum parity.
    """
    n, p, s = t.n, t.p, t.s
    sum_rank = 0
    iexp = 0
    chi_arg = t.base_from_int(1)
    for a, i in terms:
        d = math.gcd(i, n)
        l = n // d
        if l % p != 0:
            rank = n - d
            iexp += 2 * (n - d)
            arg = t.bmul(t.bpow(t.base_from_int(-2), n - d),
                         t.bpow(t.base_from_int(l), d))
        else:
            rank = n - 2 * d
            iexp += 2 * (n + 1)
            arg = t.bmul(t.base_from_int((-1) ** (n - d)),
                         t.bpow(t.base_from_int(2), n - 2 * d))
        sum_rank += rank
        iexp += 2 * rank * (s + 1) + tau_power(p, rank * s)
        chi_arg = t.bmul(chi_arg, t.bmul(arg, t.bpow(a, rank)))
    return sum_rank, iexp % 4, chi_arg


def count_hypersurface(spec: HypersurfaceSpec) -> CountReport:
    """Exact N for y^q - y = sum_j a_j x_j (x_j^(q^i_j) - x_j) - lambda.

    Assembled term by term from the per-form character sums (_term_units)
    rather than from a pre-bundled sign formula.  With R = sum of the term
    ranks and U the accumulated unit:
      R even: N = q^rn + eps(Tr(lam)) U q^(rn - R/2)
      R odd:  N = q^rn                            if Tr(lam) = 0,
              N = q^rn + U' q^(rn - (R-1)/2)      otherwise,
    where U' folds in the Gauss sum (-1)^(s+1) tau^s sqrt(q) and chi(-Tr(lam)).
    The unit is tracked as a power of i and must come out real.
    """
    t = spec.tower
    q, n, p, s, r = t.q, t.n, t.p, t.s, spec.r
    trl = t.trace(spec.lam)
    nr = n * r
    center = q ** nr
    sum_rank, iexp, chi_arg = _term_units(t, spec.terms)
    if sum_rank % 2 == 0:
        branch = "even"
        if t.quadratic_character(chi_arg) == -1:
            iexp = (iexp + 2) % 4
        if iexp % 2:
            raise ArithmeticError("non-real unit in even branch; bookkeeping bug")
        count = center + eps(trl, q) * (1 if iexp == 0 else -1) * q ** (nr - sum_rank // 2)
    else:
        branch = "odd"
        if trl == 0:
            count = center
        else:
            iexp = (iexp + 2 * (s + 1) + tau_power(p, s)) % 4
            chi_arg = t.bmul(chi_arg, t.bsub(0, trl))
            if t.quadratic_character(chi_arg) == -1:
                iexp = (iexp + 2) % 4
            if iexp % 2:
                raise ArithmeticError("non-real unit in odd branch; bookkeeping bug")
            count = center + (1 if iexp == 0 else -1) * q ** (nr - (sum_rank - 1) // 2)
    bounds = weil_bounds(spec)
    classification = _classify_by_bounds(count, bounds)
    if classification != classify_hypersurface(spec):
        raise RuntimeError("condition bundle disagrees with bounds")
    return CountReport(closed_form=count, trace_lambda=trl,
                       bound_lower=bounds.lower, bound_upper=bounds.upper,
                       classification=classification, branch=branch,
                       half_integral_bound=bounds.half_integral)


def classify_curve_detail(spec: CurveSpec) -> Tuple[str, dict]:
    """Classification with the condition bundle that decided it.

    The curve attains a Weil bound iff Tr(lambda) = 0, n is even, i | n, and
    p | (n/i); the attained end is given by sign = -chi((-1)^(n/2)),
    Maximal for +1 and Minimal for -1.  The sign does not depend on the
    parity of i (the multiple-even count always deviates by
    -eps chi((-1)^(n/2)) q^((n+2d)/2)).
    """
    t = spec.tower
    n, p, i = t.n, t.p, spec.i
    trl = t.trace(spec.lam)
    conditions = {
        "traceLambdaZero": trl == 0,
        "nEven": n % 2 == 0,
        "iDividesN": n % i == 0,
        "pDividesNOverI": n % i == 0 and (n // i) % p == 0,
    }
    sign = None
    if all(conditions.values()):
        sign = -t.quadratic_character(t.base_from_int((-1) ** (n // 2)))
    conditions["sign"] = sign
    if sign == 1:
        return "Maximal", conditions
    if sign == -1:
        return "Minimal", conditions
    return "Neither", conditions


def classify_curve(spec: CurveSpec) -> str:
    return classify_curve_detail(spec)[0]


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
    t = spec.tower
    n, p, s, r = t.n, t.p, t.s, spec.r
    inv = hypersurface_invariants(spec)
    trl = t.trace(spec.lam)
    nr = n * r
    conditions = {
        "traceLambdaZero": trl == 0,
        "D1Zero": inv.D1 == 0,
        "nrEven": nr % 2 == 0,
        "YExponentsEqualGcd": all(spec.terms[j][1] == math.gcd(spec.terms[j][1], n)
                                  for j in inv.Y),
        "D2": inv.D2,
    }
    sign = None
    tau_factor = None
    chi_sign = None
    prefix = (conditions["traceLambdaZero"] and conditions["D1Zero"]
              and conditions["nrEven"] and conditions["YExponentsEqualGcd"])
    if prefix:
        sum_rank, iexp, chi_arg = _term_units(t, spec.terms)
        if sum_rank != nr - 2 * inv.D2 or sum_rank % 2:
            raise RuntimeError("rank sum is not the even nr - 2 D2")
        mod4 = (s * sum_rank) % 4
        tau_factor = 1 if (2 * (s + 1) * sum_rank + tau_power(p, s * sum_rank)) % 4 == 0 else -1
        chi_sign = ((-1) ** ((n + 1) * len(inv.Y))) * t.quadratic_character(chi_arg)
        sign = tau_factor * chi_sign
        conditions["tauExponentMod4"] = mod4
        folded = (iexp + (0 if t.quadratic_character(chi_arg) == 1 else 2)) % 4
        if folded % 2 or sign != (1 if folded == 0 else -1):
            raise RuntimeError("attained end disagrees with the unit of the count")
    conditions["tauFactor"] = tau_factor
    conditions["chiSign"] = chi_sign
    conditions["sign"] = sign
    if sign == 1:
        return "Maximal", conditions
    if sign == -1:
        return "Minimal", conditions
    return "Neither", conditions


def classify_hypersurface(spec: HypersurfaceSpec) -> str:
    return classify_hypersurface_detail(spec)[0]
