"""Independent ground truth: exact fiber counts and numeric character sums.

Nothing here consults the closed formulas.  Curve and hypersurface counts come
from exact fiber counts of the trace form or, in the direct variants, from one
literal scan that reads no trace or fiber argument (_direct_count); the
Gauss/character sums are summed in floating point.  A hypersurface needs one
fiber of the r-fold convolution of its per-term histograms, the one at
Tr(lambda): the first r - 1 are convolved over (F_q, +) and the result is
paired with the last at that value.

The trace-form histogram works on the F_p coordinates X of x: each base-p
digit of Tr(a x (x^(q^i) - x)) is Q_c(X) = X G_c X^T mod p for an integer
matrix G_c, built from the trace pairing Tr(a e_j e_l) and the F_p matrix of
the Frobenius.  Consuming coordinate m with digit d changes it by

    Q_c(X + d e_m) = Q_c(X) + d lin_m(X) + d^2 G_c[m, m],

where lin_k(X) = (X (G_c + G_c^T))_k is linear and follows the same kind of
step.  The count therefore runs one coordinate at a time over the multiset of
tuples (Q_c(X), lin_k(X) for the coordinates still to come), merging equal
tuples and adding their counts; after the last coordinate the tuples are the
values and the counts are the histogram.  No element is visited one by one,
and no rank, character or closed form enters.  chunk_size bounds the entries
one step may hold: the top coordinates are fixed one assignment at a time,
as many as that static bound needs, so memory is bounded by the chunk, not by
q^n, and any chunk size gives the same histogram.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from itertools import product
from operator import mul
from typing import Dict, Optional

import numpy as np

from .fields import DEFAULT_LIMIT, EnumerationLimitError, FieldTower, build_tower
from .counting import CurveSpec, HypersurfaceSpec

ValueHistogram = Dict[int, int]

_CHUNK = 1 << 18

# histograms by (p, s, n, i, a), y^q - y counts by (p, s, n); towers are cached singletons
_HIST_CACHE: dict = {}
_IMAGE_CACHE: dict = {}


def _check_limit(requested: int, limit: int) -> None:
    if requested > limit:
        raise EnumerationLimitError(requested, limit)


def _g_powers(t: FieldTower, count: int) -> list:
    """g^0, ..., g^(count-1) for the F_q generator g, whose code is p."""
    powers = [1]
    for _ in range(count - 1):
        powers.append(t.bmul(powers[-1], t.p))
    return powers


def _spread_over_digits(vals, s: int) -> np.ndarray:
    """vals[j][k][w] holds the entry for g^w; returns the ns x ns matrix with
    entry vals[j][k][v + v'] at (j s + v, k s + v'), the F_p basis of F_q^n
    being e_(j s + v) = g^v in coordinate j."""
    arr = np.asarray(vals, dtype=np.int64)
    n = arr.shape[0]
    w = np.add.outer(np.arange(s), np.arange(s))
    return arr[:, :, w].transpose(0, 2, 1, 3).reshape(n * s, n * s)


def _mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % p
        m = m @ m % p
        e >>= 1
    return out


def _frobenius_fp(t: FieldTower, i: int) -> np.ndarray:
    """The F_p matrix of x -> x^(q^i) on the basis e_(u s + v) = t^u g^v:
    row (u, v) holds the coordinates of g^v r^u, r = t^(q^i), because the
    map is a ring homomorphism fixing F_q.  The rows of g^v r come from the
    matrix of multiplication by t raised to q^i."""
    n, s, p = t.n, t.s, t.p
    ns = n * s
    mul_t = np.zeros((ns, ns), dtype=np.int64)
    mul_t[np.arange(ns - s), np.arange(s, ns)] = 1
    # g^v t^(n-1) -> g^v t^n = -sum_m g^v c_m t^m, digit c at column m s + c
    top = [[t.base_digits(t.bmul(g, t.bneg(c))) for c in t.ext_modulus[:n]]
           for g in _g_powers(t, s)]
    mul_t[ns - s:] = np.array(top, dtype=np.int64).reshape(s, ns)
    step = _mat_pow(mul_t, t.q ** i, p)
    rows = [np.eye(s, ns, dtype=np.int64)]
    for _ in range(n - 1):
        rows.append(rows[-1] @ step % p)
    return np.concatenate(rows)


def _digit_matrices(tower: FieldTower, i: int, a: int) -> np.ndarray:
    """G[c][j][k] = c-th base-p digit of Tr(a e_j (e_k^(q^i) - e_k)) for the
    F_p basis e_(u s + v) = t^u g^v of F_{q^n} (g the F_q generator).

    Writing e_k^(q^i) - e_k = sum_l D[k][l] e_l over F_p gives
    G_c = Pi_c D^T mod p, where Pi_c[j][l] is digit c of the trace pairing
    Tr(a e_j e_l) = a g^(v + w) Tr(t^(u + m)) for j = (u, v), l = (m, w)."""
    t = tower
    n, s, p = t.n, t.s, t.p
    scales = [t.bmul(a, g) for g in _g_powers(t, 2 * s - 1)]
    by_degree = np.array([[t.bmul(c, tr) for c in scales] for tr in t.monomial_traces()],
                         dtype=np.int64)
    pairing = _spread_over_digits(by_degree[np.add.outer(np.arange(n), np.arange(n))], s)
    diff = (_frobenius_fp(t, i) - np.eye(n * s, dtype=np.int64)) % p
    return np.stack([(pairing // p ** c % p) @ diff.T % p for c in range(s)])


def _state_exponent(s: int, low: int) -> int:
    """log_p of the static bound on the entries one step of the count over
    `low` coordinates holds: after m steps there are at most
    min(p^m, p^(s (low - m + 1))) distinct tuples, and a step multiplies by p."""
    if low == 0:
        return 0
    return 1 + max(min(m, s * (low - m + 1)) for m in range(low))


def _fiber_counts(G: np.ndarray, p: int, chunk_size: int) -> np.ndarray:
    """counts[v] = #{X in F_p^N : sum_c Q_c(X) p^c = v}, Q_c(X) = X G[c] X^T
    mod p, for the s digit matrices G of shape (s, N, N).

    The low coordinates are consumed one at a time; the state is a multiset
    of digit tuples (val_c, lin_(c,k)) for the consumed part X, with
    val_c = Q_c(X) and lin_(c,k) = (X S_c)_k for the unconsumed low k,
    S_c = G_c + G_c^T.  Coordinate m with digit d maps a tuple to
    val_c + d lin_(c,m) + d^2 G_c[m, m] and lin_(c,k) + d S_c[m, k], k > m,
    and drops lin_(c,m); equal tuples merge and their counts add.  Each
    assignment y of the top coordinates seeds the count with the single
    tuple (Q_c(y), (y S_c)_k); their number is chosen so that no step holds
    more than chunk_size entries (the static bound of _state_exponent)."""
    s, N = G.shape[0], G.shape[1]
    S = (G + G.transpose(0, 2, 1)) % p
    low = N
    while low and p ** _state_exponent(s, low) > chunk_size:
        low -= 1
    dtype = np.min_scalar_type(p * p)  # every unreduced sum below is < p^2
    digits = np.arange(p, dtype=np.int64)
    # squares[c, d] = d^2 G_c[m, m]; shifts[(k - m - 1) s + c, d] = d S_c[m, k]
    steps = [((digits ** 2 * G[:, m, m, None] % p).astype(dtype),
              (S[:, m, m + 1:low].T.reshape(-1, 1) * digits % p).astype(dtype))
             for m in range(low)]
    d = digits.astype(dtype)[:, None]
    # tuples are merged through int64 words of up to `width` base-p digits
    width = 1
    while p ** (width + 1) < 1 << 63:
        width += 1
    weights = p ** np.arange(width, dtype=np.int64)
    G_top, S_cross = G[:, low:, low:], S[:, low:, :low]
    hist = np.zeros(p ** s, dtype=np.int64)
    for top in product(range(p), repeat=N - low):
        y = np.array(top, dtype=np.int64)
        val = np.einsum("j,cjk,k->c", y, G_top, y) % p
        lin = (y @ S_cross % p).T.reshape(-1)
        # rows: val_c, then lin_(c,k) at s + (k - m) s + c; one column per tuple
        state = np.concatenate([val, lin]).astype(dtype)[:, None]
        counts = np.ones(1, dtype=np.int64)
        for squares, shifts in steps:
            tuples = state.shape[1]
            # column d * tuples + r is tuple r after digit d
            state = np.concatenate([
                (state[:s, None] + d * state[s:2 * s, None] + squares[:, :, None]) % p,
                (state[2 * s:, None] + shifts[:, :, None]) % p,
            ]).reshape(len(state) - s, p * tuples)
            blocks = (state[k:k + width] for k in range(0, len(state), width))
            words = [weights[:len(block)] @ block for block in blocks]
            order = np.lexsort(words)
            first = np.zeros(p * tuples, dtype=bool)
            first[0] = True
            for word in words:
                word = word[order]
                first[1:] |= word[1:] != word[:-1]
            starts = np.flatnonzero(first)
            counts = np.add.reduceat(counts[order % tuples], starts)
            state = state[:, order[starts]]
        # the values of distinct tuples are distinct
        hist[weights[:s] @ state] += counts
    if int(hist.sum()) != p ** N:
        raise RuntimeError(f"fiber counts sum to {int(hist.sum())}, not p^{N}")
    return hist


def _histogram_compute(tower: FieldTower, i: int, a: int, chunk_size: int) -> ValueHistogram:
    hist = _fiber_counts(_digit_matrices(tower, i, a), tower.p, chunk_size)
    return {c: int(hist[c]) for c in range(tower.q)}


def qf_histogram(tower: FieldTower, i: int, a: int,
                 limit: int = DEFAULT_LIMIT,
                 chunk_size: Optional[int] = None) -> ValueHistogram:
    """Fiber sizes #{x in F_{q^n} : Tr(a x (x^(q^i) - x)) = c} for every c in F_q.

    An exact count over the F_p coordinates of x, not an element-by-element
    scan; refuses when q^n > limit.  chunk_size (at least 1) bounds the tuples
    one step of the count holds, and so its memory; passing it explicitly
    bypasses the cache (used to test that the split does not matter).
    """
    t = tower
    if not 0 < i < t.n:
        raise ValueError(f"need 0 < i < n, got i={i}, n={t.n}")
    if not 0 < a < t.q:
        raise ValueError(f"a={a} is not in F_q*")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size={chunk_size} is not positive")
    _check_limit(t.ext_card, limit)
    if chunk_size is not None:
        return _histogram_compute(t, i, a, chunk_size)
    key = (t.p, t.s, t.n, i, a)
    if key not in _HIST_CACHE:
        _HIST_CACHE[key] = _histogram_compute(t, i, a, _CHUNK)
    return dict(_HIST_CACHE[key])


def oracle_curve(spec: CurveSpec, limit: int = DEFAULT_LIMIT) -> int:
    """q * #{x : Tr(x(x^(q^i) - x)) = Tr(lambda)}, the y-fibers having size q."""
    t = spec.tower
    hist = qf_histogram(t, spec.i, 1, limit=limit)
    return t.q * hist[t.trace(spec.lam)]


def oracle_direct(spec: CurveSpec, limit: int = DEFAULT_LIMIT) -> int:
    """Literal count of the (x, y) pairs by the shared scan with terms ((1, i),),
    against the per-tower count of y^q - y and with no trace or fiber argument,
    which it thus validates.  Refuses unless q^(2n) <= limit: tiny towers only."""
    t = spec.tower
    _check_limit(t.q ** (2 * t.n), limit)
    return _direct_count(t, spec.terms, spec.lam)


def _direct_count(t: FieldTower, terms, lam) -> int:
    """#{(x_1, ..., x_r, y) : y^q - y = sum_j a_j x_j (x_j^(q^i_j) - x_j) - lambda}."""
    key = (t.p, t.s, t.n)
    if key not in _IMAGE_CACHE:
        _IMAGE_CACHE[key] = Counter(t.xsub(t.xpow(y, t.q), y) for y in t.elements())
    images = _IMAGE_CACHE[key]
    values = [[t.xscale(a, t.xmul(x, t.xsub(t.frobenius(x, i), x))) for x in t.elements()]
              for a, i in terms]
    neg_lam = t.xneg(lam)
    count = 0
    for tup in product(*values):
        rhs = neg_lam
        for v in tup:
            rhs = t.xadd(rhs, v)
        count += images.get(rhs, 0)
    return count


def _fiber_pair(t: FieldTower, f: list, g: list, c: int) -> int:
    """sum_b f[b] g[c - b] over F_q: the fiber at c of the convolution of f and g."""
    return sum(map(mul, f, map(g.__getitem__, t.bsub_row(c))))


def oracle_hypersurface(spec: HypersurfaceSpec, limit: int = DEFAULT_LIMIT) -> int:
    """q * #{(x_1, ..., x_r) : sum_j Tr(a_j x_j (x_j^(q^i_j) - x_j)) = Tr(lambda)}:
    convolves the first r - 1 per-term histograms over (F_q, +) and pairs the
    result with the last histogram at Tr(lambda), so only that fiber of the
    r-fold convolution is formed: r histograms of q^n elements each and
    (r - 2) q^2 + q products, where the literal scan visits q^(rn) tuples."""
    t = spec.tower
    hists = [qf_histogram(t, i, a, limit=limit) for a, i in spec.terms]
    conv, *rest = [list(map(h.__getitem__, range(t.q))) for h in hists]
    for h in rest[:-1]:
        conv = [_fiber_pair(t, conv, h, c) for c in range(t.q)]
    target = t.trace(spec.lam)
    return t.q * (_fiber_pair(t, conv, rest[-1], target) if rest else conv[target])


def oracle_hypersurface_direct(spec: HypersurfaceSpec, limit: int = DEFAULT_LIMIT) -> int:
    """Literal count over all q^(rn) tuples by the shared scan, with no per-term
    split, trace or histogram: each term once per x, every tuple's sum looked up
    in the per-tower count of y^q - y.  Refuses unless q^(rn) (>= q^n) <= limit."""
    t = spec.tower
    _check_limit(t.q ** (t.n * spec.r), limit)
    return _direct_count(t, spec.terms, spec.lam)


def gauss_sum_numeric(p: int, s: int) -> complex:
    """Sum of chi(x) e^(2 pi i TrAbs(x)/p) over x in F_q*, q = p^s <= 10^6."""
    _check_limit(p ** s, 1_000_000)
    t = build_tower(p, s, 1)
    total = 0j
    for x in range(1, t.q):
        tr = t.base_trace_to_prime(x)
        total += t.quadratic_character(x) * cmath.exp(2j * cmath.pi * tr / p)
    return total


def gauss_sum_reference(p: int, s: int) -> complex:
    """-(-tau)^s sqrt(q) with tau = 1 for p = 1 (mod 4) and i for p = 3 (mod 4)."""
    tau = 1 if p % 4 == 1 else 1j
    return -((-tau) ** s) * math.sqrt(p ** s)


def char_sum_numeric(tower: FieldTower, H) -> complex:
    """Sum of e^(2 pi i TrAbs(X H X^T)/p) over all X in F_q^n; q^n <= 10^4.

    TrAbs(X H X^T) is a quadratic form over F_p in the ns coordinates of X,
    with matrix entries TrAbs(g^(v + v') H_jk); its p fibers are counted
    exactly, so the only rounding is in the sum of p phases."""
    t = tower
    n, q, p = t.n, t.q, t.p
    if len(H) != n or any(len(row) != n for row in H):
        raise ValueError("H must be n x n")
    _check_limit(q ** n, 10_000)
    powers = _g_powers(t, 2 * t.s - 1)
    vals = [[[t.base_trace_to_prime(t.bmul(g, h)) for g in powers] for h in row]
            for row in H]
    counts = _fiber_counts(_spread_over_digits(vals, t.s)[None], p, _CHUNK)
    return sum(int(counts[c]) * cmath.exp(2j * cmath.pi * c / p) for c in range(p))
