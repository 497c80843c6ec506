"""Independent ground truth: exact fiber counts and numeric character sums.

Nothing here consults the closed formulas.  Curve and hypersurface counts come
from exact fiber counts of the trace form or, in the direct variants, from one
literal scan that reads no trace or fiber argument (_direct_count): it visits
every tuple, forms each sum of the first r - 1 terms once and adds each value
of the last term to it.  The Gauss/character sums are summed in floating
point.  A hypersurface needs one fiber of the r-fold convolution of its
per-term histograms, the one at Tr(lambda): the first r - 1 are convolved
over (F_q, +) and the result is paired with the last at that value.  Only
that value depends on lambda, so the histograms are cached per (tower, i, a),
and the convolution with the fibers read from it per (tower, term multiset).

The trace-form histogram works on the F_p coordinates X of x: each base-p
digit of Tr(a x (x^(q^i) - x)) is a quadratic form X G_c X^T mod p
(_digit_matrices), whose joint fibers _fiber_counts counts one coordinate at
a time.  No element is visited one by one, no rank, character or closed form
enters, and the memory held is bounded by the chunk size and N = ns, whatever
q^n.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from itertools import product
from operator import mul
from typing import Dict

import numpy as np

from .fields import (DEFAULT_LIMIT, EnumerationLimitError, FieldTower, build_tower,
                     check_power_limit)
from .counting import CurveSpec, HypersurfaceSpec

ValueHistogram = Dict[int, int]

_CHUNK = 1 << 18

# histograms by (p, s, n, i, a), y^q - y counts by (p, s, n), convolution
# fibers by the spec's multiset_key (p, s, n, sorted terms) as (fibers read,
# conv, last) from _fiber_entry; towers are cached singletons
_HIST_CACHE: dict = {}
_IMAGE_CACHE: dict = {}
_FIBER_CACHE: dict = {}


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
    """The F_p matrix of x -> x^(q^i) on the basis e_(u s + v) = t^u g^v: the
    i-th power of that of x -> x^q, whose row (u, v) holds the digits of
    g^v (t^u)^q (the map fixes g in F_q).  (t^u)^q is row u of
    FieldTower.frobenius_rows(1), and digit x of g^v c is the sum over w of
    c_w times digit x of g^(v + w)."""
    n, s, p = t.n, t.s, t.p
    place = p ** np.arange(s)
    images = np.array(t.frobenius_rows(1), dtype=np.int64)[:, None, :, None] // place % p
    g_powers = np.array([t.bpow(p, k) for k in range(2 * s - 1)])[:, None] // place % p
    # [u, v, m, x] = sum over w of digit w of (t^u)^q_m times digit x of g^(v + w)
    images = images @ g_powers[np.add.outer(np.arange(s), np.arange(s))] % p
    return _mat_pow(images.reshape(n * s, n * s), i, p)


def _digit_matrices(tower: FieldTower, i: int, a: int) -> np.ndarray:
    """G[c][j][k] = c-th base-p digit of Tr(a e_j (e_k^(q^i) - e_k)) for the
    F_p basis e_(u s + v) = t^u g^v of F_{q^n} (g the F_q generator).

    Writing e_k^(q^i) - e_k = sum_l D[k][l] e_l over F_p, with D + I the
    matrix of _frobenius_fp, gives G_c = Pi_c D^T mod p, where Pi_c[j][l] is
    digit c of the trace pairing Tr(a e_j e_l) = a g^(v + w) Tr(t^(u + m))
    for j = (u, v), l = (m, w)."""
    t = tower
    n, s, p = t.n, t.s, t.p
    if s == 1:
        by_degree = (np.array(t.monomial_traces(), dtype=np.int64) * a % p)[:, None]
    else:
        scales = [t.bmul(a, t.bpow(p, k)) for k in range(2 * s - 1)]
        by_degree = np.array([[t.bmul(c, tr) for c in scales] for tr in t.monomial_traces()],
                             dtype=np.int64)
    pairing = _spread_over_digits(by_degree[np.add.outer(np.arange(n), np.arange(n))], s)
    diff = (_frobenius_fp(t, i) - np.eye(n * s, dtype=np.int64)) % p
    return (pairing // p ** np.arange(s)[:, None, None] % p) @ diff.T % p


def _fiber_counts(G: np.ndarray, p: int, chunk_size: int) -> np.ndarray:
    """counts[v] = #{X in F_p^N : sum_c Q_c(X) p^c = v}, Q_c(X) = X G[c] X^T
    mod p, for the s digit matrices G of shape (s, N, N).

    The coordinates are consumed one at a time from the one all-zero tuple;
    the state is a multiset of digit tuples (val_c, lin_(c,k)) for the
    consumed part X, with val_c = Q_c(X) and lin_(c,k) = (X S_c)_k for the
    unconsumed k, S_c = G_c + G_c^T.  Coordinate m with digit d maps a tuple
    to val_c + d lin_(c,m) + d^2 G_c[m, m] and lin_(c,k) + d S_c[m, k],
    k > m, and drops lin_(c,m); equal tuples merge and their counts add.  A
    lin sum of two residues is below 2p, so it is reduced as the unsigned
    minimum of x and x - p (which wraps round for x < p); the val sums take
    % p.  Equal tuples need only end up adjacent, so a tuple that packs into
    one int64 word of base-p digits is merged through an unstable argsort
    of that word, and a longer one through a lexsort of its words.  A state
    whose next step would hold more than chunk_size entries is split into
    two column halves, counted one after the other, so no step holds more
    than max(chunk_size, p).  The halves not yet counted wait on a stack:
    all pieces of one level come from one step, so at most N max(chunk_size,
    p) tuples of at most (N + 1) s digits wait at once."""
    s, N = G.shape[0], G.shape[1]
    S = (G + G.transpose(0, 2, 1)) % p
    dtype = np.min_scalar_type(p * p)  # every unreduced sum below is < p^2
    digits = np.arange(p, dtype=np.int64)
    # squares[m, c, d] = d^2 G_c[m, m]; shifts[m, k, c, d] = d S_c[m, k]
    squares = (np.diagonal(G, axis1=1, axis2=2).T[:, :, None] * digits ** 2 % p).astype(dtype)
    shifts = (S.transpose(1, 2, 0)[:, :, :, None] * digits % p).astype(dtype)
    d = digits.astype(dtype)[:, None]
    # tuples are merged through int64 words of up to `width` base-p digits
    width = 1
    while p ** (width + 1) < 1 << 63:
        width += 1
    weights = p ** np.arange(width, dtype=np.int64)
    hist = np.zeros(p ** s, dtype=np.int64)
    # rows: val_c, then lin_(c,k) at s + (k - m) s + c; one column per tuple
    stack = [(0, np.zeros(((N + 1) * s, 1), dtype=dtype), np.ones(1, dtype=np.int64))]
    while stack:
        m, state, counts = stack.pop()
        tuples = state.shape[1]
        if m == N:
            # the values of distinct tuples are distinct
            hist[weights[:s] @ state] += counts
        elif p * tuples > chunk_size and tuples > 1:
            half = tuples // 2
            stack += [(m, state[:, half:], counts[half:]), (m, state[:, :half], counts[:half])]
        else:
            # column d * tuples + r is tuple r after digit d
            rows = len(state) - s
            out = np.empty((rows, p, tuples), dtype=dtype)
            val, lin = out[:s], out[s:]
            np.add(state[2 * s:, None], shifts[m, m + 1:].reshape(-1, p, 1), out=lin)
            np.minimum(lin, lin - p, out=lin)
            np.multiply(d, state[s:2 * s, None], out=val)
            val += state[:s, None]
            val += squares[m, :, :, None]
            val %= p
            state = out.reshape(rows, p * tuples)
            blocks = (state[k:k + width] for k in range(0, rows, width))
            words = [weights[:len(block)] @ block for block in blocks]
            order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
            # a tuple starts a run where any of its words differs from the last
            word, *rest = (word[order] for word in words)
            first = np.empty(p * tuples, dtype=bool)
            first[0] = True
            np.not_equal(word[1:], word[:-1], out=first[1:])
            for word in rest:
                first[1:] |= word[1:] != word[:-1]
            starts = np.flatnonzero(first)
            stack.append((m + 1, state.take(order[starts], axis=1),
                          np.add.reduceat(np.concatenate([counts] * p)[order], starts)))
    if int(hist.sum()) != p ** N:
        raise RuntimeError(f"fiber counts sum to {int(hist.sum())}, not p^{N}")
    return hist


def _histogram_compute(tower: FieldTower, i: int, a: int, chunk_size: int) -> ValueHistogram:
    hist = _fiber_counts(_digit_matrices(tower, i, a), tower.p, chunk_size)
    return {c: int(hist[c]) for c in range(tower.q)}


def qf_histogram(tower: FieldTower, i: int, a: int,
                 limit: int = DEFAULT_LIMIT) -> ValueHistogram:
    """Fiber sizes #{x in F_{q^n} : Tr(a x (x^(q^i) - x)) = c} for every c in F_q.

    An exact count over the F_p coordinates of x, not an element-by-element
    scan; refuses when q^n > limit.  Cached by (p, s, n, i, a); the caller
    gets a copy.
    """
    t = tower
    if not 0 < i < t.n:
        raise ValueError(f"need 0 < i < n, got i={i}, n={t.n}")
    if not 0 < a < t.q:
        raise ValueError(f"a={a} is not in F_q*")
    check_power_limit(t.p, t.s * t.n, limit)
    key = (t.p, t.s, t.n, i, a)
    if key not in _HIST_CACHE:
        _HIST_CACHE[key] = _histogram_compute(t, i, a, _CHUNK)
    return dict(_HIST_CACHE[key])


def oracle_curve(spec: CurveSpec, limit: int = DEFAULT_LIMIT) -> int:
    """q * #{x : Tr(x(x^(q^i) - x)) = Tr(lambda)}, the y-fibers having size q:
    the one-term read of the hypersurface oracle's fiber cache."""
    return spec.tower.q * _read_fiber(spec, limit)


def oracle_direct(spec: CurveSpec, limit: int = DEFAULT_LIMIT) -> int:
    """Literal count of the (x, y) pairs by the shared scan with terms ((1, i),),
    against the per-tower count of y^q - y and with no trace or fiber argument,
    which it thus validates.  Refuses unless q^(2n) <= limit: tiny towers only."""
    t = spec.tower
    check_power_limit(t.p, 2 * t.s * t.n, limit)
    return _direct_count(t, spec.terms, spec.lam)


def _direct_count(t: FieldTower, terms, lam) -> int:
    """#{(x_1, ..., x_r, y) : y^q - y = sum_j a_j x_j (x_j^(q^i_j) - x_j) - lambda}.

    Every tuple is visited: the prefix sum -lambda + v_1 + ... + v_(r-1) is
    formed once per value tuple of the first r - 1 terms, and each value v_r
    of the last term is added to it and looked up in the per-tower count of
    y^q - y, so the scan makes q^(rn) + (r - 1) q^((r-1)n) xadd calls."""
    key = (t.p, t.s, t.n)
    if key not in _IMAGE_CACHE:
        _IMAGE_CACHE[key] = Counter(t.xsub(t.frobenius(y, 1), y) for y in t.elements())
    images = _IMAGE_CACHE[key]
    *head, last = [[t.xscale(a, t.xmul(x, t.xsub(t.frobenius(x, i), x))) for x in t.elements()]
                   for a, i in terms]
    neg_lam = t.xneg(lam)
    count = 0
    for prefix in product(*head):
        rhs = neg_lam
        for v in prefix:
            rhs = t.xadd(rhs, v)
        count += sum(images.get(t.xadd(rhs, v), 0) for v in last)
    return count


def _fiber_pair(t: FieldTower, f: list, g: list, c: int) -> int:
    """sum_b f[b] g[c - b] over F_q: the fiber at c of the convolution of f and g."""
    return sum(map(mul, f, map(g.__getitem__, t.bsub_row(c))))


def _fiber_entry(t: FieldTower, terms: tuple, limit: int) -> tuple:
    """(fibers, conv, last) for _FIBER_CACHE.  Histograms are requested in
    the order of terms and convolved in sorted order, so every ordering of a
    multiset builds the same entry.  One term: its histogram is every fiber.
    r >= 2: no fiber yet, and lists indexed by F_q code of the convolution
    of the first r - 1 ((r - 2) q^2 products) and of the last histogram."""
    hists = [qf_histogram(t, i, a, limit=limit) for a, i in terms]
    if len(hists) == 1:
        return hists[0], None, None
    order = sorted(range(len(terms)), key=terms.__getitem__)
    conv, *rest, last = [list(map(hists[j].__getitem__, range(t.q))) for j in order]
    for h in rest:
        conv = [_fiber_pair(t, conv, h, c) for c in range(t.q)]
    return {}, conv, last


def _read_fiber(spec: CurveSpec | HypersurfaceSpec, limit: int) -> int:
    """The fiber at Tr(lambda) of the r-fold convolution of the spec's
    per-term histograms, from _FIBER_CACHE; a fiber not read before costs q
    products.  Refuses when q^n > limit, also on a cache hit."""
    t = spec.tower
    if t.ext_card > limit:
        check_power_limit(t.p, t.s * t.n, limit)
    key = spec.multiset_key
    entry = _FIBER_CACHE.get(key)
    if entry is None:
        entry = _FIBER_CACHE[key] = _fiber_entry(t, spec.terms, limit)
    fibers, conv, last = entry
    c = spec.trace_lambda
    fiber = fibers.get(c)
    if fiber is None:
        fiber = fibers[c] = _fiber_pair(t, conv, last, c)
    return fiber


def oracle_hypersurface(spec: HypersurfaceSpec, limit: int = DEFAULT_LIMIT) -> int:
    """q * #{(x_1, ..., x_r) : sum_j Tr(a_j x_j (x_j^(q^i_j) - x_j)) = Tr(lambda)}.

    Only the fiber at Tr(lambda) of the r-fold convolution over (F_q, +) of
    the per-term histograms is formed.  A first call takes r histograms of
    q^n elements each, convolves the first r - 1 in sorted order ((r - 2) q^2
    products) and pairs the result with the last at Tr(lambda) (q products),
    where the literal scan visits q^(rn) tuples.  The convolution and the
    fibers read are cached per (tower, term multiset), so a later spec with
    these terms in any order pays q products for a new fiber and one dict
    read for a fiber already formed.  Refuses when q^n > limit.
    """
    return spec.tower.q * _read_fiber(spec, limit)


def oracle_hypersurface_direct(spec: HypersurfaceSpec, limit: int = DEFAULT_LIMIT) -> int:
    """Literal count over all q^(rn) tuples by the shared scan, with no per-term
    split, trace or histogram: each term once per x, each prefix sum of the
    first r - 1 terms once, every tuple's sum looked up in the per-tower count
    of y^q - y (q^(rn) + (r - 1) q^((r-1)n) xadd calls).  Refuses unless
    q^(rn) (>= q^n) <= limit."""
    t = spec.tower
    check_power_limit(t.p, t.s * t.n * spec.r, limit)
    return _direct_count(t, spec.terms, spec.lam)


def gauss_sum_numeric(p: int, s: int) -> complex:
    """Sum of chi(x) e^(2 pi i TrAbs(x)/p) over x in F_q*, q = p^s <= 10^6."""
    check_power_limit(p, s, 1_000_000)
    t = build_tower(p, s, 1)
    total = 0j
    for x in range(1, t.q):
        tr = t.base_trace_to_prime(x)
        total += t.quadratic_character(x) * cmath.exp(2j * cmath.pi * tr / p)
    return total


def gauss_sum_reference(p: int, s: int) -> complex:
    """-(-tau)^s sqrt(q) with tau = 1 for p = 1 (mod 4) and i for p = 3 (mod 4)."""
    tau = 1 if p % 4 == 1 else 1j
    # sqrt(q) as sqrt(p^(s mod 2)) p^(s // 2), so no power of p beyond the
    # float range is ever rooted
    return -((-tau) ** (s % 4)) * (math.sqrt(p ** (s % 2)) * p ** (s // 2))


def char_sum_numeric(tower: FieldTower, H) -> complex:
    """Sum of e^(2 pi i TrAbs(X H X^T)/p) over all X in F_q^n; q^n <= 10^4.

    TrAbs(X H X^T) is a quadratic form over F_p in the ns coordinates of X,
    with matrix entries TrAbs(g^(v + v') H_jk); its p fibers are counted
    exactly, so the only rounding is in the sum of p phases."""
    t = tower
    n, p = t.n, t.p
    if len(H) != n or any(len(row) != n for row in H):
        raise ValueError("H must be n x n")
    t.check_base_rows(H)
    check_power_limit(p, t.s * n, 10_000)
    powers = [t.bpow(p, k) for k in range(2 * t.s - 1)]
    vals = [[[t.base_trace_to_prime(t.bmul(g, h)) for g in powers] for h in row]
            for row in H]
    counts = _fiber_counts(_spread_over_digits(vals, t.s)[None], p, _CHUNK)
    return sum(int(counts[c]) * cmath.exp(2j * cmath.pi * c / p) for c in range(p))
