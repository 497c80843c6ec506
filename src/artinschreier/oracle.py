"""Independent ground truth: exhaustive enumeration and numeric character sums.

Nothing here consults the closed formulas.  Curve and hypersurface counts come
from counting fibers of the trace form by full enumeration (plus, for the
direct variants, literal scans over (x, y) pairs that do not even use the
fiber argument), and the Gauss/character sums are summed in floating point.

The trace-form histogram works on the F_p coordinates X of x: each base-p
digit of Tr(a x (x^(q^i) - x)) is Q_c(X) = X G_c X^T mod p for an integer
matrix G_c.  Adding d to coordinate k changes it by the prefix recursion

    Q_c(X + d e_k) = Q_c(X) + d lin_k(X) + d^2 G_c[k, k],

where lin_k(X) = (X (G_c + G_c^T))_k is linear, so the linear forms follow
the same recursion.  Starting from the zero vector, the recursion builds the
values on every assignment of the first L coordinates (p^L at most the chunk
size), together with the linear forms of the columns not yet consumed, in
small unsigned integer arrays reduced mod p after every step.  Each chunk
then fixes one assignment y of the remaining top coordinates; its values are
Q_c(low) + sum_k y_k lin_k(low) + Q_c(y) mod p, counted with bincount.  The
chunks partition F_{q^n} by their top coordinates and every element's value
is computed exactly, so any chunk size gives the same histogram, and memory
is bounded by the chunk, not by q^n.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from itertools import product
from typing import Dict, Optional

import numpy as np

from .fields import DEFAULT_LIMIT, EnumerationLimitError, FieldTower, build_tower
from .counting import CurveSpec, HypersurfaceSpec

ValueHistogram = Dict[int, int]

_CHUNK = 1 << 18

# computed histograms keyed by (p, s, n, i, a); towers are cached singletons
_HIST_CACHE: dict = {}


def _check_limit(requested: int, limit: int) -> None:
    if requested > limit:
        raise EnumerationLimitError(requested, limit)


def _digit_matrices(tower: FieldTower, i: int, a: int) -> np.ndarray:
    """G[c][j][k] = c-th base-p digit of Tr(a e_j (e_k^(q^i) - e_k)) for the
    F_p basis e_(u s + v) = t^u g^v of F_{q^n} (g the F_q generator)."""
    t = tower
    n, s, p = t.n, t.s, t.p
    ns = n * s
    basis = []
    for u in range(n):
        for v in range(s):
            coeffs = [0] * n
            coeffs[u] = p ** v
            basis.append(tuple(coeffs))
    fdiff = [t.xsub(t.frobenius(e, i), e) for e in basis]
    G = np.zeros((s, ns, ns), dtype=np.int64)
    for j in range(ns):
        for k in range(ns):
            val = t.bmul(a, t.trace(t.xmul(basis[j], fdiff[k])))
            for c, digit in enumerate(t.base_digits(val)):
                G[c, j, k] = digit
    return G


def _histogram_compute(tower: FieldTower, i: int, a: int, chunk_size: int) -> ValueHistogram:
    t = tower
    p, s, q = t.p, t.s, t.q
    ns = t.n * s
    G = _digit_matrices(t, i, a)
    S = (G + G.transpose(0, 2, 1)) % p
    low = 0
    while low < ns and p ** (low + 1) <= chunk_size:
        low += 1
    # every sum below stays under this bound until it is reduced mod p
    dtype = np.min_scalar_type(2 * (p - 1) + max(1, ns - low) * (p - 1) ** 2)
    d = np.arange(p, dtype=dtype)[:, None]
    # val[c] and lin[c, k - m] over the p^m assignments of coordinates < m,
    # the new coordinate m being the most significant
    val = np.zeros((s, 1), dtype=dtype)
    lin = np.zeros((s, ns, 1), dtype=dtype)
    for m in range(low):
        square = (np.arange(p) ** 2 * G[:, m, m, None] % p).astype(dtype)
        val = (val[:, None, :] + d * lin[:, 0, None, :] + square[:, :, None]) % p
        lin = (lin[:, 1:, None, :] + d * S[:, m, m + 1:, None, None].astype(dtype)) % p
        val = val.reshape(s, p ** (m + 1))
        lin = lin.reshape(s, ns - m - 1, p ** (m + 1))
    G_top = G[:, low:, low:]
    hist = np.zeros(q, dtype=np.int64)
    for top in product(range(p), repeat=ns - low):
        y = np.array(top, dtype=np.int64)
        acc = val + (np.einsum("j,cjk,k->c", y, G_top, y) % p).astype(dtype)[:, None]
        for k, yk in enumerate(top):
            if yk:
                acc += yk * lin[:, k]
        acc %= p
        value = acc[0].astype(np.intp)
        for c in range(1, s):
            value += acc[c].astype(np.intp) * p ** c
        hist += np.bincount(value, minlength=q)
    return {c: int(hist[c]) for c in range(q)}


def qf_histogram(tower: FieldTower, i: int, a: int,
                 limit: int = DEFAULT_LIMIT,
                 chunk_size: Optional[int] = None) -> ValueHistogram:
    """Fiber sizes #{x in F_{q^n} : Tr(a x (x^(q^i) - x)) = c} for every c in F_q.

    Full enumeration of q^n elements; refuses when q^n > limit.  Passing an
    explicit chunk_size (at least 1; a chunk holds the largest power of p not
    above it) bypasses the cache (used to test partition invariance).
    """
    t = tower
    if not 0 < i < t.n:
        raise ValueError(f"need 0 < i < n, got i={i}, n={t.n}")
    if not 0 < a < t.q:
        raise ValueError(f"a={a} is not in F_q*")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size={chunk_size} is not positive")
    _check_limit(t.q ** t.n, limit)
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
    """Literal scan of all (x, y) pairs; validates the fiber argument itself.

    Refuses unless q^(2n) <= limit, so this is for tiny towers only.
    """
    t = spec.tower
    q, i, lam = t.q, spec.i, spec.lam
    _check_limit(t.q ** (2 * t.n), limit)
    lhs = [t.xsub(t.xpow(y, q), y) for y in t.elements()]
    count = 0
    for x in t.elements():
        rhs = t.xsub(t.xmul(x, t.xsub(t.frobenius(x, i), x)), lam)
        count += sum(1 for z in lhs if z == rhs)
    return count


def _convolve(t: FieldTower, h1: ValueHistogram, h2: ValueHistogram) -> ValueHistogram:
    out = {c: 0 for c in range(t.q)}
    for c1, m1 in h1.items():
        if m1 == 0:
            continue
        for c2, m2 in h2.items():
            if m2:
                out[t.badd(c1, c2)] += m1 * m2
    return out


def oracle_hypersurface(spec: HypersurfaceSpec, limit: int = DEFAULT_LIMIT) -> int:
    """Convolves the r per-term histograms over (F_q, +) and reads the fiber
    at Tr(lambda): cost r q^n + r q^2 instead of q^(rn)."""
    t = spec.tower
    conv = {c: 0 for c in range(t.q)}
    conv[0] = 1
    for a, i in spec.terms:
        conv = _convolve(t, conv, qf_histogram(t, i, a, limit=limit))
    return t.q * conv[t.trace(spec.lam)]


def oracle_hypersurface_direct(spec: HypersurfaceSpec, limit: int = DEFAULT_LIMIT) -> int:
    """Enumerates all q^(rn) coordinate tuples without the per-term split."""
    t = spec.tower
    q, n, r = t.q, t.n, spec.r
    _check_limit(q ** (n * r), limit)
    _check_limit(q ** n, limit)
    fibers = Counter(t.xsub(t.xpow(y, q), y) for y in t.elements())
    count = 0
    neg_lam = t.xneg(spec.lam)
    for xs in product(list(t.elements()), repeat=r):
        rhs = neg_lam
        for (a, i), x in zip(spec.terms, xs):
            term = t.xmul(x, t.xsub(t.frobenius(x, i), x))
            rhs = t.xadd(rhs, t.xscale(a, term))
        count += fibers.get(rhs, 0)
    return count


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
    """Sum of e^(2 pi i TrAbs(X H X^T)/p) over all X in F_q^n; q^n <= 10^4."""
    t = tower
    n, q, p = t.n, t.q, t.p
    if len(H) != n or any(len(row) != n for row in H):
        raise ValueError("H must be n x n")
    _check_limit(q ** n, 10_000)
    phases = [cmath.exp(2j * cmath.pi * k / p) for k in range(p)]
    total = 0j
    for X in product(range(q), repeat=n):
        v = 0
        for j in range(n):
            if X[j] == 0:
                continue
            row = 0
            for k in range(n):
                if X[k] and H[j][k]:
                    row = t.badd(row, t.bmul(H[j][k], X[k]))
            v = t.badd(v, t.bmul(X[j], row))
        total += phases[t.base_trace_to_prime(v)]
    return total
