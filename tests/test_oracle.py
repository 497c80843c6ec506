"""Enumeration oracles, convolution, numeric Gauss and character sums."""

import cmath
import math
import random
from collections import Counter
from itertools import permutations, product

import numpy as np
import pytest

from artinschreier.counting import CurveSpec, HypersurfaceSpec
from artinschreier.fields import build_tower
from artinschreier.oracle import (
    EnumerationLimitError,
    char_sum_numeric,
    gauss_sum_numeric,
    gauss_sum_reference,
    oracle_curve,
    oracle_direct,
    oracle_hypersurface,
    oracle_hypersurface_direct,
    qf_histogram,
)

from conftest import random_terms, zero_trace_element


# -------------------------------------------------------------- histograms


def test_qf_histogram_examples():
    t = build_tower(3, 1, 2)
    assert qf_histogram(t, 1, 1) == {0: 3, 1: 6, 2: 0}
    assert qf_histogram(t, 1, 2) == {0: 3, 2: 6, 1: 0}


def test_qf_histogram_partition_of_domain():
    for p, s, n in [(3, 1, 4), (3, 2, 2), (5, 1, 3), (7, 1, 2)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            hist = qf_histogram(t, i, 1)
            assert set(hist) == set(range(t.q))
            assert sum(hist.values()) == t.q ** n


def _reference_histogram(t, i, a):
    """Per-element evaluation of Tr(a x (x^(q^i) - x)), no coordinates involved."""
    hist = Counter(t.trace(t.xscale(a, t.xmul(x, t.xsub(t.frobenius(x, i), x))))
                   for x in t.elements())
    return {c: hist[c] for c in range(t.q)}


def test_qf_histogram_matches_per_element_reference():
    # (3, 3, 2) has odd s > 1, which the verification grid never enumerates
    for p, s, n in [(3, 1, 5), (3, 2, 3), (5, 1, 4), (7, 1, 3), (3, 3, 2)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            for a in sorted({1, 2, t.q // 2, t.q - 1}):
                assert qf_histogram(t, i, a) == _reference_histogram(t, i, a), \
                    (p, s, n, i, a)


def test_qf_histogram_chunking_invariant():
    from artinschreier import oracle

    for p, s, n, i, a in [(3, 1, 4, 1, 1), (3, 1, 4, 3, 2), (3, 2, 3, 1, 5), (3, 2, 3, 2, 1),
                          (3, 3, 2, 1, 1), (3, 3, 2, 1, 17)]:
        t = build_tower(p, s, n)
        total = t.q ** n
        want = _reference_histogram(t, i, a)
        # the state is split at every size it can reach
        chunks = {1, p - 1, p, total, total + 1}
        for k in range(1, n * s + 1):
            chunks |= {p ** k - 1, p ** k + 1}
        for chunk in sorted(chunks):
            assert oracle._histogram_compute(t, i, a, chunk) == want, (p, s, n, chunk)
    # 3^10 elements, too many for the per-element reference: the unsplit count
    # (at most 3^5 tuples per state) against counts that split it
    t = build_tower(3, 5, 2)
    for a in (1, 100):
        want = oracle._histogram_compute(t, 1, a, oracle._CHUNK)
        for chunk in (3, 10, 28, 100, 242):
            assert oracle._histogram_compute(t, 1, a, chunk) == want, (a, chunk)


def test_qf_histogram_merges_and_bounds_each_step(monkeypatch):
    # one merge per coordinate when no state is split, and no merge holds
    # more than max(chunk_size, p) entries when states are split; a merge
    # is an argsort of one word per tuple or a lexsort of several
    from artinschreier import oracle

    merges = []
    real_argsort, real_lexsort = oracle.np.argsort, oracle.np.lexsort

    def argsort(word):
        merges.append(("argsort", len(word)))
        return real_argsort(word)

    def lexsort(keys):
        merges.append(("lexsort", len(keys[0])))
        return real_lexsort(keys)

    monkeypatch.setattr(oracle.np, "argsort", argsort)
    monkeypatch.setattr(oracle.np, "lexsort", lexsort)
    t = build_tower(3, 7, 2)
    want = oracle._histogram_compute(t, 1, 1, oracle._CHUNK)
    sizes = [size for _, size in merges]
    assert len(sizes) == 2 * 7 and max(sizes) <= oracle._CHUNK
    # 7 digits of val and 13 * 7 of lin after the first coordinate: 3^98 > 2^63
    assert merges[0][0] == "lexsort"
    for chunk in (1, 5, 100, 1000):
        merges.clear()
        assert oracle._histogram_compute(t, 1, 1, chunk) == want, chunk
        assert max(size for _, size in merges) <= max(chunk, 3), chunk


def test_qf_histogram_matches_reference_wide_digits():
    # 5 digits of val and 50 of lin at the first step: 3^55 > 2^63, so the
    # tuples cannot be merged through a single int64 key
    t = build_tower(3, 5, 2)
    for a in (1, 200):
        assert qf_histogram(t, 1, a) == _reference_histogram(t, 1, a), a


def test_qf_histogram_matches_reference_uint16_merge():
    # p = 17: the unreduced sums reach p^2 = 289, so the state is uint16
    t = build_tower(17, 1, 3)
    for i in (1, 2):
        for a in (1, 11):
            assert qf_histogram(t, i, a) == _reference_histogram(t, i, a), (i, a)


def _brute_fiber_counts(G, p):
    """sum_c Q_c(X) p^c over every X in F_p^N, evaluated one X at a time."""
    s, N = G.shape[0], G.shape[1]
    X = np.array(list(product(range(p), repeat=N)), dtype=np.int64).reshape(-1, N)
    vals = np.einsum("xj,cjk,xk->xc", X, G, X) % p
    return np.bincount(vals @ p ** np.arange(s), minlength=p ** s)


def test_fiber_counts_match_brute_force_on_random_matrices():
    # uint8 (p <= 15), uint16 (p = 17) and uint32 (p = 257) states, and
    # chunk sizes that split every state, states of p tuples and none
    from artinschreier import oracle

    rng = np.random.default_rng(24)
    cases = [(p, s, N) for p in (3, 5, 7, 17) for s in (1, 2, 3) for N in range(1, 7)
             if p ** N <= 20000]
    cases += [(257, s, N) for s in (1, 2) for N in (1, 2)]
    for p, s, N in cases:
        G = rng.integers(0, p, size=(s, N, N))
        want = _brute_fiber_counts(G, p)
        for chunk in (1, p, 50, oracle._CHUNK):
            got = oracle._fiber_counts(G, p, chunk)
            assert np.array_equal(got, want), (p, s, N, chunk)


def _definition_digit_matrices(t, i, a):
    """G[c][j][k] = digit c of Tr(a e_j (e_k^(q^i) - e_k)), one product per entry."""
    basis = [tuple(t.p ** v if m == u else 0 for m in range(t.n))
             for u in range(t.n) for v in range(t.s)]
    diffs = [t.xsub(t.frobenius(e, i), e) for e in basis]
    return [[[t.base_digits(t.bmul(a, t.trace(t.xmul(ej, dk))))[c] for dk in diffs]
             for ej in basis] for c in range(t.s)]


def test_digit_matrices_match_definition():
    from artinschreier.oracle import _digit_matrices

    for p, s, n in [(3, 1, 5), (3, 2, 3), (5, 1, 4), (3, 3, 2), (5, 2, 3), (7, 3, 2)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            for a in sorted({1, 2, t.q - 1}):
                assert _digit_matrices(t, i, a).tolist() == \
                    _definition_digit_matrices(t, i, a), (p, s, n, i, a)


def test_frobenius_fp_matches_xpow():
    # the F_p matrix against x^(q^i) by repeated squaring, which reads no
    # Frobenius table; digit v of x_u sits at index u s + v
    from artinschreier.oracle import _frobenius_fp

    rng = random.Random(16)
    for p, s, n in [(3, 1, 5), (3, 2, 3), (5, 1, 4), (3, 3, 2), (7, 3, 2), (3, 1, 9)]:
        t = build_tower(p, s, n)

        def coords(x):
            return [d for c in x for d in t.base_digits(c)]

        for i in range(1, n):
            mat = _frobenius_fp(t, i)
            for _ in range(3):
                x = tuple(rng.randrange(t.q) for _ in range(n))
                assert (np.array(coords(x)) @ mat % p).tolist() == \
                    coords(t.xpow(x, t.q ** i)), (p, s, n, i, x)


def test_qf_histogram_memory_bounded_by_chunk():
    import tracemalloc

    from artinschreier import oracle

    t = build_tower(3, 7, 2)  # 3^14 elements
    tracemalloc.start()
    try:
        # the uncached count, so it really runs
        hist = oracle._histogram_compute(t, 1, 1, oracle._CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(hist.values()) == t.q ** t.n
    assert peak < 16 * 2 ** 20, peak


def test_qf_histogram_memory_bounded_when_split():
    # chunks that force splits: at most max(chunk, p) tuples of (N + 1) s
    # one-byte digits wait per level, N = ns levels, besides the matrices
    import tracemalloc

    from artinschreier import oracle

    for (p, s, n), chunk in (((3, 5, 2), 100), ((3, 7, 2), 1000)):
        t = build_tower(p, s, n)
        N = s * n
        tracemalloc.start()
        try:
            hist = oracle._histogram_compute(t, 1, 1, chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(hist.values()) == t.q ** n
        assert peak < 2 ** 18 + 4 * N * chunk * (N + 1) * s, (p, s, n, peak)


def test_qf_histogram_cache_returns_copies():
    t = build_tower(3, 1, 2)
    h1 = qf_histogram(t, 1, 1)
    h1[0] = -999
    assert qf_histogram(t, 1, 1) == {0: 3, 1: 6, 2: 0}


def test_qf_histogram_validation():
    t = build_tower(3, 1, 2)
    with pytest.raises(ValueError):
        qf_histogram(t, 0, 1)
    with pytest.raises(ValueError):
        qf_histogram(t, 1, 0)


def test_enumeration_limit_error():
    t = build_tower(3, 1, 4)
    with pytest.raises(EnumerationLimitError) as exc:
        qf_histogram(t, 1, 1, limit=10)
    assert exc.value.requested == 81
    assert exc.value.limit == 10
    assert isinstance(exc.value, RuntimeError)
    assert str(exc.value) == "enumeration of 81 elements exceeds the limit 10"


def test_check_power_limit_forms_only_statable_powers():
    from artinschreier.fields import check_power_limit

    check_power_limit(3, 10_000, 1 << 20_000)  # 2^15849 < 3^10000 < 2^20000
    # the power is formed when its floor 2^(e (bits - 1)) does not exceed
    # both 2^100 and the limit; over 100 bits it is stated by its order
    for e, limit, requested, size in ((25, 10 ** 7, 3 ** 25, "847288609443"),
                                      (100, 10, 3 ** 100, "at least 2^158"),
                                      (1_000, 3 ** 900, 3 ** 1_000, "at least 2^1584"),
                                      (101, 10, "3^101", "3^101"),
                                      (10_000, 10 ** 200, "3^10000", "3^10000")):
        with pytest.raises(EnumerationLimitError) as exc:
            check_power_limit(3, e, limit)
        assert exc.value.requested == requested, e
        assert str(exc.value).startswith(f"enumeration of {size} elements"), e


# ------------------------------------------------------------ curve oracle


def test_oracle_curve_examples():
    t = build_tower(3, 1, 2)
    assert oracle_curve(CurveSpec(t, 1, t.zero)) == 9
    assert oracle_curve(CurveSpec(t, 1, (2, 0))) == 18


def test_oracle_curve_multiple_of_q():
    rng = random.Random(83)
    for p, s, n in [(3, 1, 5), (5, 1, 3), (3, 2, 2)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            assert oracle_curve(CurveSpec(t, i, t.random_element(rng))) % t.q == 0


def test_oracle_curve_equals_direct():
    # validates the y-fiber reduction on every tower with q^(2n) <= 10^6
    rng = random.Random(89)
    towers = [(3, 1, n) for n in range(2, 7)] + [(3, 2, 2), (3, 2, 3)]
    towers += [(5, 1, n) for n in range(2, 5)] + [(7, 1, 2), (7, 1, 3)]
    for p, s, n in towers:
        t = build_tower(p, s, n)
        assert t.q ** (2 * n) <= 10 ** 6
        for i in range(1, n):
            for lam in (t.zero, t.random_element(rng)):
                spec = CurveSpec(t, i, lam)
                assert oracle_curve(spec) == oracle_direct(spec), (p, s, n, i)


def test_oracle_direct_refuses_oversize():
    t = build_tower(3, 1, 6)
    with pytest.raises(EnumerationLimitError):
        oracle_direct(CurveSpec(t, 1, t.zero), limit=10 ** 5)


def _reference_curve_pairs(t, i, lam):
    """#{(x, y) : y^q - y = x(x^(q^i) - x) - lambda}, one pair at a time."""
    count = 0
    for x in t.elements():
        rhs = t.xsub(t.xmul(x, t.xsub(t.frobenius(x, i), x)), lam)
        for y in t.elements():
            if t.xsub(t.xpow(y, t.q), y) == rhs:
                count += 1
    return count


def test_oracle_direct_matches_pair_loop():
    rng = random.Random(109)
    for p, s, n in [(3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 2, 2), (5, 1, 2)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            for lam in (t.zero, t.random_element(rng)):
                assert oracle_direct(CurveSpec(t, i, lam)) == \
                    _reference_curve_pairs(t, i, lam), (p, s, n, i, lam)


def test_oracle_direct_equals_one_term_hypersurface_direct():
    # both admit the curve when q^(2n) <= limit
    rng = random.Random(113)
    for p, s, n in [(3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 2, 2),
                    (5, 1, 2), (5, 1, 3), (7, 1, 2)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            for lam in (t.zero, t.random_element(rng)):
                assert oracle_direct(CurveSpec(t, i, lam)) == \
                    oracle_hypersurface_direct(HypersurfaceSpec(t, ((1, i),), lam)), \
                    (p, s, n, i, lam)


# ----------------------------------------------------- hypersurface oracle


def test_oracle_hypersurface_example():
    t = build_tower(3, 1, 2)
    spec = HypersurfaceSpec(t, ((1, 1), (1, 1)), t.zero)
    assert oracle_hypersurface(spec) == 27


def test_oracle_hypersurface_r1_equals_curve():
    rng = random.Random(97)
    for p, s, n in [(3, 1, 4), (5, 1, 2), (3, 2, 2)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            lam = t.random_element(rng)
            assert (oracle_hypersurface(HypersurfaceSpec(t, ((1, i),), lam))
                    == oracle_curve(CurveSpec(t, i, lam)))


def test_oracle_hypersurface_term_order():
    t = build_tower(3, 1, 4)
    lam = (1, 2, 0, 1)
    a = oracle_hypersurface(HypersurfaceSpec(t, ((1, 1), (2, 3), (1, 2)), lam))
    b = oracle_hypersurface(HypersurfaceSpec(t, ((1, 2), (1, 1), (2, 3)), lam))
    assert a == b


def test_oracle_hypersurface_convolution_vs_direct():
    rng = random.Random(101)
    cases = [(3, 1, 2, 2), (3, 1, 2, 3), (3, 1, 3, 2), (3, 1, 4, 2),
             (5, 1, 2, 2), (3, 2, 2, 2), (3, 1, 5, 2)]
    for p, s, n, r in cases:
        t = build_tower(p, s, n)
        assert t.q ** (n * r) <= 10 ** 5
        for _ in range(3):
            spec = HypersurfaceSpec(t, random_terms(t, rng, r),
                                    t.random_element(rng))
            assert oracle_hypersurface(spec) == oracle_hypersurface_direct(spec), \
                (p, s, n, r, spec.terms)


def _full_convolution_count(spec):
    """q times the fiber at Tr(lambda) of the whole r-fold convolution of the
    per-term histograms over (F_q, +), one dict per step."""
    t = spec.tower
    conv = {c: 0 for c in range(t.q)}
    conv[0] = 1
    for a, i in spec.terms:
        hist = qf_histogram(t, i, a)
        out = {c: 0 for c in range(t.q)}
        for c1, m1 in conv.items():
            if m1 == 0:
                continue
            for c2, m2 in hist.items():
                if m2:
                    out[t.badd(c1, c2)] += m1 * m2
        conv = out
    return t.q * conv[t.trace(spec.lam)]


def test_oracle_hypersurface_matches_full_convolution():
    rng = random.Random(131)
    for p, s, n in [(3, 1, 4), (5, 1, 3), (7, 1, 2), (3, 2, 3), (3, 3, 2)]:
        t = build_tower(p, s, n)
        basis = [tuple(int(j == u) for j in range(n)) for u in range(n)]
        lams = [t.zero] + basis + [t.random_element(rng) for _ in range(2)]
        for r in range(1, 5):
            for lam in lams:
                spec = HypersurfaceSpec(t, random_terms(t, rng, r), lam)
                assert oracle_hypersurface(spec) == _full_convolution_count(spec), \
                    (p, s, n, spec.terms, lam)


def test_oracle_histogram_requests_and_cache_hits(monkeypatch):
    # a tracer counts cache hits from the module-level qf_histogram calls
    from artinschreier import oracle

    requests = []
    real = oracle.qf_histogram

    def counting(t, i, a, **kwargs):
        requests.append((i, a))
        return real(t, i, a, **kwargs)

    monkeypatch.setattr(oracle, "qf_histogram", counting)
    rng = random.Random(137)
    t = build_tower(3, 2, 3)
    answers = []
    for r in range(1, 5):
        spec = HypersurfaceSpec(t, random_terms(t, rng, r), t.random_element(rng))
        requests.clear()
        answers.append((oracle_hypersurface, spec, oracle_hypersurface(spec)))
        assert requests == [(i, a) for a, i in spec.terms]
    spec = CurveSpec(t, 2, t.random_element(rng))
    requests.clear()
    answers.append((oracle_curve, spec, oracle_curve(spec)))
    assert requests == [(2, 1)]

    def no_compute(*args):
        raise AssertionError("a cache hit computed a histogram")

    monkeypatch.setattr(oracle, "_histogram_compute", no_compute)
    for fn, spec, want in answers:
        assert fn(spec) == want


def test_fiber_cache_answers_every_term_order():
    # the first ordering of each multiset misses, the others hit the entry,
    # and a repeated trace hits a fiber already read
    rng = random.Random(139)
    for p, s, n in [(3, 1, 4), (5, 1, 3), (3, 2, 3)]:
        t = build_tower(p, s, n)
        for r in (1, 2, 3, 4):
            terms = random_terms(t, rng, r)
            lams = [t.random_element(rng) for _ in range(2)] + [t.zero]
            for lam in lams:
                want = _full_convolution_count(HypersurfaceSpec(t, terms, lam))
                for order in set(permutations(terms)):
                    spec = HypersurfaceSpec(t, order, lam)
                    assert oracle_hypersurface(spec) == want, (p, s, n, order, lam)


def test_fiber_cache_equal_traces_equal_answers():
    rng = random.Random(149)
    for p, s, n in [(3, 1, 5), (5, 1, 3), (3, 2, 3)]:
        t = build_tower(p, s, n)
        i = rng.randrange(1, n)
        for terms in (((1, i),), random_terms(t, rng, 3)):
            lam = t.random_element(rng)
            # x^q - x has trace zero, so lam and its shift share Tr(lambda)
            shifted = t.xadd(lam, zero_trace_element(t, rng))
            assert shifted != lam and t.trace(shifted) == t.trace(lam)
            want = _full_convolution_count(HypersurfaceSpec(t, terms, lam))
            got = [oracle_hypersurface(HypersurfaceSpec(t, terms, x)) for x in (lam, shifted)]
            if len(terms) == 1:
                got += [oracle_curve(CurveSpec(t, i, x)) for x in (lam, shifted)]
            assert got == [want] * len(got), (p, s, n, terms)


def test_fiber_cache_hit_enforces_limit():
    t = build_tower(3, 1, 4)
    for spec in (CurveSpec(t, 1, (1, 0, 0, 0)),
                 HypersurfaceSpec(t, ((1, 1), (2, 3), (1, 2)), (1, 0, 0, 0))):
        oracle = oracle_curve if isinstance(spec, CurveSpec) else oracle_hypersurface
        want = oracle(spec)
        with pytest.raises(EnumerationLimitError) as exc:
            oracle(spec, limit=80)
        assert (exc.value.requested, exc.value.limit) == (81, 80)
        assert oracle(spec, limit=81) == want


def test_oracle_hypersurface_direct_refuses_oversize():
    t = build_tower(3, 1, 4)
    with pytest.raises(EnumerationLimitError) as exc:
        oracle_hypersurface_direct(HypersurfaceSpec(t, ((1, 1), (2, 3)), t.zero), limit=10 ** 3)
    assert exc.value.requested == 3 ** 8
    t = build_tower(3, 1, 7)
    with pytest.raises(EnumerationLimitError) as exc:
        oracle_hypersurface_direct(HypersurfaceSpec(t, ((1, 1),), t.zero), limit=10 ** 3)
    assert exc.value.requested == 3 ** 7


def _reference_hypersurface_tuples(spec):
    """The per-tuple scan: every term is evaluated again for each tuple."""
    t = spec.tower
    fibers = Counter(t.xsub(t.xpow(y, t.q), y) for y in t.elements())
    count = 0
    neg_lam = t.xneg(spec.lam)
    for xs in product(list(t.elements()), repeat=spec.r):
        rhs = neg_lam
        for (a, i), x in zip(spec.terms, xs):
            term = t.xmul(x, t.xsub(t.frobenius(x, i), x))
            rhs = t.xadd(rhs, t.xscale(a, term))
        count += fibers.get(rhs, 0)
    return count


def test_oracle_hypersurface_direct_matches_per_tuple_reference():
    rng = random.Random(127)
    cases = [(3, 1, 2, 1), (3, 1, 2, 2), (3, 1, 2, 3), (3, 1, 3, 2),
             (3, 2, 2, 2), (5, 1, 2, 3), (3, 1, 2, 4)]
    for p, s, n, r in cases:
        t = build_tower(p, s, n)
        for lam in (t.zero, t.random_element(rng)):
            spec = HypersurfaceSpec(t, random_terms(t, rng, r), lam)
            assert oracle_hypersurface_direct(spec) == \
                _reference_hypersurface_tuples(spec), (p, s, n, spec.terms, lam)


def test_oracle_hypersurface_direct_forms_each_prefix_sum_once(monkeypatch):
    # exactly one xadd per tuple for the last term and r - 1 per prefix of the
    # first r - 1 terms; adding every term again for each tuple takes
    # r q^(rn), and fewer calls would skip tuples or bypass tower arithmetic
    from artinschreier.fields import FieldTower

    t = build_tower(3, 1, 2)
    rng = random.Random(131)
    calls = []
    real_xadd = FieldTower.xadd

    def xadd(self, x, y):
        calls.append(1)
        return real_xadd(self, x, y)

    monkeypatch.setattr(FieldTower, "xadd", xadd)
    qn = t.ext_card
    for r in (2, 3):
        spec = HypersurfaceSpec(t, random_terms(t, rng, r), t.random_element(rng))
        calls.clear()
        count = oracle_hypersurface_direct(spec)
        assert len(calls) == qn ** r + (r - 1) * qn ** (r - 1), (r, len(calls))
        assert count == oracle_hypersurface(spec), spec.terms


# ------------------------------------------------------------- gauss sums


def test_gauss_sum_examples():
    g = gauss_sum_numeric(3, 1)
    assert abs(g - 1j * math.sqrt(3)) < 1e-9
    g = gauss_sum_numeric(5, 1)
    assert abs(g - math.sqrt(5)) < 1e-9


def test_gauss_sum_modulus_and_reference():
    for p in (3, 5, 7, 11, 13):
        for s in (1, 2):
            g = gauss_sum_numeric(p, s)
            assert abs(abs(g) - math.sqrt(p ** s)) < 1e-9
            assert abs(g - gauss_sum_reference(p, s)) < 1e-9


def test_gauss_sum_reference_beyond_the_float_range_of_q():
    # q = 3^700 is no float, but sqrt(q) = 3^350 is
    g = gauss_sum_reference(3, 700)
    assert g == -float(3 ** 350) and g.imag == 0


def test_gauss_sum_refuses_oversize():
    with pytest.raises(EnumerationLimitError) as exc:
        gauss_sum_numeric(3, 13)  # q = 3^13 > 10^6
    assert exc.value.requested == 3 ** 13
    with pytest.raises(EnumerationLimitError) as exc:
        gauss_sum_numeric(3, 10 ** 9)  # refused by the exponent: 3^s is never formed
    assert exc.value.requested == "3^1000000000"
    assert str(exc.value) == "enumeration of 3^1000000000 elements exceeds the limit 1000000"


# --------------------------------------------------------------- char sums


def test_char_sum_numeric_examples():
    t = build_tower(3, 1, 2)
    v = char_sum_numeric(t, [[0, 0], [0, 1]])
    assert abs(v - 1j * 3 ** 1.5) < 1e-9
    assert abs(char_sum_numeric(t, [[0, 0], [0, 0]]) - 9) < 1e-12


def test_char_sum_congruence_invariant():
    from artinschreier.quadforms import fq_matrix_rank

    t = build_tower(3, 1, 2)
    rng = random.Random(103)
    H = [[1, 2], [2, 0]]
    want = char_sum_numeric(t, H)
    for _ in range(5):
        C = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
        if fq_matrix_rank(t, C) != 2:
            continue
        HC = [[0, 0], [0, 0]]
        for j in range(2):
            for l in range(2):
                acc = 0
                for u in range(2):
                    for v in range(2):
                        acc = t.badd(acc, t.bmul(t.bmul(C[j][u], H[u][v]), C[l][v]))
                HC[j][l] = acc
        assert abs(char_sum_numeric(t, HC) - want) < 1e-9


def _per_x_char_sum(t, H):
    """Sum of e^(2 pi i TrAbs(X H X^T)/p) evaluated at every X separately."""
    n, p = t.n, t.p
    total = 0j
    for X in product(range(t.q), repeat=n):
        v = 0
        for j in range(n):
            for k in range(n):
                v = t.badd(v, t.bmul(X[j], t.bmul(H[j][k], X[k])))
        total += cmath.exp(2j * cmath.pi * t.base_trace_to_prime(v) / p)
    return total


def test_char_sum_matches_per_x_sum():
    rng = random.Random(107)
    for p, s, n in [(3, 1, 4), (3, 2, 3), (5, 1, 3), (7, 1, 3)]:
        t = build_tower(p, s, n)
        for symmetric in (True, False):
            for _ in range(3):
                H = [[rng.randrange(t.q) for _ in range(n)] for _ in range(n)]
                if symmetric:
                    H = [[H[min(j, k)][max(j, k)] for k in range(n)] for j in range(n)]
                assert abs(char_sum_numeric(t, H) - _per_x_char_sum(t, H)) < 1e-9, \
                    (p, s, n, H)


def test_char_sum_refuses_oversize():
    t = build_tower(7, 1, 6)
    with pytest.raises(EnumerationLimitError):
        char_sum_numeric(t, [[0] * 6 for _ in range(6)])
    with pytest.raises(ValueError):
        char_sum_numeric(build_tower(3, 1, 2), [[0, 0]])
