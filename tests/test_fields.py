"""Tower construction, arithmetic, Frobenius, trace, character."""

import functools
import itertools
import random

import pytest
import sympy

from artinschreier.fields import FieldTower, _is_prime, build_tower, tau_power

from conftest import grid_towers


# ---------------------------------------------------------------- moduli


def test_moduli_deterministic():
    t = build_tower(3, 1, 2)
    # lex-least monic irreducible quadratic over F_3 is t^2 + 1
    assert t.ext_modulus == (1, 0, 1)
    assert t.base_modulus == (0, 1)  # degree-1 placeholder for s = 1


# (p, s, n): (base_modulus, ext_modulus, traces of t^0, ..., t^(n-1)).
# The least moduli fix what a --lambda coefficient list means, so these are
# pinned values, not recomputed ones.
GOLDEN_TOWERS = {
    (3, 1, 30): ((0, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 1),
        (0, 1, 1, 1, 0, 2, 1, 1, 2, 1, 0, 1, 0, 0, 2, 2, 2, 0, 1, 2, 2, 1, 2, 0, 2, 0, 0, 1, 1, 1)),
    (3, 1, 60): ((0, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
        (0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2, 0, 2, 2, 2)),
    (3, 1, 100): ((0, 1),
        (1,) + (0,) * 93 + (1, 0, 2, 1, 1, 0, 1),
        (1, 0, 1, 0, 0, 2, 1, 1, 2, 0, 1, 0, 0, 1, 2, 2, 2, 0, 1, 2, 2, 1, 1, 2, 2, 2, 1, 0, 1, 2, 1, 1, 0, 0,
         2, 2, 0, 1, 0, 1, 0, 1, 2, 2, 0, 2, 0, 2, 2, 1, 2, 0, 2, 0, 1, 0, 2, 2, 0, 2, 2, 0, 0, 1, 2, 0, 1, 2,
         1, 2, 2, 2, 2, 2, 0, 2, 1, 1, 1, 1, 2, 0, 0, 1, 1, 1, 2, 2, 1, 2, 1, 1, 2, 1, 0, 2, 0, 1, 2, 0)),
    (5, 2, 30): ((1, 1, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 13, 1),
        (0, 17, 19, 3, 4, 14, 0, 23, 4, 4, 11, 9, 2, 17, 19, 3, 4, 14, 0, 23, 4, 4, 11, 9, 2, 17, 19, 3, 4, 14)),
    (3, 2, 10): ((1, 0, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 3, 4, 1),
        (1, 8, 0, 5, 2, 8, 0, 5, 2, 8)),
    (7, 2, 6): ((1, 0, 1),
        (1, 0, 0, 0, 0, 9, 1),
        (6, 47, 31, 26, 21, 10)),
    (11, 1, 8): ((0, 1),
        (1, 0, 0, 0, 0, 0, 0, 4, 1),
        (8, 7, 5, 2, 3, 10, 4, 6)),
    (13, 1, 8): ((0, 1),
        (1, 0, 0, 0, 0, 0, 2, 1, 1),
        (8, 12, 10, 5, 1, 2, 9, 0)),
    # q = 3^7 and 3^9 add by Zech logarithms, and q = 3^13 > 2^20 has no
    # tables; the degree-4 search over F_{3^9} makes 2.6 million F_q sums
    (3, 7, 3): ((1, 0, 0, 0, 0, 1, 2, 1),
        (1, 0, 2, 1),
        (0, 1, 1)),
    (3, 9, 4): ((1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
        (1, 0, 1, 1, 1),
        (1, 2, 2, 2)),
    (3, 13, 2): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1),
        (1, 0, 1),
        (2, 0)),
}


@pytest.mark.parametrize("psn", sorted(GOLDEN_TOWERS))
def test_tower_moduli_and_traces_golden(psn):
    base_modulus, ext_modulus, traces = GOLDEN_TOWERS[psn]
    t = build_tower(*psn)
    assert t.base_modulus == base_modulus
    assert t.ext_modulus == ext_modulus
    monomials = [tuple(1 if j == k else 0 for j in range(t.n)) for k in range(t.n)]
    assert tuple(t.trace(m) for m in monomials) == traces


def _digitwise(p, a, b, sign=1):
    """a + sign * b on F_q codes, q a power of p, digit by digit on their
    base-p digits: the definition of the addition, reading no table."""
    out, place = 0, 1
    while a or b:
        out += (a % p + sign * (b % p)) % p * place
        a, b, place = a // p, b // p, place * p
    return out


def _least_irreducible_by_trial_division(card, degree, mul, sub):
    """The first monic polynomial of the given degree over a field of card
    elements, in lexicographic order on (c_0, ..., c_{degree-1}) with c_0
    most significant, that no monic polynomial of degree 1 to degree // 2
    divides.  Plain long division: no Frobenius, no gcd."""
    divisors = [list(low) + [1] for k in range(1, degree // 2 + 1)
                for low in itertools.product(range(card), repeat=k)]

    def divides(g, f):
        r, k = list(f), len(g) - 1
        for top in range(len(f) - 1, k - 1, -1):
            c = r[top]
            if c:
                for j, gj in enumerate(g):
                    r[top - k + j] = sub(r[top - k + j], mul(c, gj))
        return not any(r[:k])

    for low in itertools.product(range(card), repeat=degree):
        f = list(low) + [1]
        if not any(divides(g, f) for g in divisors):
            return tuple(f)


# every (p, s, n) with p <= 13, s <= 2, n >= 2 and q^(n // 2) <= 500
SCAN_REFERENCE_TOWERS = [(p, s, n) for p in (3, 5, 7, 11, 13) for s in (1, 2)
                         for n in range(2, 12) if p ** (s * (n // 2)) <= 500]


def test_moduli_match_trial_division_reference():
    # the F_q subtraction of the reference is the digit-wise definition, not
    # the tower's Zech-logarithm subtraction that the modulus search runs on
    for psn in SCAN_REFERENCE_TOWERS:
        p, s, n = psn
        t = build_tower(*psn)
        sub = functools.partial(_digitwise, p, sign=-1)
        base = _least_irreducible_by_trial_division(p, s, lambda a, b: a * b % p, sub)
        assert t.base_modulus == base, psn
        assert t.ext_modulus == _least_irreducible_by_trial_division(t.q, n, t.bmul, sub), psn


def test_build_tower_cached_identity():
    assert build_tower(3, 1, 2) is build_tower(3, 1, 2)
    assert build_tower(3, 1, 2) is not build_tower(3, 1, 3)


def test_cardinalities():
    t = build_tower(5, 2, 3)
    assert t.q == 25
    assert t.ext_card == 15625


@pytest.mark.parametrize("p", [2, 4, 9, 25])
def test_invalid_characteristic(p):
    with pytest.raises(ValueError):
        FieldTower(p, 1, 2)


def test_is_prime_matches_sympy():
    assert [m for m in range(1, 200_000, 2) if _is_prime(m) != sympy.isprime(m)] == []


def _strong_probable_prime(m, b):
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(b, d, m)
    return x in (1, m - 1) or any(pow(x, 2 ** k, m) == m - 1 for k in range(1, r))


@pytest.mark.parametrize("m,passes", [
    (3215031751, (2, 3, 5, 7)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    # caught by base 41 alone
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
])
def test_strong_pseudoprimes_are_not_prime(m, passes):
    assert not sympy.isprime(m)
    assert all(_strong_probable_prime(m, b) for b in passes)
    assert not _is_prime(m)
    with pytest.raises(ValueError):
        FieldTower(m, 1, 2)


@pytest.mark.parametrize("s,n", [(0, 2), (1, 0), (-1, 3)])
def test_invalid_degrees(s, n):
    with pytest.raises(ValueError):
        FieldTower(3, s, n)


# ------------------------------------------------------------- base field


def test_base_arithmetic_prime_field():
    t = build_tower(3, 1, 2)
    assert t.badd(2, 2) == 1
    assert t.bmul(2, 2) == 1
    assert t.bsub(0, 1) == 2
    assert t.binv(2) == 2
    assert t.bpow(2, 4) == 1


def test_base_arithmetic_table_vs_digits():
    # q = 9 adds by Zech logarithms; check against digit arithmetic.
    t = build_tower(3, 2, 2)
    for a in range(t.q):
        da = t.base_digits(a)
        for b in range(t.q):
            db = t.base_digits(b)
            want = t.base_from_digits([(x + y) % 3 for x, y in zip(da, db)])
            assert t.badd(a, b) == want
            want = t.base_from_digits([(x - y) % 3 for x, y in zip(da, db)])
            assert t.bsub(a, b) == want


@pytest.mark.parametrize("ps", [(3, 3), (5, 3), (7, 3), (13, 2), (3, 7), (3, 9), (1009, 2)])
def test_base_addition_tables_are_digitwise(ps):
    # badd, bsub and _bscale_add read the exp, log and Zech tables: every
    # pair for q <= 343, seeded pairs above, and the pairs that meet zero or
    # sum to zero (1 + (p - 1) is the one Zech entry with no logarithm).
    # FieldTower, not build_tower, so the 1009^2 tables are not kept
    t = FieldTower(*ps, 1)
    p, q = t.p, t.q
    assert t._zech is not None
    rng = random.Random(q)
    if q < 1000:
        pairs = list(itertools.product(range(q), repeat=2))
    else:
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(4000)]
    a, b = rng.randrange(1, q), rng.randrange(1, q)
    pairs += [(0, 0), (a, 0), (0, b), (a, _digitwise(p, 0, a, -1)), (1, p - 1), (p - 1, 1)]
    for a, b in pairs:
        assert t.badd(a, b) == _digitwise(p, a, b), (ps, a, b)
        assert t.bsub(a, b) == _digitwise(p, a, b, -1), (ps, a, b)
    for _ in range(300):
        c = rng.randrange(1, q)
        acc = [rng.choice((0, 1, p - 1, rng.randrange(q))) for _ in range(7)]
        row = [rng.choice((0, 1, p - 1, rng.randrange(q))) for _ in range(5)]
        want = acc[:2] + [_digitwise(p, x, t.bmul(c, m)) for x, m in zip(acc[2:], row)]
        t._bscale_add(acc, 2, c, row)
        assert acc == want, (ps, c, row)
    c, m = rng.randrange(1, q), rng.randrange(1, q)
    acc = [_digitwise(p, 0, t.bmul(c, m), -1)]
    t._bscale_add(acc, 0, c, [m])
    assert acc == [0], (ps, c, m)


@pytest.mark.parametrize("ps", [(7, 1), (3, 2), (3, 6)])
def test_bsub_row(ps):
    # the prime field and two Zech-table fields, q = 9 and q = 729
    t = build_tower(*ps, 1)
    for a in sorted({0, 1, 2, t.q // 2, t.q - 1}):
        assert t.bsub_row(a) == [_digitwise(t.p, a, b, -1) for b in range(t.q)]


def test_base_mul_group_structure():
    t = build_tower(3, 2, 2)
    for a in range(1, t.q):
        assert t.bmul(a, t.binv(a)) == 1
        assert t.bpow(a, t.q - 1) == 1
    assert t.bmul(0, 5) == 0
    # q = 3^7 multiplies by log tables, and q = 3^13 > 2^20 has none, so
    # there the product is the prime tower's polynomial product
    rng = random.Random(17)
    for s in (7, 13):
        t = build_tower(3, s, 2)
        for _ in range(12):
            a, b, c = (rng.randrange(1, t.q) for _ in range(3))
            assert t.bmul(a, t.binv(a)) == 1
            assert t.bpow(a, t.q - 1) == 1
            assert t.bmul(a, b) == t.bmul(b, a)
            assert t.bmul(a, t.badd(b, c)) == t.badd(t.bmul(a, b), t.bmul(a, c))


def test_base_from_int():
    t = build_tower(7, 1, 2)
    assert t.base_from_int(-1) == 6
    assert t.base_from_int(10) == 3


# ------------------------------------------------------------- extension


def test_extension_enumeration_roundtrip():
    t = build_tower(3, 1, 3)
    elems = list(t.elements())
    assert len(elems) == 27
    assert len(set(elems)) == 27
    for k, x in enumerate(elems):
        assert sum(c * t.q ** j for j, c in enumerate(x)) == k
        assert t.ext_from_int(k) == x


@pytest.mark.parametrize("psn", [(3, 2, 3), (5, 1, 3)])
def test_elements_in_integer_order(psn):
    t = build_tower(*psn)
    assert list(t.elements()) == [t.ext_from_int(m) for m in range(t.ext_card)]


# (p, s, n) and whether the tower has F_q exp, log and Zech tables: s = 1
# reduces mod p, 1 < s with q <= 2^20 adds and multiplies by the tables, and
# past them the vector operations run the base operations per coefficient
@pytest.mark.parametrize("psn,tables", [
    ((3, 1, 4), (False, False)), ((1009, 1, 2), (False, False)),
    ((3, 2, 3), (True, True)), ((7, 3, 2), (True, True)),
    ((3, 7, 2), (True, True)), ((3, 13, 2), (False, False))])
def test_vector_operations_match_base_operations(psn, tables):
    t = build_tower(*psn)
    assert (t._exp is not None, t._zech is not None) == tables
    rng = random.Random(psn[0] * 100 + psn[1])
    top = tuple([t.q - 1] * t.n)
    xs = [t.zero, t.one, top] + [t.random_element(rng) for _ in range(20)]
    scalars = [0, 1, t.q - 1] + [rng.randrange(t.q) for _ in range(5)]
    for x in xs:
        assert t.xneg(x) == tuple(t.bneg(a) for a in x)
        for c in scalars:
            assert t.xscale(c, x) == tuple(t.bmul(c, a) for a in x), (c, x)
        for y in xs:
            assert t.xadd(x, y) == tuple(t.badd(a, b) for a, b in zip(x, y))
            assert t.xsub(x, y) == tuple(t.bsub(a, b) for a, b in zip(x, y))
    # F_q rows of other lengths, such as the row reduction passes
    rows = [(t.q - 1,), top + (1, 0), tuple(rng.randrange(t.q) for _ in range(t.n + 2))]
    for x in rows:
        for c in scalars:
            assert t.xscale(c, x) == tuple(t.bmul(c, a) for a in x), (c, x)
        assert t.xadd(x, x) == tuple(t.badd(a, a) for a in x)
        assert t.xsub(x, x) == (0,) * len(x)


def _xmul_schoolbook(t, x, y):
    """x y in F_{q^n}: every coefficient product, then the top coefficients
    removed one at a time with the extension modulus, by F_q method calls."""
    n, mod = t.n, t.ext_modulus
    res = [0] * (2 * n - 1)
    for k, xk in enumerate(x):
        for m, ym in enumerate(y):
            res[k + m] = t.badd(res[k + m], t.bmul(xk, ym))
    for top in range(2 * n - 2, n - 1, -1):
        c = res[top]
        for m in range(n + 1):
            res[top - n + m] = t.bsub(res[top - n + m], t.bmul(c, mod[m]))
    return tuple(res[:n])


def test_extension_field_axioms_sampled():
    rng = random.Random(7)
    for psn, samples in [((3, 2, 2), 40), ((3, 1, 8), 10), ((5, 2, 6), 10), ((3, 1, 30), 5)]:
        t = build_tower(*psn)
        for _ in range(samples):
            x, y, z = (t.random_element(rng) for _ in range(3))
            assert t.xmul(x, y) == _xmul_schoolbook(t, x, y), psn
            assert t.xmul(x, t.xadd(y, z)) == t.xadd(t.xmul(x, y), t.xmul(x, z))
            assert t.xmul(x, y) == t.xmul(y, x)
            assert t.xadd(x, t.xneg(x)) == t.zero
            if x != t.zero:
                assert t.xmul(x, t.xpow(x, -1)) == t.one


def test_powers_use_no_extra_products(monkeypatch):
    # y^3 = y^2 y and y^5 = (y^2)^2 y: no product with one and no square
    # after the last bit, in xpow (the ring's pow_poly) and in bpow on a base
    # field without log tables (q = 3^13 > 2^20), which is the xpow of the
    # prime tower (3, 1, 13); zero to a negative power raises there too
    t = FieldTower(3, 1, 4)
    y = (1, 2, 0, 1)
    y2 = t.xmul(y, y)  # searches the modulus before the products are counted
    y3, y5 = t.xmul(y2, y), t.xmul(t.xmul(y2, y2), y)
    ring, calls = t._ring, []
    mul_mod = ring.mul_mod

    def counted(f, g, mod):
        calls.append(tuple(tuple(h) + (0,) * (t.n - len(h)) for h in (f, g)))
        return mul_mod(f, g, mod)

    ring.mul_mod = counted
    assert t.xpow(y, 3) == y3 and calls == [(y, y), (y2, y)]
    calls.clear()
    assert t.xpow(y, 5) == y5 and len(calls) == 3
    calls.clear()
    assert (t.xpow(y, 1), t.xpow(y, 0)) == (y, t.one) and calls == []
    t = FieldTower(3, 13, 1)
    cube, ring = t.bmul(t.bmul(7, 7), 7), t._prime._ring  # the prime tower is shared
    mul_mod = ring.mul_mod
    monkeypatch.setattr(ring, "mul_mod",
                        lambda f, g, mod: calls.append((f, g)) or mul_mod(f, g, mod))
    assert t.bpow(7, 3) == cube and len(calls) == 2
    calls.clear()
    assert (t.bpow(7, 1), t.bpow(7, 0)) == (7, 1) and calls == []
    assert (t.bpow(0, 0), t.bpow(0, 5)) == (1, 0)
    with pytest.raises(ZeroDivisionError):
        t.bpow(0, -1)
    calls.clear()
    # with log tables a power is one lookup and no product
    t = FieldTower(5, 2, 2)
    bmul = t.bmul
    t.bmul = lambda a, b: calls.append((a, b)) or bmul(a, b)
    assert (t.bpow(7, 3), t.bpow(7, -2), t.bpow(0, 4), t.bpow(0, 0)) == (
        bmul(bmul(7, 7), 7), t.binv(bmul(7, 7)), 0, 1)
    assert calls == []


def _pow_by_products(t, a, e):
    """a^e, e >= 0, by square-and-multiply over the prime tower's polynomial
    product, which reads no log table."""
    r = 1
    for bit in bin(e)[2:]:
        r = t._bmul_generic(r, r)
        if bit == "1":
            r = t._bmul_generic(r, a)
    return r


@pytest.mark.parametrize("ps", [(3, 2), (5, 3), (7, 3), (3, 13)])
def test_base_powers_agree_with_products(ps):
    # every element where bpow, binv and _bfrob are log/exp lookups; samples
    # of q = 3^13 > 2^20, which has no tables
    t = build_tower(*ps, 1)
    p, q = t.p, t.q
    elements = range(q) if q < 1000 else random.Random(29).sample(range(q), 30)
    for a in elements:
        for e in (0, 1, 2, p, q - 2, q - 1, q + 3):
            assert t.bpow(a, e) == _pow_by_products(t, a, e), (ps, a, e)
        assert t._bfrob(a) == _pow_by_products(t, a, p), (ps, a)
        if a:
            inv = _pow_by_products(t, a, q - 2)
            assert t._bmul_generic(a, inv) == 1
            assert (t.binv(a), t.bpow(a, -3)) == (inv, _pow_by_products(t, inv, 3)), (ps, a)
    for power in (lambda: t.binv(0), lambda: t.bpow(0, -1)):
        with pytest.raises(ZeroDivisionError):
            power()


@pytest.mark.parametrize("psn", [(3, 1, 5), (3, 2, 3), (5, 1, 4)])
def test_xpow_negative_exponents(psn):
    t = build_tower(*psn)
    for x in itertools.islice(t.elements(), 1, None):  # every nonzero element
        inv = t.xpow(x, -1)
        assert t.xmul(x, inv) == t.one, (psn, x)
    # on the last x, other negative exponents are reduced mod q^n - 1 too
    assert t.xpow(x, -2) == t.xmul(inv, inv)
    assert t.xpow(x, -(t.ext_card - 1)) == t.one
    assert (t.xpow(t.zero, 0), t.xpow(t.zero, 3)) == (t.one, t.zero)
    with pytest.raises(ZeroDivisionError):
        t.xpow(t.zero, -1)


def test_embed_and_scale():
    # F_q sits in F_{q^n} as the constant polynomials
    t = build_tower(3, 1, 2)
    x = (1, 2)
    assert t.xscale(2, x) == (2, 1)
    assert t.xmul((2, 0), x) == t.xscale(2, x)


# -------------------------------------------------------------- frobenius


def test_frobenius_example():
    # In F_9 = F_3(t) with t^2 = -1, Frobenius sends t to t^3 = -t = 2t.
    t = build_tower(3, 1, 2)
    assert t.frobenius((0, 1), 1) == (0, 2)


def test_frobenius_is_power_map():
    t = build_tower(3, 2, 2)
    rng = random.Random(11)
    for _ in range(20):
        x = t.random_element(rng)
        assert t.frobenius(x, 1) == t.xpow(x, t.q)
        assert t.frobenius(x, 2) == t.xpow(x, t.q ** 2)
    # n >= 4, where the k >= 2 matrices are no longer the identity
    for p, s, n in [(3, 1, 5), (5, 1, 4), (3, 2, 4)]:
        t = build_tower(p, s, n)
        for x in [t.random_element(rng) for _ in range(5)]:
            for k in range(1, n):
                assert t.frobenius(x, k) == t.xpow(x, t.q ** k), (p, s, n, k)


def test_frobenius_rows_are_monomial_images():
    for p, s, n in [(3, 1, 5), (3, 2, 3), (5, 1, 4)]:
        t = build_tower(p, s, n)
        monomials = [tuple(int(j == u) for j in range(n)) for u in range(n)]
        for k in range(1, n):
            assert t.frobenius_rows(k) == tuple(t.xpow(x, t.q ** k) for x in monomials)


def test_frobenius_order_and_fixed_field():
    t = build_tower(3, 1, 3)
    for x in t.elements():
        assert t.frobenius(x, t.n) == x
    for a in range(t.q):
        assert t.frobenius((a, 0, 0), 1) == (a, 0, 0)


def test_frobenius_additive_multiplicative():
    t = build_tower(5, 1, 2)
    rng = random.Random(3)
    for _ in range(25):
        x, y = t.random_element(rng), t.random_element(rng)
        assert t.frobenius(t.xadd(x, y)) == t.xadd(t.frobenius(x), t.frobenius(y))
        assert t.frobenius(t.xmul(x, y)) == t.xmul(t.frobenius(x), t.frobenius(y))


# ------------------------------------------------------------------ trace


def test_trace_examples():
    t = build_tower(3, 1, 2)
    assert t.trace((0, 1)) == 0  # Tr(t) = t + t^3 = t - t = 0
    assert t.trace((1, 0)) == 2  # Tr(1) = n mod p


@pytest.mark.parametrize("psn", [(3, 1, 6), (3, 1, 9), (5, 1, 10), (7, 1, 8), (3, 2, 6),
                                 (3, 7, 2)])
def test_trace_is_sum_of_conjugates(psn):
    # p | n and n > p, so Newton's identities meet k = p, where the k c_{n-k}
    # term vanishes; the conjugates come from xpow, not the Frobenius tables.
    # (3,2,6) and (3,7,2) sum by Zech logarithms
    t = build_tower(*psn)
    rng = random.Random(sum(psn))
    basis = [tuple(1 if j == k else 0 for j in range(t.n)) for k in range(t.n)]
    for x in basis + [t.random_element(rng) for _ in range(5)]:
        acc = conj = x
        for _ in range(t.n - 1):
            conj = t.xpow(conj, t.q)
            acc = t.xadd(acc, conj)
        assert acc[1:] == t.zero[1:]
        assert t.trace(x) == acc[0]


@pytest.mark.parametrize("psn", [(3, 1, 2), (3, 1, 7), (5, 1, 5), (3, 2, 4), (7, 2, 3), (3, 3, 3)])
def test_monomial_traces_past_the_degree(psn):
    # Tr(t^k) up to k = 2n - 2 continues the power sums past k = n - 1
    t = build_tower(*psn)
    gen = tuple(1 if j == 1 else 0 for j in range(t.n))
    traces = t.monomial_traces()
    assert len(traces) == 2 * t.n - 1
    power = t.one
    for k, tr in enumerate(traces):
        assert tr == t.trace(power), (psn, k)
        power = t.xmul(power, gen)


def test_base_trace_to_prime_example():
    # Tr_{F_9/F_3}(2) = 2 + 2^3 = 2 + 2 = 1
    t = build_tower(3, 2, 1)
    assert t.base_trace_to_prime(t.base_from_int(2)) == 1


def test_trace_linear_and_fibers():
    t = build_tower(3, 1, 3)
    hist = {}
    for x in t.elements():
        hist[t.trace(x)] = hist.get(t.trace(x), 0) + 1
    # surjective onto F_q with fibers of size q^{n-1}
    assert hist == {a: t.q ** (t.n - 1) for a in range(t.q)}
    rng = random.Random(5)
    for _ in range(20):
        x, y = t.random_element(rng), t.random_element(rng)
        assert t.trace(t.xadd(x, y)) == t.badd(t.trace(x), t.trace(y))


def test_abs_trace_matches_power_sum():
    # every element of F_81, and samples of F_{3^7} and F_{3^13}, whose
    # traces to F_p come from the prime towers (3, 1, 7) and (3, 1, 13)
    rng = random.Random(19)
    for psn in [(3, 2, 2), (3, 7, 1), (3, 13, 1)]:
        t = build_tower(*psn)
        xs = t.elements() if t.ext_card < 100 else [t.random_element(rng) for _ in range(12)]
        for x in xs:
            # absolute trace: sum of p-power conjugates down to F_p
            acc = x
            val = x
            for _ in range(t.s * t.n - 1):
                val = t.xpow(val, t.p)
                acc = t.xadd(acc, val)
            assert all(c == 0 for c in acc[1:])
            absolute = t.base_trace_to_prime(t.trace(x))
            assert absolute == t.base_digits(acc[0])[0] % t.p, psn


# -------------------------------------------------------------- character


def test_quadratic_character_examples():
    t3 = build_tower(3, 1, 2)
    assert t3.quadratic_character(t3.base_from_int(2)) == -1
    t9 = build_tower(3, 2, 1)
    assert t9.quadratic_character(t9.base_from_int(2)) == 1
    assert t3.quadratic_character(0) == 0


def test_quadratic_character_structure():
    t = build_tower(3, 2, 1)
    q = t.q
    squares = {a for a in range(q) if t.quadratic_character(a) == 1}
    assert len(squares) == (q - 1) // 2
    assert squares == {t.bmul(a, a) for a in range(1, q)}
    for a in range(1, q):
        for b in range(1, q):
            assert (t.quadratic_character(t.bmul(a, b))
                    == t.quadratic_character(a) * t.quadratic_character(b))


def test_tau_power_examples():
    assert tau_power(5, 7) == 0
    assert tau_power(3, 1) == 1
    assert tau_power(3, 2) == 2
    assert tau_power(7, 3) == 3
    assert tau_power(13, 9) == 0


# ------------------------------------------------------------- coverage


def test_grid_towers_bound():
    for p, s, n in grid_towers():
        assert (p ** s) ** n <= 10 ** 6
        assert n >= 2
    assert (3, 1, 12) in grid_towers()
    assert (7, 1, 7) in grid_towers()
