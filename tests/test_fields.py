"""Tower construction, arithmetic, Frobenius, trace, character."""

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
    # q > 512 has no addition tables, and q = 3^13 > 2^20 no log tables either
    (3, 7, 3): ((1, 0, 0, 0, 0, 1, 2, 1),
        (1, 0, 2, 1),
        (0, 1, 1)),
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
    for psn in SCAN_REFERENCE_TOWERS:
        p, s, n = psn
        t = build_tower(*psn)
        base = _least_irreducible_by_trial_division(
            p, s, lambda a, b: a * b % p, lambda a, b: (a - b) % p)
        assert t.base_modulus == base, psn
        assert t.ext_modulus == _least_irreducible_by_trial_division(t.q, n, t.bmul, t.bsub), psn


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
    # q = 9 exercises the table-backed path; check against digit arithmetic.
    t = build_tower(3, 2, 2)
    for a in range(t.q):
        da = t.base_digits(a)
        for b in range(t.q):
            db = t.base_digits(b)
            want = t.base_from_digits([(x + y) % 3 for x, y in zip(da, db)])
            assert t.badd(a, b) == want
            want = t.base_from_digits([(x - y) % 3 for x, y in zip(da, db)])
            assert t.bsub(a, b) == want


@pytest.mark.parametrize("ps", [(3, 3), (5, 3), (7, 3), (13, 2)])
def test_base_addition_tables_are_digitwise(ps):
    # the tables are built row by row from the (s-1)-digit table
    t = build_tower(*ps, 1)
    p, q = t.p, t.q
    assert t._add is not None and t._sub is not None
    digits = [t.base_digits(a) for a in range(q)]
    for a in range(q):
        da = digits[a]
        for b in range(q):
            db = digits[b]
            assert t._add[a * q + b] == t.base_from_digits(
                [(x + y) % p for x, y in zip(da, db)])
            assert t._sub[a * q + b] == t.base_from_digits(
                [(x - y) % p for x, y in zip(da, db)])


@pytest.mark.parametrize("ps", [(7, 1), (3, 2), (3, 6)])
def test_bsub_row(ps):
    # the prime field, the table-backed path, and digits (q = 729 has no table)
    t = build_tower(*ps, 1)
    for a in sorted({0, 1, 2, t.q // 2, t.q - 1}):
        assert t.bsub_row(a) == [t.bsub(a, b) for b in range(t.q)]


def test_base_mul_group_structure():
    t = build_tower(3, 2, 2)
    for a in range(1, t.q):
        assert t.bmul(a, t.binv(a)) == 1
        assert t.bpow(a, t.q - 1) == 1
    assert t.bmul(0, 5) == 0


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
        assert t.ext_to_int(x) == k
        assert t.ext_from_int(k) == x


def test_extension_field_axioms_sampled():
    t = build_tower(3, 2, 2)
    rng = random.Random(7)
    for _ in range(40):
        x, y, z = (t.random_element(rng) for _ in range(3))
        assert t.xmul(x, t.xadd(y, z)) == t.xadd(t.xmul(x, y), t.xmul(x, z))
        assert t.xmul(x, y) == t.xmul(y, x)
        assert t.xadd(x, t.xneg(x)) == t.zero
        if x != t.zero:
            assert t.xmul(x, t.xinv(x)) == t.one


def test_powers_use_no_extra_products():
    # y^3 = y^2 y and y^5 = (y^2)^2 y: no product with one and no square
    # after the last bit
    t = FieldTower(3, 1, 4)
    xmul, calls = t.xmul, []
    t.xmul = lambda x, y: calls.append((x, y)) or xmul(x, y)
    y, y2 = (1, 2, 0, 1), xmul((1, 2, 0, 1), (1, 2, 0, 1))
    assert t.xpow(y, 3) == xmul(y2, y) and calls == [(y, y), (y2, y)]
    calls.clear()
    assert t.xpow(y, 5) == xmul(xmul(y2, y2), y) and len(calls) == 3
    calls.clear()
    assert (t.xpow(y, 1), t.xpow(y, 0)) == (y, t.one) and calls == []
    t = FieldTower(5, 2, 2)
    bmul = t.bmul
    t.bmul = lambda a, b: calls.append((a, b)) or bmul(a, b)
    assert t.bpow(7, 3) == bmul(bmul(7, 7), 7) and len(calls) == 2
    calls.clear()
    assert (t.bpow(7, 1), t.bpow(7, 0)) == (7, 1) and calls == []


def test_embed_and_scale():
    t = build_tower(3, 1, 2)
    assert t.embed(2) == (2, 0)
    x = (1, 2)
    assert t.xscale(2, x) == (2, 1)
    assert t.xmul(t.embed(2), x) == t.xscale(2, x)


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


def test_frobenius_order_and_fixed_field():
    t = build_tower(3, 1, 3)
    for x in t.elements():
        assert t.frobenius(x, t.n) == x
    for a in range(t.q):
        assert t.frobenius(t.embed(a), 1) == t.embed(a)


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


@pytest.mark.parametrize("psn", [(3, 1, 6), (3, 1, 9), (5, 1, 10), (7, 1, 8), (3, 2, 6)])
def test_trace_is_sum_of_conjugates(psn):
    # p | n and n > p, so Newton's identities meet k = p, where the k c_{n-k}
    # term vanishes; the conjugates come from xpow, not the Frobenius tables
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
    t = build_tower(3, 2, 2)
    for x in t.elements():
        # absolute trace: sum of p-power conjugates down to F_p
        acc = x
        val = x
        for _ in range(t.s * t.n - 1):
            val = t.xpow(val, t.p)
            acc = t.xadd(acc, val)
        assert all(c == 0 for c in acc[1:])
        assert t.abs_trace(x) == t.base_digits(acc[0])[0] % t.p


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
