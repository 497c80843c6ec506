"""Arithmetic in the tower F_p < F_q < F_{q^n} with q = p^s, p an odd prime.

Element encodings:

* An element of F_q ("base element") is an int in [0, q): the base-p digits
  are the coefficients of the polynomial basis over F_p, constant term in the
  least significant digit.  For s = 1 this is the usual residue in [0, p).
* An element of F_{q^n} ("ext element") is a tuple of n base-element ints,
  index k holding the coefficient of t^k in the polynomial basis over F_q.

Both moduli are the lexicographically least monic irreducibles of their
degree, coefficients compared from the constant term upward, so identical
parameters always produce identical towers.  Enumeration of F_{q^n} runs in
odometer order on the coefficient tuples, least significant coefficient
fastest; element m of the enumeration has base-q digits of m as coefficients.
"""

from __future__ import annotations

import functools
import random
from operator import mul
from typing import Iterator, Sequence

# A fourth root of unity i^e is represented by its exponent e in {0,1,2,3}.
FourthRootUnit = int

ExtElement = tuple

_LOG_TABLE_MAX_Q = 1 << 20
_ADD_TABLE_MAX_Q = 1 << 9  # q*q add/sub lookup tables below this

DEFAULT_LIMIT = 10_000_000


class Record:
    """Immutable value record.  A subclass names its fields in __slots__ and
    sets each one in its own __init__ with object.__setattr__; equality
    (within one class), hashing, repr and copying go by the fields in that
    order.  Plain classes spare a CLI process the standard-library module
    that generates such classes with exec: importing it costs more than a
    closed-form count."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), self._values()


class EnumerationLimitError(RuntimeError):
    """Raised instead of starting an enumeration that exceeds the limit."""

    def __init__(self, requested: int, limit: int):
        self.requested = requested
        self.limit = limit
        super().__init__(
            f"enumeration of {requested} elements exceeds the limit {limit}")


# Miller-Rabin with the first 13 prime bases is exact below psi_13
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


class PrimalityLimitError(RuntimeError):
    """Raised instead of testing a p at or above _MR_EXACT_BELOW, where the
    deterministic primality test is no longer proven exact."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(
            f"p = {p} is not below {_MR_EXACT_BELOW}, the bound of the exact primality test")


def _is_prime(m: int) -> bool:
    """Strong-probable-prime test to the bases 2, 3, ..., 41; exact for
    m < _MR_EXACT_BELOW, in O(log m) multiplications per base."""
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime_factors(m: int) -> list:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def tau_power(p: int, e: int) -> FourthRootUnit:
    """Exponent of i in tau^e, where tau = 1 if p = 1 (mod 4) and i otherwise."""
    if p % 4 == 1:
        return 0
    return e % 4


def _fp_scale_add(p: int, acc: list, off: int, c: int, row: Sequence) -> None:
    """acc[off + k] += c * row[k] in F_p, for every k."""
    for k, m in enumerate(row, off):
        if m:
            acc[k] = (acc[k] + c * m) % p


def _digitwise_table(p: int, s: int, op) -> list:
    """Flat q*q table, q = p^s, whose entry a*q + b is op(x, y) mod p taken
    digit by digit on the base-p digits of a and b.

    Code a = a' p + a_0 has low digit a_0, so row a of the table is the row
    a' of the (s-1)-digit table with each entry h replaced by the block
    h p + op(a_0, b_0) mod p over b_0 < p."""
    table = [op(x, y) % p for x in range(p) for y in range(p)]
    for k in range(1, s):
        size = p ** k  # the codes of the previous table
        blocks = [[[h * p + op(x, y) % p for y in range(p)] for h in range(size)]
                  for x in range(p)]
        rows = [table[h * size:(h + 1) * size] for h in range(size)]
        table = [entry for row in rows for low in blocks for h in row for entry in low[h]]
    return table


class _PolyOps:
    """Polynomial arithmetic over F_card, card = p^s, for the modulus search.

    Polynomials are lists of field codes (0, 1 and p - 1 are zero, one and
    minus one), index = degree.  The field enters through mul, inv, frob
    (a -> a^p; None on F_p, where it is the identity) and
    scale_add(acc, off, c, row), which adds c * row[k] to acc[off + k] for
    every k, so per-coefficient work stays in its loop.
    """

    def __init__(self, p: int, s: int, mul, inv, scale_add, frob):
        self.p, self.s, self.card, self.minus_one = p, s, p ** s, p - 1
        self.mul, self.inv, self.scale_add, self.frob = mul, inv, scale_add, frob

    @staticmethod
    def trim(f: list) -> list:
        while f and f[-1] == 0:
            f.pop()
        return f

    def mul_mod(self, f: list, g: list, mod: list) -> list:
        res = [0] * (len(f) + len(g) - 1) if f and g else []
        for a, fa in enumerate(f):
            if fa:
                self.scale_add(res, a, fa, g)
        return self.rem(res, mod)

    def rem(self, f: list, mod: list) -> list:
        """f mod mod, in place in f; a monic mod (every candidate) needs no inverse."""
        d, mul, scale_add = len(mod) - 1, self.mul, self.scale_add
        neg_inv = self.minus_one if mod[-1] == 1 else mul(self.minus_one, self.inv(mod[-1]))
        for top in range(len(f) - 1, d - 1, -1):
            if f[top]:
                scale_add(f, top - d, mul(f[top], neg_inv), mod)
        del f[d:]
        return self.trim(f)

    def pow_poly(self, h: list, e: int, mod: list) -> list:
        """h^e mod mod, e >= 1."""
        base = result = self.rem(list(h), mod)
        for bit in bin(e)[3:]:
            result = self.mul_mod(result, result, mod)
            if bit == "1":
                result = self.mul_mod(result, base, mod)
        return result

    def gcd(self, f: list, g: list) -> list:
        f = list(f)
        while g:
            f, g = g, self.rem(f, g)
        return f

    def is_irreducible(self, f: list, rootless: bool = False) -> bool:
        """Monic f of degree d >= 2 is reducible iff it has an irreducible
        factor of some degree k <= d/2, and such a factor divides
        gcd(x^(card^k) - x, f).  Walking h -> h^card visits x^(card^k) for
        k = 1, 2, ... and exits at the smallest factor degree, which is what
        makes the lexicographic modulus scan affordable.  rootless says that
        f has no root in F_card, which settles k = 1.

        h -> h^p is semilinear: it sends sum_j h_j x^j to sum_j h_j^p rows[j]
        with rows[j] = x^(jp) mod f, so s such steps raise h to card = p^s
        without any squaring of h.  For p < d, x^p needs no reduction: row
        j + 1 is row j shifted by p and reduced by f."""
        d, p = len(f) - 1, self.p
        if d == 1:
            return True
        xp = None if p < d else self.pow_poly([0, 1], p, f)
        rows, h = [[1]], [0, 1]
        for k in range(1, d // 2 + 1):
            for _ in range(self.s):
                while len(rows) < len(h):
                    row = [0] * p + rows[-1] if xp is None else self.mul_mod(xp, rows[-1], f)
                    rows.append(row if len(row) <= d else self.rem(row, f))
                nxt = [0] * d
                for c, row in zip(h if self.frob is None else map(self.frob, h), rows):
                    if c:
                        self.scale_add(nxt, 0, c, row)
                h = self.trim(nxt)
            if k > rootless:
                diff = h + [0] * (2 - len(h))
                self.scale_add(diff, 0, self.minus_one, [0, 1])
                if len(self.gcd(f, self.trim(diff))) != 1:
                    return False
        return True

    def least_irreducible(self, degree: int) -> list:
        """First monic irreducible of the given degree in lexicographic order
        on (c_0, ..., c_{degree-1}), constant term most significant.  The
        candidates are counted up like an odometer, so the field's elements
        are never listed.

        While card <= 4 degree^2, where evaluating costs less than the gcd at
        k = 1, a root screen replaces that gcd: values[a - 1] = f(a) =
        sum_k c_k cols[k][a - 1] with cols[k][a - 1] = a^k, kept up to date
        as the odometer turns; about two candidates in three have a root."""
        card, scale_add = self.card, self.scale_add
        cols = [[1] * (card - 1)] if 1 < degree and card <= 4 * degree * degree else []
        while cols and len(cols) <= degree:
            cols.append(list(map(self.mul, cols[-1], range(1, card))))
        # for degree >= 2 a zero constant term means x divides f, so the scan
        # starts at c_0 = 1
        cand = [int(degree > 1)] + [0] * (degree - 1) + [1]
        values = [0] * len(cols[0]) if cols else []
        for c, col in zip(cand, cols):
            if c:
                scale_add(values, 0, c, col)
        while True:
            if 0 not in values and self.is_irreducible(cand, bool(cols)):
                return cand
            j = degree
            while True:
                j -= 1
                if j < 0:
                    raise RuntimeError("no irreducible polynomial found")
                old = cand[j]
                cand[j] = (old + 1) % card
                if cols and old:
                    scale_add(values, 0, self.mul(self.minus_one, old), cols[j])
                if cols and cand[j]:
                    scale_add(values, 0, cand[j], cols[j])
                if cand[j]:
                    break


def _fp_ops(p: int) -> _PolyOps:
    """_PolyOps over F_p, with the mod-p operations passed in directly."""
    return _PolyOps(p, 1, lambda a, b: a * b % p, lambda a: pow(a, p - 2, p),
                    functools.partial(_fp_scale_add, p), None)


class FieldTower:
    """The chain F_p < F_q = F_{p^s} < F_{q^n}; all arithmetic lives here.

    Construct via build_tower().  Construction validates p, s and n and
    builds F_q; the extension modulus, the monomial traces and the Frobenius
    tables are filled in on first use and never change after that.  Filling
    them is idempotent (a racing second fill computes the same values and
    assigns each attribute whole), so concurrent reads stay safe.
    """

    def __init__(self, p: int, s: int, n: int):
        if p >= _MR_EXACT_BELOW:
            raise PrimalityLimitError(p)
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("even characteristic unsupported")
        if s < 1 or n < 1:
            raise ValueError("s and n must be positive")
        self.p, self.s, self.n = p, s, n
        self.q = p ** s
        self.ext_card = self.q ** n

        self.base_modulus = tuple(_fp_ops(p).least_irreducible(s))
        self._init_base_tables()
        # absolute traces of the F_q basis monomials u^j, in F_p
        self._btr_mono = self._power_sums(self.base_modulus, s)
        self.zero = tuple([0] * n)
        self.one = tuple([1] + [0] * (n - 1))
        self._frob_matrices = {}  # x -> x^(q^k) by k, filled by _frob_matrix
        # filled by _extension() on first use, so a count whose lambda lies in
        # F_q never searches.  Plain attributes checked for None where needed:
        # __getattr__, or cached_property writing through __dict__, slowed
        # every later attribute read on the tower on CPython 3.11
        self._ext_modulus = self._tr_mono = None

    @property
    def ext_modulus(self) -> tuple:
        """The extension modulus, searched on first read; the arithmetic
        reads the plain attribute _ext_modulus instead."""
        return self._ext_modulus or self._extension()

    def _extension(self) -> tuple:
        """Search the extension modulus, derive Tr(t^k) for 0 <= k <= 2n - 2
        from it, and return it."""
        p, n = self.p, self.n
        if self.s == 1:
            fq = _fp_ops(p)
        else:
            # a -> a^p on F_q, one table lookup when the log tables exist
            exp, log, qm1 = self._exp, self._log, self.q - 1
            frob = ((lambda a: exp[log[a] * p % qm1] if a else 0) if exp
                    else (lambda a: self.bpow(a, p)))
            fq = _PolyOps(p, self.s, self.bmul, self.binv, self._bscale_add, frob)
        modulus = tuple(fq.least_irreducible(n))
        self._tr_mono = self._power_sums(modulus, 2 * n - 1)
        self._ext_modulus = modulus
        return modulus

    # ----- F_q arithmetic on int codes -----

    def _init_base_tables(self) -> None:
        p, s, q = self.p, self.s, self.q
        self._exp = self._log = self._add = self._sub = None
        if s > 1 and q <= _ADD_TABLE_MAX_Q:
            self._add = _digitwise_table(p, s, lambda x, y: x + y)
            self._sub = _digitwise_table(p, s, lambda x, y: x - y)
        if s == 1 or q > _LOG_TABLE_MAX_Q:
            return
        # discrete-log tables over a primitive element; bpow runs on
        # _bmul_generic until they exist
        factors = _prime_factors(q - 1)
        g = next(a for a in range(2, q)
                 if all(self.bpow(a, (q - 1) // ell) != 1 for ell in factors))
        exp = [1] * (q - 1)
        for k in range(1, q - 1):
            exp[k] = self._bmul_generic(exp[k - 1], g)
        log = [0] * q
        for k, v in enumerate(exp):
            log[v] = k
        self._exp, self._log = exp, log

    def _bmul_generic(self, a: int, b: int) -> int:
        """Polynomial multiplication of digit vectors mod base_modulus."""
        p, s = self.p, self.s
        da = self.base_digits(a)
        db = self.base_digits(b)
        res = [0] * (2 * s - 1)
        for k, ak in enumerate(da):
            if ak:
                for m, bm in enumerate(db):
                    res[k + m] = (res[k + m] + ak * bm) % p
        mod = self.base_modulus
        for top in range(2 * s - 2, s - 1, -1):
            c = res[top]
            if c:
                res[top] = 0
                for m in range(s):
                    res[top - s + m] = (res[top - s + m] - c * mod[m]) % p
        return self.base_from_digits(res[:s])

    def base_digits(self, a: int) -> list:
        return [a // self.p ** k % self.p for k in range(self.s)]

    def base_from_digits(self, digits: Sequence) -> int:
        return sum(d * self.p ** k for k, d in enumerate(digits))

    def badd(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        if self._add is not None:
            return self._add[a * self.q + b]
        return self.base_from_digits(
            [(x + y) % self.p for x, y in zip(self.base_digits(a), self.base_digits(b))])

    def bsub(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a - b) % self.p
        if self._sub is not None:
            return self._sub[a * self.q + b]
        return self.base_from_digits(
            [(x - y) % self.p for x, y in zip(self.base_digits(a), self.base_digits(b))])

    def bsub_row(self, a: int) -> list:
        """[a - b for b in F_q], b in code order: one row of the subtraction
        table, so a caller pairing two histograms over F_q makes no method
        call per pair."""
        if self.s == 1:
            return [*range(a, -1, -1), *range(self.p - 1, a, -1)]
        if self._sub is not None:
            return self._sub[a * self.q:(a + 1) * self.q]
        return [self.bsub(a, b) for b in range(self.q)]

    def bneg(self, a: int) -> int:
        return self.bsub(0, a)

    def bmul(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._bmul_generic(a, b)

    def _bscale_add(self, acc: list, off: int, c: int, row: Sequence) -> None:
        """acc[off + k] += c * row[k] in F_q, s > 1, for every k; c is nonzero."""
        if self._add is not None:
            add, exp, log, q, qm1 = self._add, self._exp, self._log, self.q, self.q - 1
            lc = log[c]
            for k, m in enumerate(row, off):
                if m:
                    acc[k] = add[acc[k] * q + exp[(lc + log[m]) % qm1]]
            return
        for k, m in enumerate(row, off):
            if m:
                acc[k] = self.badd(acc[k], self.bmul(c, m))

    def binv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        if self.s == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(-self._log[a]) % (self.q - 1)]
        return self.bpow(a, self.q - 2)

    def bpow(self, a: int, e: int) -> int:
        if e < 0:
            return self.bpow(self.binv(a), -e)
        r = a if e else 1
        for bit in bin(e)[3:]:
            r = self.bmul(r, r)
            if bit == "1":
                r = self.bmul(r, a)
        return r

    def base_from_int(self, m: int) -> int:
        """The integer m as an element of F_q (m times the identity)."""
        return m % self.p

    def quadratic_character(self, a: int) -> int:
        """chi(a): 1 for nonzero squares, -1 for non-squares, 0 for a = 0."""
        if a == 0:
            return 0
        if self._log is not None:
            return -1 if self._log[a] & 1 else 1
        r = self.bpow(a, (self.q - 1) // 2)
        return 1 if r == 1 else -1

    def base_trace_to_prime(self, a: int) -> int:
        """Absolute trace Tr_{F_q/F_p}(a) as an int in [0, p)."""
        digits = self.base_digits(a)
        return sum(d * t for d, t in zip(digits, self._btr_mono)) % self.p

    # ----- F_{q^n} arithmetic on coefficient tuples -----

    def _power_sums(self, c: Sequence, count: int) -> list:
        """Power sums p_0, ..., p_{count-1} of the roots of the monic modulus
        t^d + c_{d-1} t^(d-1) + ... + c_0, that is the traces of t^0, t^1,
        ..., by Newton's identities p_0 = d,
        p_k = -(k c_{d-k} + sum_{0<j<k} c_{d-j} p_{k-j}) for k <= d and
        p_k = -sum_{0<j<=d} c_{d-j} p_{k-j} for k > d.  They divide by
        nothing, so they hold in characteristic p as well."""
        d = len(c) - 1
        terms = [(j, c[d - j]) for j in range(1, d + 1) if c[d - j]]
        sums = [self.base_from_int(d)]
        for k in range(1, count):
            acc = self.bmul(self.base_from_int(k), c[d - k]) if k <= d else 0
            for j, cj in terms:
                if j >= k:
                    break
                acc = self.badd(acc, self.bmul(cj, sums[k - j]))
            sums.append(self.bneg(acc))
        return sums

    def monomial_traces(self) -> list:
        """Tr(t^k) for 0 <= k <= 2n - 2, the traces of all products of two
        basis monomials."""
        if self._tr_mono is None:
            self._extension()
        return self._tr_mono

    def _frob_matrix(self, k: int):
        """Rows are the images of t^0, ..., t^(n-1) under x -> x^(q^k), 0 < k < n,
        built on first use: k = 1 from powers of t^q, k >= 2 by applying k = 1."""
        if k not in self._frob_matrices:
            if k == 1:
                t_q = self.xpow(tuple(1 if j == 1 else 0 for j in range(self.n)), self.q)
                rows = [self.one]
                for _ in range(self.n - 1):
                    rows.append(self.xmul(rows[-1], t_q))
            else:
                rows = [self._apply_frob_matrix(row, 1) for row in self._frob_matrix(k - 1)]
            self._frob_matrices[k] = rows
        return self._frob_matrices[k]

    def _apply_frob_matrix(self, x: ExtElement, k: int) -> ExtElement:
        mat = self._frob_matrices[k] if k in self._frob_matrices else self._frob_matrix(k)
        out = [0] * self.n
        for c, row in zip(x, mat):
            if c:
                for j, m in enumerate(row):
                    if m:
                        out[j] = self.badd(out[j], self.bmul(c, m))
        return tuple(out)

    def xadd(self, x: ExtElement, y: ExtElement) -> ExtElement:
        return tuple(self.badd(a, b) for a, b in zip(x, y))

    def xsub(self, x: ExtElement, y: ExtElement) -> ExtElement:
        return tuple(self.bsub(a, b) for a, b in zip(x, y))

    def xneg(self, x: ExtElement) -> ExtElement:
        return tuple(self.bneg(a) for a in x)

    def xmul(self, x: ExtElement, y: ExtElement) -> ExtElement:
        n = self.n
        if n == 1:
            return (self.bmul(x[0], y[0]),)
        res = [0] * (2 * n - 1)
        for k, xk in enumerate(x):
            if xk:
                for m, ym in enumerate(y):
                    if ym:
                        res[k + m] = self.badd(res[k + m], self.bmul(xk, ym))
        mod = self._ext_modulus or self._extension()
        for top in range(2 * n - 2, n - 1, -1):
            c = res[top]
            if c:
                res[top] = 0
                for m in range(n):
                    res[top - n + m] = self.bsub(res[top - n + m], self.bmul(c, mod[m]))
        return tuple(res[:n])

    def xscale(self, a: int, x: ExtElement) -> ExtElement:
        return tuple(self.bmul(a, c) for c in x)

    def xpow(self, x: ExtElement, e: int) -> ExtElement:
        if e < 0:
            return self.xpow(self.xinv(x), -e)
        r = x if e else self.one
        for bit in bin(e)[3:]:
            r = self.xmul(r, r)
            if bit == "1":
                r = self.xmul(r, x)
        return r

    def xinv(self, x: ExtElement) -> ExtElement:
        if x == self.zero:
            raise ZeroDivisionError("inverse of zero in F_{q^n}")
        return self.xpow(x, self.ext_card - 2)

    def embed(self, a: int) -> ExtElement:
        """F_q into F_{q^n} as a constant polynomial."""
        return tuple([a] + [0] * (self.n - 1))

    def frobenius(self, x: ExtElement, k: int = 1) -> ExtElement:
        """x^(q^k); k is reduced mod n."""
        k %= self.n
        return self._apply_frob_matrix(x, k) if k else x

    def trace(self, x: ExtElement) -> int:
        """Tr(x) = x + x^q + ... + x^(q^(n-1)), as a base element.  Tr(x) is
        n x_0 for x in F_q, which needs no extension modulus."""
        tr = self._tr_mono
        if tr is None:
            if not any(x[1:]):
                return self.bmul(self.base_from_int(self.n), x[0])
            tr = self.monomial_traces()
        if self.s == 1:
            return sum(map(mul, x, tr)) % self.p
        acc = 0
        for c, t in zip(x, tr):
            if c and t:
                acc = self.badd(acc, self.bmul(c, t))
        return acc

    def abs_trace(self, x: ExtElement) -> int:
        """Composition Tr_{F_q/F_p} . Tr, an int in [0, p)."""
        return self.base_trace_to_prime(self.trace(x))

    # ----- enumeration -----

    def ext_from_int(self, m: int) -> ExtElement:
        out = []
        for _ in range(self.n):
            m, c = divmod(m, self.q)
            out.append(c)
        return tuple(out)

    def ext_to_int(self, x: ExtElement) -> int:
        return sum(c * self.q ** k for k, c in enumerate(x))

    def elements(self) -> Iterator:
        """All of F_{q^n} in odometer order, least significant coefficient fastest."""
        for m in range(self.ext_card):
            yield self.ext_from_int(m)

    def random_element(self, rng: random.Random) -> ExtElement:
        return self.ext_from_int(rng.randrange(self.ext_card))

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, s={self.s}, n={self.n})"


@functools.lru_cache(maxsize=None)
def build_tower(p: int, s: int, n: int) -> FieldTower:
    """Construct the tower F_p < F_{p^s} < F_{(p^s)^n} with deterministic moduli.

    A tower's values never change once filled in, so identical parameters
    share one cached instance.
    """
    return FieldTower(p, s, n)
