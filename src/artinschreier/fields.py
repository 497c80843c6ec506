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
from itertools import product
from operator import itemgetter, mul
from typing import Iterator, Sequence

# A fourth root of unity i^e is represented by its exponent e in {0,1,2,3}.
FourthRootUnit = int

ExtElement = tuple

_LOG_TABLE_MAX_Q = 1 << 20

DEFAULT_LIMIT = 10_000_000


class Record(tuple):
    """Immutable value record, held as one tuple of its field values.

    A subclass declares its fields as annotated class attributes, in order.
    Each field becomes a read-only property over the tuple, so building a
    record from all its values in order is one tuple construction however
    many fields it has; keywords cost a dict merge, so the library passes
    every value positionally.  Equality (within one class), hashing, repr
    and copying go by the declared fields alone, so a subclass may keep a
    derived value as an ordinary attribute without changing its value.
    Plain classes spare a CLI process the standard-library modules that
    generate such classes with exec: importing them costs more than a
    closed-form count."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields:
            cls._fields = fields
            for k, name in enumerate(fields):
                setattr(cls, name, property(itemgetter(k)))

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            # a field given twice raises TypeError in the merge
            values = dict(**dict(zip(fields, args)), **kwargs)
            if len(args) > len(fields) or values.keys() != set(fields):
                raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
            args = [values[name] for name in fields]
        return tuple.__new__(cls, args)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), tuple(self)


class EnumerationLimitError(RuntimeError):
    """Raised instead of starting an enumeration that exceeds the limit.

    requested is the size asked for, or the text "p^e" of a power over 2^100
    refused without being formed; a size of more than 100 bits is stated by
    its order."""

    def __init__(self, requested: int | str, limit: int):
        self.requested = requested
        self.limit = limit
        size = requested
        if isinstance(requested, int) and requested.bit_length() > 100:
            size = f"at least 2^{requested.bit_length() - 1}"
        super().__init__(f"enumeration of {size} elements exceeds the limit {limit}")


def check_power_limit(base: int, exponent: int, limit: int) -> None:
    """Refuse an enumeration of base^exponent > limit elements.  A power known
    to exceed both 2^100 and the limit from exponent * (bits of base - 1) alone
    is refused as the text "base^exponent" without being formed."""
    floor_bits = exponent * (base.bit_length() - 1)  # base^exponent >= 2^floor_bits
    if floor_bits > max(100, limit.bit_length()):
        raise EnumerationLimitError(f"{base}^{exponent}", limit)
    power = base ** exponent
    if power > limit:
        raise EnumerationLimitError(power, limit)


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


class _PolyOps:
    """The ring F_card[x], card = q, of one tower: its F_{q^n} products and
    modulus search, and on the tower (p, 1, s) the F_q products.

    Polynomials are lists of field codes (0, 1 and p - 1 are zero, one and
    minus one), index = degree.  The field enters through the tower's bound
    methods (no lambda, so the tower still pickles) bmul, binv, _bfrob
    (a -> a^p; None on F_p) and _bscale_add(acc, off, c, row), which adds
    c * row[k] to acc[off + k] for every k.
    """

    def __init__(self, t: "FieldTower"):
        self.p, self.s, self.card, self.minus_one = t.p, t.s, t.q, t.p - 1
        self.mul, self.inv, self.scale_add = t.bmul, t.binv, t._bscale_add
        self.frob = t._bfrob if t.s > 1 else None

    @staticmethod
    def trim(f: list) -> list:
        while f and f[-1] == 0:
            f.pop()
        return f

    def mul_mod(self, f: Sequence, g: Sequence, mod: Sequence) -> list:
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


class FieldTower:
    """The chain F_p < F_q = F_{p^s} < F_{q^n}; all arithmetic lives here.

    Construct via build_tower().  Construction validates p, s and n and
    builds F_q as the prime tower _prime = (p, 1, s) (s > 1): base_modulus
    is its extension modulus, and its trace and ring give Tr_{F_q/F_p} and
    the product.  Each tower's ring _ring over F_q searches the extension
    modulus and makes every F_{q^n} product.  The extension modulus, the
    monomial traces and the Frobenius tables are filled in on first use and
    never change after that.  Filling them is idempotent (a racing second
    fill computes the same values and assigns each attribute whole), so
    concurrent reads stay safe.
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

        self._prime = build_tower(p, 1, s) if s > 1 else None
        # (0, 1) is the degree-1 placeholder of F_p itself
        self.base_modulus = self._prime.ext_modulus if s > 1 else (0, 1)
        self._init_base_tables()
        self._ring = _PolyOps(self)
        self.zero = tuple([0] * n)
        self.one = tuple([1] + [0] * (n - 1))
        self._frob_matrices = {}  # x -> x^(q^k) by k, filled by frobenius_rows
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
        modulus = tuple(self._ring.least_irreducible(self.n))
        self._tr_mono = self._power_sums(modulus, 2 * self.n - 1)
        self._ext_modulus = modulus
        return modulus

    # ----- F_q arithmetic on int codes -----

    def _init_base_tables(self) -> None:
        """For 1 < s and q <= 2^20, the exp, log and Zech tables over a
        primitive element g, which all F_q arithmetic reads; bpow runs on
        the prime tower's xpow until they exist.  Zech's logarithm
        z[k] = log(1 + g^k) (K. Huber, IEEE Trans. Inf. Theory 36, 1990)
        gives a + b = g^(log a + z[log b - log a]) for nonzero a and b, and
        -b = g^(h + log b) with h = (q - 1)/2.  As 1 + g^h = 0, z[h] points
        past the two copies of exp into q - 1 zeros.  Any sum of two logs
        indexes exp, and any such sum less a log the two copies of z."""
        p, s, q = self.p, self.s, self.q
        self._exp = self._log = self._zech = None
        if s == 1 or q > _LOG_TABLE_MAX_Q:
            return
        factors = _prime_factors(q - 1)
        g = next(a for a in range(2, q)
                 if all(self.bpow(a, (q - 1) // ell) != 1 for ell in factors))
        exp = [1] * (q - 1)
        for k in range(1, q - 1):
            exp[k] = self._bmul_generic(exp[k - 1], g)
        log = [0] * q
        for k, v in enumerate(exp):
            log[v] = k
        # the code 1 has no digit but the low one, and digits add mod p
        # without a carry, so 1 + v changes only the low digit of v
        zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]
        zech[(q - 1) // 2] = 2 * (q - 1)
        exp += exp  # in place: a concatenation would hold old and new lists at once
        exp += [0] * (q - 1)
        zech += zech
        self._exp, self._log, self._zech = exp, log, zech

    def _bmul_generic(self, a: int, b: int) -> int:
        """a b as the product of digit vectors mod base_modulus, s > 1."""
        return self.base_from_digits(self._prime._ring.mul_mod(
            self.base_digits(a), self.base_digits(b), self.base_modulus))

    def base_digits(self, a: int) -> list:
        return [a // self.p ** k % self.p for k in range(self.s)]

    def base_from_digits(self, digits: Sequence) -> int:
        return sum(d * self.p ** k for k, d in enumerate(digits))

    def badd(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        if self._exp is not None:
            if not (a and b):
                return a or b
            la = self._log[a]
            return self._exp[la + self._zech[self._log[b] - la]]
        return self.base_from_digits(
            [(x + y) % self.p for x, y in zip(self.base_digits(a), self.base_digits(b))])

    def bsub(self, a: int, b: int) -> int:
        return (a - b) % self.p if self.s == 1 else self.badd(a, self.bneg(b))

    def bsub_row(self, a: int) -> list:
        """[a - b for b in F_q], b in code order, as one vector subtraction,
        so a caller pairing two histograms over F_q makes no method call per
        pair."""
        if self.s == 1:
            return [*range(a, -1, -1), *range(self.p - 1, a, -1)]
        return list(self.xsub([a] * self.q, range(self.q)))

    def bneg(self, a: int) -> int:
        if self.s == 1:
            return -a % self.p
        if self._exp is not None:
            return self._exp[self._log[a] + (self.q - 1) // 2] if a else 0
        return self.base_from_digits([-x % self.p for x in self.base_digits(a)])

    def bmul(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._bmul_generic(a, b)

    def _bscale_add(self, acc: list, off: int, c: int, row: Sequence) -> None:
        """acc[off + k] += c * row[k] in F_q for every k; c is nonzero."""
        if self.s == 1:
            p = self.p
            for k, m in enumerate(row, off):
                if m:
                    acc[k] = (acc[k] + c * m) % p
            return
        if self._exp is not None:
            exp, log, zech = self._exp, self._log, self._zech
            lc = log[c]
            for k, m in enumerate(row, off):
                if m:
                    lv, a = lc + log[m], acc[k]
                    acc[k] = exp[(la := log[a]) + zech[lv - la]] if a else exp[lv]
            return
        for k, m in enumerate(row, off):
            if m:
                acc[k] = self.badd(acc[k], self.bmul(c, m))

    def _bfrob(self, a: int) -> int:
        """a^p, s > 1."""
        return self.bpow(a, self.p)

    def binv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self.bpow(a, self.q - 2)

    def bpow(self, a: int, e: int) -> int:
        """a^e: one log/exp lookup when the log tables exist, else the prime
        tower's xpow on the digits of a; a negative e inverts a first."""
        if e < 0:
            return self.bpow(self.binv(a), -e)
        if self.s == 1:
            return pow(a, e, self.p)
        if self._exp is not None:
            return self._exp[self._log[a] * e % (self.q - 1)] if a else 0 ** e
        return self.base_from_digits(self._prime.xpow(tuple(self.base_digits(a)), e))

    def check_base_rows(self, rows: Sequence) -> None:
        """Refuse with ValueError rows of unequal length, and any entry
        outside the F_q codes 0..q-1, which the arithmetic would read as
        another element or fail on with IndexError."""
        if len({len(row) for row in rows}) > 1:
            raise ValueError("rows have unequal lengths")
        for row in rows:
            for v in row:
                if not 0 <= v < self.q:
                    raise ValueError(f"entry {v} is not in F_q (codes 0..{self.q - 1})")

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
        """Absolute trace Tr_{F_q/F_p}(a) as an int in [0, p): the trace of
        the prime tower (p, 1, s) on the digits of a."""
        return self._prime.trace(self.base_digits(a)) if self.s > 1 else a

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

    def frobenius_rows(self, k: int) -> tuple:
        """The images of t^0, ..., t^(n-1) under x -> x^(q^k), 0 < k < n, as
        ext elements, built on first use as the powers of r = t^(q^k): t^q
        from xpow, then k - 1 applications of the k = 1 rows."""
        if k not in self._frob_matrices:
            r = self.xpow(tuple(1 if j == 1 else 0 for j in range(self.n)), self.q)
            for _ in range(k - 1):
                r = self.frobenius(r, 1)
            rows = [self.one]
            for _ in range(self.n - 1):
                rows.append(self.xmul(rows[-1], r))
            self._frob_matrices[k] = tuple(rows)
        return self._frob_matrices[k]

    # The vector operations pick the F_q branch once per vector: residues
    # mod p for s = 1, exp/log/Zech lookups while the tables exist, and the
    # per-coefficient base operations above them.

    def xadd(self, x: ExtElement, y: ExtElement) -> ExtElement:
        if self.s == 1:
            p = self.p
            return tuple([(a + b) % p for a, b in zip(x, y)])
        if self._exp is not None:
            exp, log, zech = self._exp, self._log, self._zech
            return tuple([exp[log[a] + zech[log[b] - log[a]]] if a and b else a or b
                          for a, b in zip(x, y)])
        return tuple([self.badd(a, b) for a, b in zip(x, y)])

    def xsub(self, x: ExtElement, y: ExtElement) -> ExtElement:
        if self.s == 1:
            p = self.p
            return tuple([(a - b) % p for a, b in zip(x, y)])
        if self._exp is not None:
            exp, log, zech, h = self._exp, self._log, self._zech, (self.q - 1) // 2
            return tuple([(exp[log[a] + zech[log[b] + h - log[a]]] if a else exp[log[b] + h])
                          if b else a for a, b in zip(x, y)])
        return tuple([self.bsub(a, b) for a, b in zip(x, y)])

    def xneg(self, x: ExtElement) -> ExtElement:
        return self.xsub(self.zero, x)

    def xmul(self, x: ExtElement, y: ExtElement) -> ExtElement:
        res = self._ring.mul_mod(x, y, self._ext_modulus or self._extension())
        return tuple(res + [0] * (self.n - len(res)))

    def xscale(self, a: int, x: ExtElement) -> ExtElement:
        if self.s == 1:
            p = self.p
            return tuple([a * c % p for c in x])
        if self._exp is not None:
            if not a:
                return (0,) * len(x)
            exp, log = self._exp, self._log
            la = log[a]
            return tuple([exp[la + log[c]] if c else 0 for c in x])
        return tuple([self.bmul(a, c) for c in x])

    def xpow(self, x: ExtElement, e: int) -> ExtElement:
        """x^e by the ring's square-and-multiply; a negative e is reduced mod
        q^n - 1, so zero raised to it raises ZeroDivisionError."""
        if e < 0:
            if not any(x):
                raise ZeroDivisionError("inverse of zero in F_{q^n}")
            e %= self.ext_card - 1
        if not e:
            return self.one
        res = self._ring.pow_poly(x, e, self._ext_modulus or self._extension())
        return tuple(res + [0] * (self.n - len(res)))

    def frobenius(self, x: ExtElement, k: int = 1) -> ExtElement:
        """x^(q^k); k is reduced mod n.  The image is sum_j x_j row_j over
        the rows of frobenius_rows(k)."""
        k %= self.n
        if not k:
            return x
        mat = self._frob_matrices[k] if k in self._frob_matrices else self.frobenius_rows(k)
        out = [0] * self.n
        for c, row in zip(x, mat):
            if c:
                self._bscale_add(out, 0, c, row)
        return tuple(out)

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
        if self._exp is not None:
            exp, log, zech = self._exp, self._log, self._zech
            for c, t in zip(x, tr):
                if c and t:
                    lv = log[c] + log[t]
                    acc = exp[(la := log[acc]) + zech[lv - la]] if acc else exp[lv]
            return acc
        for c, t in zip(x, tr):
            if c and t:
                acc = self.badd(acc, self.bmul(c, t))
        return acc

    # ----- enumeration -----

    def ext_from_int(self, m: int) -> ExtElement:
        out = []
        for _ in range(self.n):
            m, c = divmod(m, self.q)
            out.append(c)
        return tuple(out)

    def elements(self) -> Iterator:
        """All of F_{q^n} in odometer order, least significant coefficient
        fastest: product varies its last place fastest, so each tuple is
        read backwards."""
        return (c[::-1] for c in product(range(self.q), repeat=self.n))

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
