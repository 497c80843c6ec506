"""Quadratic forms over F_q attached to the maps x -> Tr(a x (x^(q^i) - x)).

Matrices over F_q are lists of row lists of base-element ints; a matrix with
rows of unequal length, a non-square matrix to diagonalize and a basis
element that is not an n-tuple are refused with ValueError.  The module
builds the Gram matrix of the trace form in a chosen basis, diagonalizes it
by congruence over F_q, and gives the exact value of the associated
character sum as a fourth root of unity times a half-integral power of q.
The solution count of Q(x) = alpha, count_qf_solutions, is defined in
counting, whose closed forms are that count, and is re-exported here.
"""

from __future__ import annotations

import math
from typing import Sequence

from .counting import count_qf_solutions, term_invariants
from .fields import FieldTower, FourthRootUnit, Record, build_tower, tau_power


class DiagonalizationResult(Record):
    """Invertible M with M H M^T = diag(diagonal); nonzero entries lead."""

    transform: list
    diagonal: list
    rank: int


class ExactValue(Record):
    """unit * q^(half_power_of_q / 2), unit = i^i_exponent."""

    i_exponent: FourthRootUnit
    half_power_of_q: int

    def to_complex(self, q: int) -> complex:
        unit = (1, 1j, -1, -1j)[self.i_exponent % 4]
        return unit * math.sqrt(q) ** self.half_power_of_q


class RankCharPrediction(Record):
    rank: int
    character: int


def det_Mn_integer(m: int) -> int:
    """Exact integer determinant of the m x m tridiagonal matrix with -2 on
    the diagonal and 1 on the off-diagonals (no corner entries).

    Uses the continuant recurrence L_k = -2 L_{k-1} - L_{k-2}.
    """
    if m < 1:
        raise ValueError("m must be positive")
    prev, cur = 1, -2  # L_0, L_1
    for _ in range(m - 1):
        prev, cur = cur, -2 * cur - prev
    return cur


def _row_reduce(tower: FieldTower, rows: Sequence) -> tuple:
    """Reduced row echelon form over F_q: (rows, pivots), where pivots[k] is
    the column of the leading 1 of row k and rows past the rank are zero."""
    mat = [tuple(r) for r in rows]
    tower.check_base_rows(mat)
    pivots = []
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        rank = len(pivots)
        if rank == len(mat):
            break
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        mat[rank] = row = tower.xscale(tower.binv(mat[rank][c]), mat[rank])
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                mat[r] = tower.xsub(mat[r], tower.xscale(mat[r][c], row))
        pivots.append(c)
    return mat, pivots


def fq_matrix_rank(tower: FieldTower, rows: Sequence) -> int:
    """Rank over F_q of a matrix given as a sequence of row sequences."""
    return len(_row_reduce(tower, rows)[1])


def build_gram(tower: FieldTower, basis: Sequence, i: int, a: int) -> list:
    """Gram matrix of x -> Tr(a x (x^(q^i) - x)) in the given basis of F_{q^n}.

    Entry (j, l) is (a/2) Tr(b_j^(q^i) b_l + b_l^(q^i) b_j - 2 b_j b_l),
    formed as C_jl + C_lj with C_jl = (a/2) Tr((b_j^(q^i) - b_j) b_l): one
    product per ordered pair.
    """
    n = tower.n
    if not 0 < i < n:
        raise ValueError(f"need 0 < i < n, got i={i}, n={n}")
    if not 0 < a < tower.q:
        raise ValueError(f"a={a} is not in F_q*")
    if any(len(b) != n for b in basis):
        raise ValueError(f"basis elements are not {n}-tuples")
    if len(basis) != n or fq_matrix_rank(tower, basis) != n:
        raise ValueError("basis is not F_q-linearly independent of full size")
    half_a = tower.bmul(tower.binv(tower.base_from_int(2)), a)
    diffs = [tower.xsub(tower.frobenius(b, i), b) for b in basis]
    tr = [[tower.trace(tower.xmul(d, b)) for b in basis] for d in diffs]
    return [[tower.bmul(half_a, tower.badd(tr[j][l], tr[l][j])) for l in range(n)]
            for j in range(n)]


def congruence_diagonalize(tower: FieldTower, H: Sequence) -> DiagonalizationResult:
    """Symmetric Gaussian congruence: returns M with M H M^T diagonal.

    Pivot policy: the first nonzero diagonal entry in the remaining block is
    swapped in; if the remaining diagonal is all zero but some off-diagonal
    entry h_jl is nonzero, row/column l is added to row/column j first (valid
    in odd characteristic).  Nonzero diagonal entries end up leading.
    """
    n = len(H)
    D = [list(row) for row in H]
    if any(len(row) != n for row in D):
        raise ValueError("matrix is not square")
    tower.check_base_rows(D)
    for j in range(n):
        for l in range(j + 1, n):
            if D[j][l] != D[l][j]:
                raise ValueError("matrix is not symmetric")
    M = [[1 if r == c else 0 for c in range(n)] for r in range(n)]

    def add_row_col(dst: int, src: int, factor: int) -> None:
        # row dst += factor * row src on D and M, then the same on the columns
        # of D: D stays symmetric, so column dst becomes the new row dst, whose
        # corner also gains factor times its entry at src
        row = list(tower.xadd(D[dst], tower.xscale(factor, D[src])))
        row[dst] = tower.badd(row[dst], tower.bmul(factor, row[src]))
        D[dst] = row
        for r in range(n):
            D[r][dst] = row[r]
        M[dst] = list(tower.xadd(M[dst], tower.xscale(factor, M[src])))

    def swap(a: int, b: int) -> None:
        D[a], D[b] = D[b], D[a]
        for row in D:
            row[a], row[b] = row[b], row[a]
        M[a], M[b] = M[b], M[a]

    for j in range(n):
        if D[j][j] == 0:
            k = next((k for k in range(j + 1, n) if D[k][k] != 0), None)
            if k is not None:
                swap(j, k)
            else:
                pair = next(((r, c) for r in range(j, n) for c in range(r + 1, n)
                             if D[r][c] != 0), None)
                if pair is None:
                    break  # remaining block is zero; trailing zeros stay
                r, c = pair
                add_row_col(r, c, 1)
                if r != j:
                    swap(j, r)
        inv = tower.binv(D[j][j])
        for k in range(j + 1, n):
            if D[k][j] != 0:
                add_row_col(k, j, tower.bneg(tower.bmul(D[k][j], inv)))
    diagonal = [D[j][j] for j in range(n)]
    rank = sum(1 for v in diagonal if v != 0)
    if any(v == 0 for v in diagonal[:rank]) or any(v != 0 for v in diagonal[rank:]):
        raise RuntimeError("nonzero diagonal entries do not lead")
    return DiagonalizationResult(M, diagonal, rank)


def rank_and_char(tower: FieldTower, H: Sequence) -> tuple:
    """(rank, chi(delta)) with delta the product of the nonzero diagonal
    entries of any congruence diagonalization (empty product = 1)."""
    res = congruence_diagonalize(tower, H)
    delta = 1
    for v in res.diagonal[:res.rank]:
        delta = tower.bmul(delta, v)
    return res.rank, tower.quadratic_character(delta)


def predict_rank_char(p: int, s: int, n: int, i: int) -> RankCharPrediction:
    """Predicted rank and chi(det of a reduced matrix) for the Gram matrix of
    Tr(x (x^(q^i) - x)), from d = gcd(i, n) and l = n/d alone: the per-term
    invariants of counting.term_invariants with a = 1, which states both
    cases.  Checked against rank_and_char over p in {3,5,7,11,13}, s in
    {1,2}, n <= 18.
    """
    if not 0 < i < n:
        raise ValueError(f"need 0 < i < n, got i={i}, n={n}")
    tower = build_tower(p, s, 1)
    _, _, rank, sign, arg = term_invariants(tower, n, 1, i)
    return RankCharPrediction(rank, sign * tower.quadratic_character(arg))


def find_special_basis(tower: FieldTower) -> list:
    """A basis {b_1, ..., b_{n-2}, beta, 1} with beta outside F_q solving
    beta^q + beta^(q^(n-1)) - 2 beta = 0; requires p | n.

    beta comes from the F_q-kernel of the map a -> a^q + a^(q^(n-1)) - 2a
    (which always contains F_q; the kernel is at least two-dimensional when
    p divides n).  The basis is completed greedily with monomials: the
    pivot columns of one row reduction of [beta, 1, t^0, ..., t^(n-1)].
    """
    n, p = tower.n, tower.p
    if n % p != 0:
        raise ValueError("hypothesis violated: p does not divide n")
    two = tower.base_from_int(2)
    monomials = [tuple(1 if j == k else 0 for j in range(n)) for k in range(n)]
    cols = [tower.xsub(tower.xadd(tower.frobenius(m, 1), tower.frobenius(m, n - 1)),
                       tower.xscale(two, m)) for m in monomials]
    # kernel of the n x n matrix whose k-th column is cols[k]: one vector per
    # free column fc, with 1 at fc and minus column fc of the reduced rows at
    # the pivot columns
    mat, pivots = _row_reduce(tower, list(zip(*cols)))
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for r, c in enumerate(pivots):
            v[c] = tower.bneg(mat[r][fc])
        kernel.append(v)
    beta = next((tuple(v) for v in kernel if any(c != 0 for c in v[1:])), None)
    if beta is None:
        raise RuntimeError("kernel contained no element outside F_q")
    vectors = [beta, tower.one] + monomials
    _, pivots = _row_reduce(tower, list(zip(*vectors)))
    return [vectors[c] for c in pivots[2:]] + [beta, tower.one]


def char_sum_closed_form(tower: FieldTower, H: Sequence) -> ExactValue:
    """Exact value of sum over X in F_q^n of psi_q(X H X^T) for symmetric H:
    (-1)^(l(s+1)) tau^(ls) chi(delta) q^(n - l/2), l = rank, delta = product
    of nonzero diagonal entries after congruence diagonalization.

    Returns q^n (unit 1) for H = 0 by the empty-product convention.
    """
    n = len(H)
    l, chi_delta = rank_and_char(tower, H)
    if l == 0:
        return ExactValue(0, 2 * n)
    iexp = (2 * (l * (tower.s + 1)) + tau_power(tower.p, l * tower.s)) % 4
    if chi_delta == -1:
        iexp = (iexp + 2) % 4
    return ExactValue(iexp, 2 * n - l)
