"""Gram matrices, diagonalization, rank/character predictions, char sums."""

import random

import pytest
import sympy

from artinschreier.counting import CurveSpec, count_curve, term_invariants
from artinschreier.fields import build_tower, tau_power
from artinschreier.oracle import DEFAULT_LIMIT, char_sum_numeric, oracle_curve, qf_histogram
from artinschreier.quadforms import (
    build_gram,
    char_sum_closed_form,
    congruence_diagonalize,
    count_qf_solutions,
    det_Mn_integer,
    find_special_basis,
    fq_matrix_rank,
    predict_rank_char,
    rank_and_char,
)

from conftest import polynomial_basis, random_basis


# --------------------------------------------------------------- det M_n


def test_det_Mn_anchors():
    assert det_Mn_integer(2) == 3
    assert det_Mn_integer(3) == -4
    assert det_Mn_integer(5) == -6


def test_det_Mn_closed_form_range():
    for m in range(1, 51):
        assert det_Mn_integer(m) == (-1) ** m * (m + 1)


def test_det_Mn_matches_sympy():
    for m in (1, 2, 3, 6, 9):
        mat = sympy.zeros(m, m)
        for j in range(m):
            mat[j, j] = -2
            if j + 1 < m:
                mat[j, j + 1] = mat[j + 1, j] = 1
        assert det_Mn_integer(m) == int(mat.det())


def test_det_Mn_rejects_nonpositive():
    with pytest.raises(ValueError):
        det_Mn_integer(0)


# ---------------------------------------------------------------- rank


def test_fq_matrix_rank_basics():
    t = build_tower(3, 1, 2)
    assert fq_matrix_rank(t, [[1, 0], [0, 1]]) == 2
    assert fq_matrix_rank(t, [[1, 2], [2, 1]]) == 1  # row2 = 2*row1
    assert fq_matrix_rank(t, [[0, 0], [0, 0]]) == 0


# ----------------------------------------------------------------- gram


def test_build_gram_example():
    t = build_tower(3, 1, 2)
    basis = [(1, 0), (0, 1)]
    assert build_gram(t, basis, 1, 1) == [[0, 0], [0, 1]]


def test_build_gram_symmetric_and_scales():
    t = build_tower(5, 1, 3)
    rng = random.Random(17)
    basis = random_basis(t, rng)
    g1 = build_gram(t, basis, 1, 1)
    g2 = build_gram(t, basis, 1, 2)
    for j in range(t.n):
        for l in range(t.n):
            assert g1[j][l] == g1[l][j]
            assert g2[j][l] == t.bmul(2, g1[j][l])


def test_build_gram_rejects_dependent_basis():
    t = build_tower(3, 1, 2)
    with pytest.raises(ValueError):
        build_gram(t, [(1, 1), (2, 2)], 1, 1)
    with pytest.raises(ValueError):
        build_gram(t, [(1, 0), (0, 1)], 1, 0)  # a = 0


# entries outside the codes 0..q-1: on s = 1 they would be read mod p
# (3 as 0, 4 as 1), on s > 1 they would index past the tables
@pytest.mark.parametrize("call", [
    lambda t, bad: congruence_diagonalize(t, [[bad, 0], [0, 1]]),
    lambda t, bad: rank_and_char(t, [[1, 0], [0, bad]]),
    lambda t, bad: char_sum_closed_form(t, [[bad, 1], [1, 0]]),
    lambda t, bad: char_sum_numeric(t, [[bad, 0], [0, 1]]),
    lambda t, bad: fq_matrix_rank(t, [[1, bad], [0, 1]]),
    lambda t, bad: build_gram(t, [t.one, (0, 1)], 1, bad),
    lambda t, bad: build_gram(t, [t.one, (bad, 1)], 1, 1),
], ids=["diagonalize", "rank_and_char", "char_sum_closed_form", "char_sum_numeric",
        "fq_matrix_rank", "build_gram_a", "build_gram_basis"])
@pytest.mark.parametrize("p,s,bad", [(3, 1, 3), (3, 1, 4), (3, 1, -1), (3, 2, 9), (5, 2, 30)])
def test_entries_outside_fq_refused(call, p, s, bad):
    t = build_tower(p, s, 2)
    with pytest.raises(ValueError, match="not in F_q"):
        call(t, bad)


# ragged rows, a non-square matrix to diagonalize and basis elements that are
# not n-tuples: each was read as some other matrix or failed with IndexError
@pytest.mark.parametrize("call,message", [
    (lambda t: char_sum_closed_form(t, [[1, 2, 1], [2, 1, 0]]), "not square"),
    (lambda t: rank_and_char(t, [[1, 2], [2, 1], [0, 0]]), "not square"),
    (lambda t: fq_matrix_rank(t, [[1], [1, 2]]), "unequal lengths"),
    (lambda t: build_gram(t, [(1, 0, 0), (0, 1, 0)], 1, 1), "not 2-tuples"),
], ids=["char_sum_closed_form", "rank_and_char", "fq_matrix_rank", "build_gram"])
def test_malformed_shapes_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(build_tower(3, 1, 2))


# ------------------------------------------------------------ diagonalize


def test_diagonalize_examples():
    t = build_tower(3, 1, 2)
    res = congruence_diagonalize(t, [[0, 1], [1, 0]])
    assert res.rank == 2
    assert res.diagonal == [2, 1]
    res = congruence_diagonalize(t, [[1, 0], [0, 1]])
    assert res.diagonal == [1, 1] and res.rank == 2
    res = congruence_diagonalize(t, [[0, 0], [0, 0]])
    assert res.diagonal == [0, 0] and res.rank == 0


def test_diagonalize_rejects_nonsymmetric():
    t = build_tower(3, 1, 2)
    with pytest.raises(ValueError):
        congruence_diagonalize(t, [[0, 1], [2, 0]])


def _random_symmetric(t, rng, n):
    h = [[0] * n for _ in range(n)]
    for j in range(n):
        for l in range(j, n):
            h[j][l] = h[l][j] = rng.randrange(t.q)
    return h


def _mat_mul(t, A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = [[0] * m for _ in range(n)]
    for r in range(n):
        for c in range(m):
            acc = 0
            for x in range(k):
                acc = t.badd(acc, t.bmul(A[r][x], B[x][c]))
            out[r][c] = acc
    return out


def test_diagonalize_reconstruction():
    rng = random.Random(23)
    for p, s, n in [(3, 1, 4), (3, 2, 3), (7, 1, 5)]:
        t = build_tower(p, s, n)
        for _ in range(10):
            H = _random_symmetric(t, rng, n)
            res = congruence_diagonalize(t, H)
            M = res.transform
            assert fq_matrix_rank(t, M) == n  # invertible
            prod = _mat_mul(t, _mat_mul(t, M, H), [list(r) for r in zip(*M)])
            for j in range(n):
                for l in range(n):
                    assert prod[j][l] == (res.diagonal[j] if j == l else 0)
            # nonzero entries lead
            nz = [d for d in res.diagonal if d != 0]
            assert res.diagonal[:len(nz)] == nz and res.rank == len(nz)


def test_rank_char_congruence_invariant():
    rng = random.Random(29)
    t = build_tower(3, 1, 4)
    for _ in range(5):
        H = _random_symmetric(t, rng, 4)
        base = rank_and_char(t, H)
        for _ in range(10):
            C = [list(b) for b in
                 (tuple(rng.randrange(t.q) for _ in range(4)) for _ in range(4))]
            while fq_matrix_rank(t, C) != 4:
                C = [[rng.randrange(t.q) for _ in range(4)] for _ in range(4)]
            HC = _mat_mul(t, _mat_mul(t, C, H), [list(r) for r in zip(*C)])
            assert rank_and_char(t, HC) == base


def test_rank_and_char_examples():
    t = build_tower(3, 1, 2)
    assert rank_and_char(t, [[0, 0], [0, 1]]) == (1, 1)
    assert rank_and_char(t, [[1, 2], [2, 1]]) == (1, 1)
    assert rank_and_char(t, [[0, 0], [0, 0]]) == (0, 1)


def test_full_rank_char_matches_sympy_det():
    # over a prime field chi(prod of diagonal) = chi(det H) at full rank
    rng = random.Random(31)
    t = build_tower(7, 1, 4)
    found = 0
    while found < 8:
        H = _random_symmetric(t, rng, 4)
        rank, char = rank_and_char(t, H)
        if rank < 4:
            continue
        found += 1
        det = int(sympy.Matrix(H).det()) % 7
        assert char == t.quadratic_character(det)


# ------------------------------------------------------------ prediction


def test_predict_examples():
    p1 = predict_rank_char(3, 1, 2, 1)
    assert (p1.rank, p1.character) == (1, 1)
    p2 = predict_rank_char(3, 1, 3, 1)
    assert (p2.rank, p2.character) == (1, -1)
    assert predict_rank_char(5, 1, 10, 5).rank == 5


def test_predict_unpacks_as_dataclass():
    pred = predict_rank_char(3, 1, 2, 1)
    assert pred.rank == 1 and pred.character == 1


def test_predict_agrees_with_gram_small():
    # full grid is covered by the acceptance suite; spot-check here
    rng = random.Random(37)
    for p, s, n in [(3, 1, 4), (3, 1, 6), (5, 1, 4), (3, 2, 3)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            pred = predict_rank_char(p, s, n, i)
            for basis in (polynomial_basis(t), random_basis(t, rng)):
                got = rank_and_char(t, build_gram(t, basis, i, 1))
                assert got == (pred.rank, pred.character), (p, s, n, i)


# (rank, character) of predict_rank_char for i = 1..n-1, one string per n = 2..18,
# over the range its docstring claims; pinned so that a change to the per-term
# derivation it shares with the counts cannot move any of them.
PREDICT_GOLDEN = {
    (3, 1): (
        "1+",
        "1- 1-",
        "3- 2+ 3-",
        "4- 4- 4- 4-",
        "4+ 2- 3+ 2- 4+",
        "6+ 6+ 6+ 6+ 6+ 6+",
        "7+ 6+ 7+ 4+ 7+ 6+ 7+",
        "7- 7- 3- 7- 7- 3- 7- 7-",
        "9- 8+ 9- 8+ 5+ 8+ 9- 8+ 9-",
        "10- 10- 10- 10- 10- 10- 10- 10- 10- 10-",
        "10+ 8- 9- 4- 10+ 6+ 10+ 4- 9- 8- 10+",
        "12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+",
        "13+ 12+ 13+ 12+ 13+ 12+ 7+ 12+ 13+ 12+ 13+ 12+ 13+",
        "13- 13- 12- 13- 5- 12- 13- 13- 12- 5- 13- 12- 13- 13-",
        "15- 14+ 15- 12+ 15- 14+ 15- 8+ 15- 14+ 15- 12+ 15- 14+ 15-",
        "16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16-",
        "16+ 14- 12+ 14- 16+ 6- 16+ 14- 9+ 14- 16+ 6- 16+ 14- 12+ 14- 16+",
    ),
    (3, 2): (
        "1-",
        "1+ 1+",
        "3- 2+ 3-",
        "4+ 4+ 4+ 4+",
        "4- 2- 3- 2- 4-",
        "6+ 6+ 6+ 6+ 6+ 6+",
        "7- 6+ 7- 4+ 7- 6+ 7-",
        "7+ 7+ 3+ 7+ 7+ 3+ 7+ 7+",
        "9- 8+ 9- 8+ 5- 8+ 9- 8+ 9-",
        "10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+",
        "10- 8- 9- 4- 10- 6+ 10- 4- 9- 8- 10-",
        "12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+",
        "13- 12+ 13- 12+ 13- 12+ 7- 12+ 13- 12+ 13- 12+ 13-",
        "13+ 13+ 12+ 13+ 5+ 12+ 13+ 13+ 12+ 5+ 13+ 12+ 13+ 13+",
        "15- 14+ 15- 12+ 15- 14+ 15- 8+ 15- 14+ 15- 12+ 15- 14+ 15-",
        "16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+",
        "16- 14- 12- 14- 16- 6- 16- 14- 9- 14- 16- 6- 16- 14- 12- 14- 16-",
    ),
    (5, 1): (
        "1-",
        "2- 2-",
        "3+ 2+ 3+",
        "3- 3- 3- 3-",
        "5+ 4+ 3- 4+ 5+",
        "6- 6- 6- 6- 6- 6-",
        "7- 6+ 7- 4+ 7- 6+ 7-",
        "8+ 8+ 6- 8+ 8+ 6- 8+ 8+",
        "8- 6- 8- 6- 5- 6- 8- 6- 8-",
        "10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+",
        "11- 10+ 9+ 8+ 11- 6+ 11- 8+ 9+ 10+ 11-",
        "12- 12- 12- 12- 12- 12- 12- 12- 12- 12- 12- 12-",
        "13+ 12+ 13+ 12+ 13+ 12+ 7- 12+ 13+ 12+ 13+ 12+ 13+",
        "13- 13- 9- 13- 10- 9- 13- 13- 9- 10- 13- 9- 13- 13-",
        "15+ 14+ 15+ 12+ 15+ 14+ 15+ 8+ 15+ 14+ 15+ 12+ 15+ 14+ 15+",
        "16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16-",
        "17- 16+ 15+ 16+ 17- 12+ 17- 16+ 9- 16+ 17- 12+ 17- 16+ 15+ 16+ 17-",
    ),
    (5, 2): (
        "1-",
        "2+ 2+",
        "3- 2+ 3-",
        "3+ 3+ 3+ 3+",
        "5- 4+ 3- 4+ 5-",
        "6+ 6+ 6+ 6+ 6+ 6+",
        "7- 6+ 7- 4+ 7- 6+ 7-",
        "8+ 8+ 6+ 8+ 8+ 6+ 8+ 8+",
        "8- 6- 8- 6- 5- 6- 8- 6- 8-",
        "10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+",
        "11- 10+ 9- 8+ 11- 6+ 11- 8+ 9- 10+ 11-",
        "12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+",
        "13- 12+ 13- 12+ 13- 12+ 7- 12+ 13- 12+ 13- 12+ 13-",
        "13+ 13+ 9+ 13+ 10+ 9+ 13+ 13+ 9+ 10+ 13+ 9+ 13+ 13+",
        "15- 14+ 15- 12+ 15- 14+ 15- 8+ 15- 14+ 15- 12+ 15- 14+ 15-",
        "16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+",
        "17- 16+ 15- 16+ 17- 12+ 17- 16+ 9- 16+ 17- 12+ 17- 16+ 15- 16+ 17-",
    ),
    (7, 1): (
        "1+",
        "2- 2-",
        "3+ 2+ 3+",
        "4- 4- 4- 4-",
        "5- 4+ 3+ 4+ 5-",
        "5+ 5+ 5+ 5+ 5+ 5+",
        "7+ 6+ 7+ 4+ 7+ 6+ 7+",
        "8+ 8+ 6- 8+ 8+ 6- 8+ 8+",
        "9- 8+ 9- 8+ 5+ 8+ 9- 8+ 9-",
        "10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+",
        "11- 10+ 9+ 8+ 11- 6+ 11- 8+ 9+ 10+ 11-",
        "12- 12- 12- 12- 12- 12- 12- 12- 12- 12- 12- 12-",
        "12+ 10- 12+ 10- 12+ 10- 7+ 10- 12+ 10- 12+ 10- 12+",
        "14+ 14+ 12- 14+ 10- 12- 14+ 14+ 12- 10- 14+ 12- 14+ 14+",
        "15+ 14+ 15+ 12+ 15+ 14+ 15+ 8+ 15+ 14+ 15+ 12+ 15+ 14+ 15+",
        "16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16-",
        "17+ 16+ 15- 16+ 17+ 12+ 17+ 16+ 9+ 16+ 17+ 12+ 17+ 16+ 15- 16+ 17+",
    ),
    (7, 2): (
        "1-",
        "2+ 2+",
        "3- 2+ 3-",
        "4+ 4+ 4+ 4+",
        "5- 4+ 3- 4+ 5-",
        "5+ 5+ 5+ 5+ 5+ 5+",
        "7- 6+ 7- 4+ 7- 6+ 7-",
        "8+ 8+ 6+ 8+ 8+ 6+ 8+ 8+",
        "9- 8+ 9- 8+ 5- 8+ 9- 8+ 9-",
        "10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+",
        "11- 10+ 9- 8+ 11- 6+ 11- 8+ 9- 10+ 11-",
        "12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+",
        "12- 10- 12- 10- 12- 10- 7- 10- 12- 10- 12- 10- 12-",
        "14+ 14+ 12+ 14+ 10+ 12+ 14+ 14+ 12+ 10+ 14+ 12+ 14+ 14+",
        "15- 14+ 15- 12+ 15- 14+ 15- 8+ 15- 14+ 15- 12+ 15- 14+ 15-",
        "16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+",
        "17- 16+ 15- 16+ 17- 12+ 17- 16+ 9- 16+ 17- 12+ 17- 16+ 15- 16+ 17-",
    ),
    (11, 1): (
        "1+",
        "2+ 2+",
        "3- 2+ 3-",
        "4+ 4+ 4+ 4+",
        "5+ 4+ 3+ 4+ 5+",
        "6- 6- 6- 6- 6- 6-",
        "7+ 6+ 7+ 4+ 7+ 6+ 7+",
        "8+ 8+ 6+ 8+ 8+ 6+ 8+ 8+",
        "9+ 8+ 9+ 8+ 5+ 8+ 9+ 8+ 9+",
        "9- 9- 9- 9- 9- 9- 9- 9- 9- 9-",
        "11- 10+ 9- 8+ 11- 6+ 11- 8+ 9- 10+ 11-",
        "12- 12- 12- 12- 12- 12- 12- 12- 12- 12- 12- 12-",
        "13- 12+ 13- 12+ 13- 12+ 7+ 12+ 13- 12+ 13- 12+ 13-",
        "14+ 14+ 12+ 14+ 10+ 12+ 14+ 14+ 12+ 10+ 14+ 12+ 14+ 14+",
        "15- 14+ 15- 12+ 15- 14+ 15- 8+ 15- 14+ 15- 12+ 15- 14+ 15-",
        "16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16- 16-",
        "17+ 16+ 15+ 16+ 17+ 12+ 17+ 16+ 9+ 16+ 17+ 12+ 17+ 16+ 15+ 16+ 17+",
    ),
    (11, 2): (
        "1-",
        "2+ 2+",
        "3- 2+ 3-",
        "4+ 4+ 4+ 4+",
        "5- 4+ 3- 4+ 5-",
        "6+ 6+ 6+ 6+ 6+ 6+",
        "7- 6+ 7- 4+ 7- 6+ 7-",
        "8+ 8+ 6+ 8+ 8+ 6+ 8+ 8+",
        "9- 8+ 9- 8+ 5- 8+ 9- 8+ 9-",
        "9+ 9+ 9+ 9+ 9+ 9+ 9+ 9+ 9+ 9+",
        "11- 10+ 9- 8+ 11- 6+ 11- 8+ 9- 10+ 11-",
        "12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+ 12+",
        "13- 12+ 13- 12+ 13- 12+ 7- 12+ 13- 12+ 13- 12+ 13-",
        "14+ 14+ 12+ 14+ 10+ 12+ 14+ 14+ 12+ 10+ 14+ 12+ 14+ 14+",
        "15- 14+ 15- 12+ 15- 14+ 15- 8+ 15- 14+ 15- 12+ 15- 14+ 15-",
        "16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+",
        "17- 16+ 15- 16+ 17- 12+ 17- 16+ 9- 16+ 17- 12+ 17- 16+ 15- 16+ 17-",
    ),
    (13, 1): (
        "1-",
        "2+ 2+",
        "3+ 2+ 3+",
        "4- 4- 4- 4-",
        "5- 4+ 3- 4+ 5-",
        "6- 6- 6- 6- 6- 6-",
        "7- 6+ 7- 4+ 7- 6+ 7-",
        "8+ 8+ 6+ 8+ 8+ 6+ 8+ 8+",
        "9+ 8+ 9+ 8+ 5- 8+ 9+ 8+ 9+",
        "10- 10- 10- 10- 10- 10- 10- 10- 10- 10-",
        "11+ 10+ 9+ 8+ 11+ 6+ 11+ 8+ 9+ 10+ 11+",
        "11- 11- 11- 11- 11- 11- 11- 11- 11- 11- 11- 11-",
        "13+ 12+ 13+ 12+ 13+ 12+ 7- 12+ 13+ 12+ 13+ 12+ 13+",
        "14- 14- 12- 14- 10+ 12- 14- 14- 12- 10+ 14- 12- 14- 14-",
        "15+ 14+ 15+ 12+ 15+ 14+ 15+ 8+ 15+ 14+ 15+ 12+ 15+ 14+ 15+",
        "16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+",
        "17- 16+ 15- 16+ 17- 12+ 17- 16+ 9- 16+ 17- 12+ 17- 16+ 15- 16+ 17-",
    ),
    (13, 2): (
        "1-",
        "2+ 2+",
        "3- 2+ 3-",
        "4+ 4+ 4+ 4+",
        "5- 4+ 3- 4+ 5-",
        "6+ 6+ 6+ 6+ 6+ 6+",
        "7- 6+ 7- 4+ 7- 6+ 7-",
        "8+ 8+ 6+ 8+ 8+ 6+ 8+ 8+",
        "9- 8+ 9- 8+ 5- 8+ 9- 8+ 9-",
        "10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+ 10+",
        "11- 10+ 9- 8+ 11- 6+ 11- 8+ 9- 10+ 11-",
        "11+ 11+ 11+ 11+ 11+ 11+ 11+ 11+ 11+ 11+ 11+ 11+",
        "13- 12+ 13- 12+ 13- 12+ 7- 12+ 13- 12+ 13- 12+ 13-",
        "14+ 14+ 12+ 14+ 10+ 12+ 14+ 14+ 12+ 10+ 14+ 12+ 14+ 14+",
        "15- 14+ 15- 12+ 15- 14+ 15- 8+ 15- 14+ 15- 12+ 15- 14+ 15-",
        "16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+ 16+",
        "17- 16+ 15- 16+ 17- 12+ 17- 16+ 9- 16+ 17- 12+ 17- 16+ 15- 16+ 17-",
    ),
}


def test_predict_rank_char_golden():
    for (p, s), rows in PREDICT_GOLDEN.items():
        for n, row in enumerate(rows, start=2):
            got = " ".join(f"{r.rank}{'+' if r.character == 1 else '-'}"
                           for r in (predict_rank_char(p, s, n, i) for i in range(1, n)))
            assert got == row, (p, s, n)


# p | l cases past PREDICT_GOLDEN's p <= 13: odd n with p = 1 (mod 8) carries
# the (-1)^(n+1) prefactor fixed by experiment, and (5,2,10) is the first
# witness of n and s even, p = 1 (mod 4) and chi(delta) = -1; no count oracle
# reaches these q^n, so the Gram matrix of the literal definition checks them
@pytest.mark.parametrize("p,s,n,i", [(17, 1, 17, 1), (17, 1, 17, 5), (17, 1, 17, 16),
                                     (41, 1, 41, 1), (17, 1, 34, 2), (5, 2, 10, 1),
                                     (5, 2, 10, 2)])
def test_multiple_branch_signs_beyond_p13(p, s, n, i):
    t = build_tower(p, s, n)
    rank, char = rank_and_char(t, build_gram(t, polynomial_basis(t), i, 1))
    pred = predict_rank_char(p, s, n, i)
    assert (rank, char) == (pred.rank, pred.character)
    for lam in (t.zero, (0, 1) + (0,) * (n - 2)):
        spec = CurveSpec(t, i, lam)
        want = t.q * count_qf_solutions(t, n, n - rank, char, spec.trace_lambda)
        assert count_curve(spec).closed_form == want


def _curve_sign_cases():
    """Every sign case of the curve count over p <= 23, s <= 3, n <= 60,
    with its smallest witness (q^n, p, s, n, i, Tr lambda).  A case is
    (branch, n mod 2, d mod 2, p mod 4, s mod 2, chi(delta), R mod 2, Tr
    lambda class), the class being 0 or not for even R, and 0, a square or
    a non-square for odd R, where the count reads chi(Tr lambda)."""
    cases = {}
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for s in (1, 2, 3):
            f = build_tower(p, s, 1)  # term_invariants reads only F_q
            q = p ** s
            least = {}  # chi -> the least code with that character
            for c in range(q - 1, 0, -1):
                least[f.quadratic_character(c)] = c
            for n in range(2, 61):
                for i in range(1, n):
                    d, l, rank, sign, arg = term_invariants(f, n, 1, i)
                    head = ("multiple" if l % p == 0 else "coprime", n % 2, d % 2, p % 4,
                            s % 2, sign * f.quadratic_character(arg), rank % 2)
                    traces = ((0, 0), ("square", least[1]), ("non-square", least[-1])) \
                        if rank % 2 else ((0, 0), ("nonzero", 1))
                    for kind, c in traces:
                        witness = (q ** n, p, s, n, i, c)
                        cases[head + (kind,)] = min(cases.get(head + (kind,), witness), witness)
    return cases


def _lambda_of_trace(t, c):
    """An element of F_{q^n} with trace c: a monomial of nonzero trace,
    scaled."""
    if c == 0:
        return t.zero
    for u in range(t.n):
        monomial = tuple(int(j == u) for j in range(t.n))
        tr = t.trace(monomial)
        if tr:
            return tuple(t.bmul(c, t.binv(tr)) if j == u else 0 for j in range(t.n))


GRAM_MAX_N = 20  # build_gram makes n^2 products and traces


def test_every_curve_sign_case_has_an_independent_witness():
    # the smallest witness of each case is counted by the histogram oracle
    # where q^n allows, and otherwise by the Gram matrix of the literal
    # definition, whose rank and character must give the case's own
    cases = _curve_sign_cases()
    by_oracle, by_gram, out_of_reach = [], [], []
    for case, (size, p, s, n, i, c) in sorted(cases.items(), key=lambda kv: kv[1]):
        if size > DEFAULT_LIMIT and n > GRAM_MAX_N:
            out_of_reach.append(case)
            continue
        t = build_tower(p, s, n)
        spec = CurveSpec(t, i, _lambda_of_trace(t, c))
        assert spec.trace_lambda == c
        rep = count_curve(spec)
        assert rep.branch == case[0] + ("-odd" if case[6] else "-even"), case
        if size <= DEFAULT_LIMIT:
            assert rep.closed_form == oracle_curve(spec), (case, p, s, n, i)
            by_oracle.append(case)
            continue
        rank, char = rank_and_char(t, build_gram(t, polynomial_basis(t), i, 1))
        assert (rank % 2, char) == (case[6], case[5]), (case, p, s, n, i)
        assert rep.closed_form == t.q * count_qf_solutions(t, n, n - rank, char, c), case
        by_gram.append(case)
    print(f"curve sign cases: {len(cases)}, {len(by_oracle)} by the histogram oracle, "
          f"{len(by_gram)} by the Gram matrix, {len(out_of_reach)} without a witness")
    assert not out_of_reach


# ---------------------------------------------------------- special basis


def test_find_special_basis():
    t = build_tower(3, 1, 3)
    basis = find_special_basis(t)
    assert len(basis) == 3
    assert fq_matrix_rank(t, [list(b) for b in basis]) == 3
    beta = basis[-2]
    assert any(c != 0 for c in beta[1:])  # not in F_q
    lhs = t.xsub(t.xadd(t.frobenius(beta, 1), t.frobenius(beta, t.n - 1)),
                 t.xscale(t.base_from_int(2), beta))
    assert lhs == t.zero
    diff = t.xsub(t.frobenius(beta, 1), beta)
    assert all(c == 0 for c in diff[1:])  # beta^q - beta in F_q
    assert basis[-1] == t.one


def test_find_special_basis_requires_p_divides_n():
    with pytest.raises(ValueError, match="hypothesis violated"):
        find_special_basis(build_tower(3, 1, 2))


def test_find_special_basis_larger_tower():
    t = build_tower(3, 1, 6)
    basis = find_special_basis(t)
    beta = basis[-2]
    lhs = t.xsub(t.xadd(t.frobenius(beta, 1), t.frobenius(beta, t.n - 1)),
                 t.xscale(t.base_from_int(2), beta))
    assert lhs == t.zero


def _greedy_special_basis(t, beta):
    """The basis completed by monomials one at a time, each kept when it
    raises the rank of the vectors kept so far: one rank per monomial."""
    basis = [beta, t.one]
    for k in range(t.n):
        mono = tuple(1 if j == k else 0 for j in range(t.n))
        if fq_matrix_rank(t, [list(b) for b in basis] + [list(mono)]) > len(basis):
            basis.append(mono)
        if len(basis) == t.n:
            break
    return basis[2:] + [beta, t.one]


@pytest.mark.parametrize("psn", [(p, s, n) for p in (3, 5, 7) for s in (1, 2)
                                 for n in range(p, 16, p)])
def test_find_special_basis_matches_greedy_rank_loop(psn):
    t = build_tower(*psn)
    basis = find_special_basis(t)
    assert basis == _greedy_special_basis(t, basis[-2])
    assert fq_matrix_rank(t, [list(b) for b in basis]) == t.n


# ------------------------------------------------------------ fiber sizes


def test_count_qf_solutions_examples():
    t = build_tower(3, 1, 2)
    assert count_qf_solutions(t, 2, 1, 1, 0) == 3
    assert count_qf_solutions(t, 2, 1, 1, 1) == 6


def test_count_qf_solutions_refuses_alpha_outside_fq():
    # such an alpha was read mod p, or indexed past the F_q tables
    for (p, s), alphas in [((3, 1), (-1, 3, 4)), ((3, 2), (-1, 9))]:
        t = build_tower(p, s, 1)
        for v in (0, 1):  # n + v odd and even
            for alpha in alphas:
                with pytest.raises(ValueError, match="not in 0..q-1"):
                    count_qf_solutions(t, 3, v, 1, alpha)


def test_count_qf_solutions_partition():
    for p, s, n in [(3, 1, 2), (3, 1, 5), (5, 1, 3), (3, 2, 2)]:
        t = build_tower(p, s, n)
        for v in range(n + 1):
            for dchar in (-1, 1):
                total = sum(count_qf_solutions(t, n, v, dchar, a)
                            for a in range(t.q))
                assert total == t.q ** n, (p, s, n, v, dchar)


def test_count_qf_solutions_matches_histogram():
    for p, s, n in [(3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 2)]:
        t = build_tower(p, s, n)
        for i in range(1, n):
            rank, char = rank_and_char(t, build_gram(t, polynomial_basis(t), i, 1))
            hist = qf_histogram(t, i, 1)
            v = n - rank
            for alpha in range(t.q):
                assert hist[alpha] == count_qf_solutions(t, n, v, char, alpha)


# -------------------------------------------------------------- char sums


def test_char_sum_closed_form_examples():
    t = build_tower(3, 1, 2)
    val = char_sum_closed_form(t, [[0, 0], [0, 1]])
    assert (val.i_exponent, val.half_power_of_q) == (1, 3)
    assert abs(val.to_complex(3) - 1j * 3 ** 1.5) < 1e-12
    zero = char_sum_closed_form(t, [[0, 0], [0, 0]])
    assert (zero.i_exponent, zero.half_power_of_q) == (0, 4)


def test_char_sum_real_when_tau_trivial():
    # p = 1 mod 4 makes tau = 1, so every unit is real
    t = build_tower(5, 1, 2)
    rng = random.Random(41)
    for _ in range(20):
        H = _random_symmetric(t, rng, 2)
        assert char_sum_closed_form(t, H).i_exponent % 2 == 0
    assert tau_power(5, 3) == 0


def test_char_sum_matches_numeric_spot():
    rng = random.Random(43)
    for p, s, n in [(3, 1, 2), (3, 1, 3), (5, 1, 2)]:
        t = build_tower(p, s, n)
        for _ in range(6):
            H = _random_symmetric(t, rng, n)
            want = char_sum_numeric(t, H)
            got = char_sum_closed_form(t, H).to_complex(t.q)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


# ------------------------------------------------------- trace gram parity


def test_trace_gram_character_parity_spot():
    # chi(det Tr(b_j b_l)) = +1 for odd n, -1 for even n
    rng = random.Random(47)
    for p, s, n in [(3, 1, 2), (3, 1, 3), (5, 1, 4), (3, 2, 3)]:
        t = build_tower(p, s, n)
        for basis in (polynomial_basis(t), random_basis(t, rng)):
            g = [[t.trace(t.xmul(bj, bl)) for bl in basis] for bj in basis]
            rank, char = rank_and_char(t, g)
            assert rank == n
            assert char == (1 if n % 2 else -1)
