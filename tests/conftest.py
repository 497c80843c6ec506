"""Shared grid definitions and basis helpers for the test suite."""

import random

import pytest

from artinschreier.fields import build_tower
from artinschreier.quadforms import fq_matrix_rank


@pytest.fixture(autouse=True)
def fresh_fiber_cache(monkeypatch):
    """Every test starts with an empty oracle fiber cache and an empty
    counting profile cache, so whether a call is the first for its terms does
    not depend on which tests ran before it.  The histogram cache is kept
    across tests."""
    from artinschreier import counting, oracle
    monkeypatch.setattr(oracle, "_FIBER_CACHE", {})
    monkeypatch.setattr(counting, "_PROFILES", {})


# (p, s) pairs of the verification grid; towers are the n >= 2 extensions
# with q^n below the stated bound.
GRID_PS = ((3, 1), (3, 2), (5, 1), (7, 1))


def grid_towers(bound=10 ** 6):
    """All (p, s, n) with n >= 2 and q^n <= bound, in deterministic order."""
    out = []
    for p, s in GRID_PS:
        q = p ** s
        n = 2
        while q ** n <= bound:
            out.append((p, s, n))
            n += 1
    return out


def polynomial_basis(tower):
    return [tuple(1 if j == k else 0 for j in range(tower.n))
            for k in range(tower.n)]


def random_basis(tower, rng: random.Random):
    """Uniformly drawn elements, rejected until F_q-linearly independent."""
    while True:
        cand = [tower.random_element(rng) for _ in range(tower.n)]
        if fq_matrix_rank(tower, [list(b) for b in cand]) == tower.n:
            return cand


def random_terms(tower, rng: random.Random, r: int):
    return tuple((rng.randrange(1, tower.q), rng.randrange(1, tower.n))
                 for _ in range(r))


def zero_trace_element(tower, rng: random.Random):
    """x^q - x has trace zero; every trace-zero element arises this way."""
    w = tower.random_element(rng)
    return tower.xsub(tower.frobenius(w, 1), w)
