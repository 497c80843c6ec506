"""Seeded inputs for the three workloads.

Every generator takes the workload seed and returns plain data: tuples of
ints, lists of coefficient lists.  The library never sees the seed.  A run
repeats the same list of operations (a cycle) until its time is up, so every
operation is timed several times, at moments spread over the run.  The set
of towers and the number of operations of each kind are fixed; the seed
only picks exponents, coefficients, lambdas, bases and matrices.  That keeps
the cost of a cycle the same from seed to seed, so run-to-run spread
measures the host and the program, not the draw.

Only ``direct_cycle`` imports the library: drawing a random basis needs a
rank test over F_q, and that needs the tower.
"""

from __future__ import annotations

import random

WORKLOADS = ("closed-form-cli", "verify-sweep", "direct-crosscheck")

# (p, s) pairs of the verification grid used by the test suite
GRID_PS = ((3, 1), (3, 2), (5, 1), (7, 1))


def _rng(seed: int, *where) -> random.Random:
    return random.Random("/".join(str(w) for w in (seed,) + where))


def _towers(lo: int, hi: int) -> list:
    """Grid towers (p, s, n) with n >= 2 and lo <= q^n <= hi."""
    out = []
    for p, s in GRID_PS:
        q = p ** s
        n = 2
        while q ** n <= hi:
            if q ** n >= lo:
                out.append((p, s, n))
            n += 1
    return out


def _lam(rng: random.Random, q: int, n: int, zero_share: float = 0.25) -> list:
    if rng.random() < zero_share:
        return [0] * n
    return [rng.randrange(q) for _ in range(n)]


# ---------------------------------------------------------------- closed-form-cli
#
# One cycle is 21 CLI calls: 13 on towers whose build is a few ms, 3 on
# mid-sized towers, 3 on F_{3^30} and the two pinned witnesses.  Start-up
# and imports (about 0.2 s) dominate all of them except F_{3^30} (about
# 0.1 s more) and the q = 25, n = 30 minimal witness, whose tower build
# takes about a second.  So the median call is start-up, and the 90th
# percentile (the 19th of 21) is the middle of the three F_{3^30} calls;
# the mid-sized towers are kept below F_{3^30} (F_{3^24} costs about as
# much) so that no other call competes for that rank.  F_{3^60} (1.2 s) is
# left out: repeated in every cycle it would halve the repeats per call.

CLI_SMALL = ((3, 1, 8), (3, 1, 12), (5, 1, 6), (5, 1, 10), (7, 1, 6), (7, 1, 10),
             (11, 1, 6), (11, 1, 8), (13, 1, 6), (13, 1, 8), (3, 2, 6), (5, 2, 6),
             (7, 2, 6))
CLI_MEDIUM = ((3, 1, 16), (5, 1, 12), (3, 2, 10))
CLI_LARGE = ((3, 1, 30),) * 3

MAXIMAL_WITNESS = {"cmd": "count-curve", "p": 3, "s": 1, "n": 6, "i": [1], "a": None,
                   "lam": [0] * 6, "pin": {"closedForm": 891, "classification": "Maximal"}}
MINIMAL_WITNESS = {"cmd": "count-hypersurface", "p": 5, "s": 2, "n": 30, "i": [2, 3, 6],
                   "a": None, "lam": [0] * 30,
                   "pin": {"closedForm": 25 ** 90 - 24 * 25 ** 56, "classification": "Minimal"}}


def _cli_call(rng: random.Random, p: int, s: int, n: int) -> dict:
    q = p ** s
    roll = rng.random()
    cmd = "count-curve" if roll < 0.4 else "count-hypersurface" if roll < 0.7 else "classify"
    r = 1 if cmd == "count-curve" else rng.choice((1, 1, 2, 3))
    hyper = cmd == "count-hypersurface" or (cmd == "classify" and rng.random() < 0.5)
    i_list = [rng.randrange(1, n) for _ in range(r)]
    a_list = [rng.randrange(1, q) for _ in range(r)] if hyper else None
    return {"cmd": cmd, "p": p, "s": s, "n": n, "i": i_list, "a": a_list,
            "lam": _lam(rng, q, n), "pin": None}


def cli_cycle(seed: int, quick: bool = False) -> list:
    """The CLI calls of one cycle, in seeded order."""
    rng = _rng(seed, "cli")
    towers = CLI_SMALL[:3] if quick else CLI_SMALL + CLI_MEDIUM + CLI_LARGE
    calls = [_cli_call(rng, *t) for t in towers] + [dict(MAXIMAL_WITNESS)]
    if not quick:
        calls.append(dict(MINIMAL_WITNESS))
    rng.shuffle(calls)
    return calls


def cli_is_hyper(call: dict) -> bool:
    """Whether the CLI treats the call as a hypersurface (as cli._is_hyper does)."""
    return call["cmd"] == "count-hypersurface" or (
        call["cmd"] == "classify" and (call["a"] is not None or len(call["i"]) > 1))


def cli_argv(call: dict) -> list:
    """Command line for one call, as a user would type it after the program name."""
    argv = [call["cmd"], "--p", str(call["p"]), "--s", str(call["s"]), "--n", str(call["n"]),
            "--i", ",".join(str(i) for i in call["i"])]
    if call["a"] is not None:
        argv += ["--a", ",".join(str(a) for a in call["a"])]
    lam = call["lam"]
    argv += ["--lambda", ",".join(str(c) for c in lam) if any(lam) else "0"]
    return argv


# ---------------------------------------------------------------- verify-sweep
#
# One pass is one fresh worker process (empty tower and histogram caches, as
# in a sweep process; every pass runs the same specs in the same order, so
# the cache state of each spec is the same in every pass) that visits every grid tower with 10^4 <= q^n <= 10^6
# once.  Each visit is a block of 40 specs built on exactly two histogram
# keys (p, s, n, i, a): 24 curves on (i, 1) and 16 hypersurfaces with
# r = 1, 2, 3 on (i, 1) and (i', a').  So every block has 2 cache misses
# and 38 hits, whatever the seed.

VERIFY_TOWERS = _towers(10 ** 4, 10 ** 6)
VERIFY_TOWERS_QUICK = ((3, 1, 4), (5, 1, 3))
VERIFY_CURVES = 24
VERIFY_HYPER = ((1, 4), (2, 6), (3, 6))   # (r, specs) per block


def verify_pass(seed: int, quick: bool = False) -> list:
    """Specs of one sweep pass: ("curve", p, s, n, i, lam) and
    ("hyper", p, s, n, terms, lam) with terms a list of [a, i]."""
    specs = []
    for p, s, n in (VERIFY_TOWERS_QUICK if quick else VERIFY_TOWERS):
        rng = _rng(seed, "verify", p, s, n)
        q = p ** s
        i = rng.randrange(1, n)
        key1 = key2 = (1, i)
        while key2 == key1:
            key2 = (rng.randrange(1, q), rng.randrange(1, n))
        lams = [[0] * n] + [[int(j == u) for j in range(n)] for u in range(n)]
        lams += [_lam(rng, q, n, 0.0) for _ in range(VERIFY_CURVES - len(lams))]
        block = [("curve", p, s, n, i, lam) for lam in lams]
        for r, count in VERIFY_HYPER:
            for c in range(count):
                if r == 1:
                    terms = [key2]
                else:
                    terms = [key1, key2] + [rng.choice((key1, key2)) for _ in range(r - 2)]
                    rng.shuffle(terms)
                lam = [0] * n if c == 0 else _lam(rng, q, n, 0.0)
                block.append(("hyper", p, s, n, [list(t) for t in terms], lam))
        rng.shuffle(block)
        specs += block
    return specs


# ---------------------------------------------------------------- direct-crosscheck
#
# One cycle holds the Tier-1 hot spots of acceptance criteria 2, 3 and 6 on
# tiny towers, each against its counterpart:
#   gauss   all (p, s), p in {3,5,7,11,13}, s in {1,2}: numeric Gauss sum
#   dcurve  q^(2n) <= 10^5: oracle_direct against count_curve
#   dhyper  r = 2, 3 with q^(rn) <= 2*10^4: oracle_hypersurface_direct against
#           count_hypersurface.  The r = 2 scan of F_{3^5} (59049 tuples,
#           ~2.7 s) is left out so that no single spec dominates the cycle.
#   charsum q^n <= 10^4: char_sum_numeric against char_sum_closed_form
#   gram    build_gram + rank_and_char on a random basis against
#           predict_rank_char
# Per-operation costs span five decades, so a percentile that falls between
# two kinds of operation jumps with every small change in timing, and one
# that falls on a kind other than the scans that set the throughput drifts
# apart from it as the host's speed changes.  The cycle is therefore built
# around the literal hypersurface scan: 26 scans of 729 tuples (~22 ms) hold
# the median of the 67 operations and 8 scans of 6561 tuples over F_9
# (~0.15 s) the 90th percentile; the other kinds sit below the median.  The
# plateaus use one tower each because the same tuple count costs 1.5x more
# over F_3 than over F_9 in some host phases and not in others.

GAUSS_PS = tuple((p, s) for p in (3, 5, 7, 11, 13) for s in (1, 2))
DIRECT_CURVE_TOWERS = ((3, 1, 3), (3, 1, 4), (3, 2, 2), (5, 1, 2), (7, 1, 2))
DIRECT_HYPER = ([((3, 1, 2), 2), ((5, 1, 2), 2), ((7, 1, 2), 2), ((3, 1, 2), 3)]
                + [((3, 1, 3), 2)] * 26                        # the median plateau
                + [((3, 2, 2), 2)] * 8 + [((3, 1, 4), 2)]      # the p90 plateau
                + [((5, 1, 3), 2), ((3, 1, 3), 3), ((5, 1, 2), 3)])
CHARSUM_TOWERS = ((3, 1, 4), (3, 1, 6), (3, 2, 3), (5, 1, 3), (5, 1, 4), (7, 1, 3))
GRAM_TOWERS = ((3, 1, 2), (3, 1, 8), (5, 1, 7), (7, 1, 7))
QUICK_TOWERS = ((3, 1, 2), (3, 1, 3))


def direct_cycle(seed: int, quick: bool = False) -> list:
    """Specs of one cycle.  Builds the towers it draws bases in."""
    from artinschreier.fields import build_tower
    from artinschreier.quadforms import fq_matrix_rank

    rng = _rng(seed, "direct")

    def pick(towers):
        return QUICK_TOWERS if quick else towers

    specs = []
    for p, s in (GAUSS_PS[:2] if quick else GAUSS_PS):
        build_tower(p, s, 1)
        specs.append(("gauss", p, s))
    for p, s, n in pick(DIRECT_CURVE_TOWERS):
        specs.append(("dcurve", p, s, n, rng.randrange(1, n), _lam(rng, p ** s, n)))
    for (p, s, n), r in [(t, 2) for t in QUICK_TOWERS] if quick else DIRECT_HYPER:
        q = p ** s
        terms = [[rng.randrange(1, q), rng.randrange(1, n)] for _ in range(r)]
        specs.append(("dhyper", p, s, n, terms, _lam(rng, q, n)))
    for p, s, n in pick(CHARSUM_TOWERS):
        q = p ** s
        H = [[0] * n for _ in range(n)]
        for j in range(n):
            for l in range(j, n):
                H[j][l] = H[l][j] = rng.randrange(q)
        specs.append(("charsum", p, s, n, H))
    for p, s, n in pick(GRAM_TOWERS):
        t = build_tower(p, s, n)
        q = p ** s
        while True:
            basis = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            if fq_matrix_rank(t, basis) == n:
                break
        specs.append(("gram", p, s, n, rng.randrange(1, n), basis))
    rng.shuffle(specs)
    return specs


def generate(workload: str, seed: int, quick: bool = False) -> None:
    """The inputs a run of ``workload`` needs before its first operation
    (used to time set-up)."""
    if workload == "closed-form-cli":
        cli_cycle(seed, quick)
    elif workload == "verify-sweep":
        verify_pass(seed, quick)
    elif workload == "direct-crosscheck":
        direct_cycle(seed, quick)
    else:
        raise ValueError(f"unknown workload {workload!r}")
