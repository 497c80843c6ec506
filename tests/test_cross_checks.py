"""The library's internal cross-checks are explicit raises, so they stay on
under ``python -O``, which strips assert statements and ``if __debug__``."""

import ast
import glob
import os
import subprocess
import sys

import artinschreier

SRC = os.path.dirname(artinschreier.__file__)

WRONG_LABEL_RUNS = """
import sys
from artinschreier import counting
from artinschreier.fields import build_tower
print(sys.flags.optimize)
t = build_tower(3, 1, 6)
real = counting._attainment
def wrong(spec):
    *conditions, end = real(spec)
    return (*conditions, None if end else (0, 1, 1, 1))
counting._attainment = wrong
for spec, count in ((counting.CurveSpec(t, 1, t.zero), counting.count_curve),
                    (counting.HypersurfaceSpec(t, ((1, 1), (2, 2)), t.zero),
                     counting.count_hypersurface)):
    try:
        count(spec)
    except RuntimeError as exc:
        print(exc)
    else:
        print("no error")
"""


def _run_optimized(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)


def test_disagreeing_classification_raises_under_O():
    proc = _run_optimized(WRONG_LABEL_RUNS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1"] + ["condition bundle disagrees with bounds"] * 2


def test_sources_hold_no_assert_and_no_debug_guard():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert len(paths) >= 6
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert "__debug__" not in text, path
        asserts = [node.lineno for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.Assert)]
        assert asserts == [], (path, asserts)


FLIPPED_TERM_SIGN_RUN = """
import sys
from artinschreier import counting
from artinschreier.fields import build_tower
print(sys.flags.optimize)
shared = counting.term_invariants
def flipped(t, n, a, i):
    d, l, rank, sign, chi_arg = shared(t, n, a, i)
    return d, l, rank, -sign, chi_arg
counting.term_invariants = flipped
t = build_tower(3, 1, 6)
try:
    counting.count_curve(counting.CurveSpec(t, 1, t.zero))
except RuntimeError as exc:
    print(exc)
else:
    print("no error")
"""


def test_flipped_term_sign_is_caught_under_O():
    # the count and the classifiers share term_invariants, but the classifier
    # states the attained end's sign prefactor itself: a wrong sign in the
    # shared function moves the q = 3, n = 6, i = 1 count (891, Maximal) to
    # the other bound, and the cross-check must see it
    proc = _run_optimized(FLIPPED_TERM_SIGN_RUN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", "condition bundle disagrees with bounds"]
