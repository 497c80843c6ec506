"""The closed-form commands load only what a count runs: no numpy, no
quadforms, no csv and no record generator; the oracles still load numpy."""

import os
import subprocess
import sys

import pytest

import artinschreier
from artinschreier import oracle

ALL_NAMES = [
    "FieldTower", "build_tower", "tau_power",
    "DiagonalizationResult", "ExactValue", "RankCharPrediction",
    "build_gram", "char_sum_closed_form",
    "congruence_diagonalize", "count_qf_solutions", "det_Mn_integer",
    "find_special_basis", "fq_matrix_rank", "predict_rank_char",
    "rank_and_char",
    "CountReport", "CurveSpec", "HypersurfaceSpec", "WeilBounds",
    "classify_curve", "classify_curve_detail", "classify_hypersurface",
    "classify_hypersurface_detail", "count_curve", "count_hypersurface", "eps",
    "weil_bounds",
    "DEFAULT_LIMIT", "EnumerationLimitError", "char_sum_numeric",
    "gauss_sum_numeric", "gauss_sum_reference", "oracle_curve",
    "oracle_direct", "oracle_hypersurface", "oracle_hypersurface_direct",
    "qf_histogram",
]

CLOSED_FORM_RUNS = """
import contextlib, io, sys
from artinschreier import cli
for argv in (["count-curve", "--p", "3", "--n", "6", "--i", "1"],
             ["count-hypersurface", "--p", "5", "--s", "2", "--n", "6", "--i", "1,2"],
             ["classify", "--p", "7", "--n", "4", "--i", "2", "--lambda", "1"],
             ["classify", "--p", "3", "--n", "4", "--i", "1,3", "--a", "1,2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
for name in ("numpy", "dataclasses", "inspect", "csv",
             "artinschreier.quadforms", "artinschreier.oracle"):
    print(name in sys.modules)
import artinschreier.oracle
print("numpy" in sys.modules)
"""


def test_closed_form_commands_do_not_load_numpy():
    src = os.path.dirname(os.path.dirname(artinschreier.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CLOSED_FORM_RUNS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 6 + ["True"]


def test_oracle_names_stay_reachable():
    from artinschreier import EnumerationLimitError, oracle_curve, qf_histogram
    assert artinschreier.__all__ == ALL_NAMES
    assert oracle_curve is oracle.oracle_curve
    assert qf_histogram is oracle.qf_histogram
    assert oracle.EnumerationLimitError is EnumerationLimitError
    assert oracle.EnumerationLimitError is artinschreier.EnumerationLimitError
    assert oracle.DEFAULT_LIMIT == artinschreier.DEFAULT_LIMIT
    for name in ALL_NAMES:
        assert getattr(artinschreier, name) is not None
    for name in ("build_Mni", "hypersurface_invariants"):
        with pytest.raises(AttributeError):
            getattr(artinschreier, name)
    from artinschreier import quadforms
    shared = [name for name in ALL_NAMES if hasattr(quadforms, name)]
    assert "ExactValue" in shared and "rank_and_char" in shared
    for name in shared:
        assert getattr(artinschreier, name) is getattr(quadforms, name), name
