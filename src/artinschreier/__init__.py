"""Exact point counts for Artin-Schreier curves and hypersurfaces.

Closed formulas for the number of affine rational points of

    y^q - y = x (x^(q^i) - x) - lambda                       over F_{q^n},
    y^q - y = sum_j a_j x_j (x_j^(q^i_j) - x_j) - lambda     over F_{q^n}^r x F_{q^n},

together with Weil-bound attainment classification, the quadratic-form
machinery behind the formulas, and oracles that verify every count
independently (trace-form fiber counts; a literal scan on tiny towers).
"""

from .counting import (CountReport, CurveSpec, HypersurfaceSpec, WeilBounds,
                       classify_curve, classify_curve_detail,
                       classify_hypersurface, classify_hypersurface_detail,
                       count_curve, count_hypersurface, count_qf_solutions, eps,
                       weil_bounds)
from .fields import (DEFAULT_LIMIT, EnumerationLimitError, FieldTower,
                     build_tower, tau_power)

__version__ = "0.1.0"

# the quadforms part of __all__; all but count_qf_solutions, which counting
# defines, are bound on first use by __getattr__ below, like the oracle names
_QUADFORMS_NAMES = (
    "DiagonalizationResult", "ExactValue", "RankCharPrediction",
    "build_gram", "char_sum_closed_form",
    "congruence_diagonalize", "count_qf_solutions", "det_Mn_integer",
    "find_special_basis", "fq_matrix_rank", "predict_rank_char",
    "rank_and_char",
)

__all__ = [
    "FieldTower", "build_tower", "tau_power",
    *_QUADFORMS_NAMES,
    "CountReport", "CurveSpec", "HypersurfaceSpec", "WeilBounds",
    "classify_curve", "classify_curve_detail", "classify_hypersurface",
    "classify_hypersurface_detail", "count_curve", "count_hypersurface", "eps",
    "weil_bounds",
    "DEFAULT_LIMIT", "EnumerationLimitError", "char_sum_numeric",
    "gauss_sum_numeric", "gauss_sum_reference", "oracle_curve",
    "oracle_direct", "oracle_hypersurface", "oracle_hypersurface_direct",
    "qf_histogram",
]


def __getattr__(name):
    # a closed-form count needs neither quadforms nor the oracles (which load
    # numpy), so the names of __all__ not bound above come from them on first use
    if name in _QUADFORMS_NAMES:
        from . import quadforms
        return getattr(quadforms, name)
    if name in __all__:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
