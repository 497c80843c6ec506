"""Value semantics of the seven record types: construction,
equality, hashing, immutability, repr, copying and the spec validation."""

import copy
import pickle

import pytest

from artinschreier.counting import (CountReport, CurveSpec, HypersurfaceSpec,
                                    WeilBounds)
from artinschreier.fields import build_tower
from artinschreier.quadforms import (DiagonalizationResult, ExactValue,
                                     RankCharPrediction)

T = build_tower(3, 1, 4)
LAM = (1, 0, 2, 0)

# (class, positional field values, the same as keywords); each record is
# built twice so equality is never identity
CASES = [
    (CurveSpec, (T, 1, LAM), dict(tower=T, i=1, lam=LAM)),
    (HypersurfaceSpec, (T, ((1, 1), (2, 3)), LAM),
     dict(tower=T, terms=((1, 1), (2, 3)), lam=LAM)),
    (WeilBounds, (65, 97, False), dict(lower=65, upper=97, half_integral=False)),
    (CountReport, (81, 0, 65, 97, "Neither", "coprime-odd", False),
     dict(closed_form=81, trace_lambda=0, bound_lower=65, bound_upper=97,
          classification="Neither", branch="coprime-odd",
          half_integral_bound=False)),
    (DiagonalizationResult, ([[1, 0], [0, 1]], [2, 0], 1),
     dict(transform=[[1, 0], [0, 1]], diagonal=[2, 0], rank=1)),
    (ExactValue, (2, 5), dict(i_exponent=2, half_power_of_q=5)),
    (RankCharPrediction, (3, -1), dict(rank=3, character=-1)),
]

IDS = [case[0].__name__ for case in CASES]

# one field changed from the values in CASES
DIFFERENT = {
    CurveSpec: (T, 2, LAM),
    HypersurfaceSpec: (T, ((1, 1),), LAM),
    WeilBounds: (65, 97, True),
    CountReport: (81, 0, 65, 97, "Neither", "coprime-odd", True),
    DiagonalizationResult: ([[1, 0], [0, 1]], [2, 1], 2),
    ExactValue: (2, 6),
    RankCharPrediction: (3, 1),
}


@pytest.mark.parametrize("cls,args,kwargs", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    for name, value in kwargs.items():
        assert getattr(a, name) == value
        assert getattr(b, name) == value


# a field missing, one too many, or one given both by position and by keyword
@pytest.mark.parametrize("args,kwargs", [
    ((65, 97), {}), ((65, 97, False, 1), {}), ((65,), dict(upper=97)),
    ((), dict(lower=65, upper=97, half_integral=False, other=1)),
    ((65,), dict(lower=65, upper=97, half_integral=False)),
])
def test_wrong_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        WeilBounds(*args, **kwargs)


@pytest.mark.parametrize("cls,args,kwargs", CASES, ids=IDS)
def test_equality_is_by_value_and_class(cls, args, kwargs):
    rec = cls(*args)
    assert rec == cls(*args)
    assert rec != cls(*DIFFERENT[cls])
    assert rec != tuple(args)
    for other_cls, other_args, _ in CASES:
        if other_cls is not cls:
            assert rec != other_cls(*other_args)


@pytest.mark.parametrize("cls,args,kwargs", CASES, ids=IDS)
def test_hash_follows_equality(cls, args, kwargs):
    if cls is DiagonalizationResult:
        with pytest.raises(TypeError):
            hash(cls(*args))  # its list fields stay unhashable
        return
    assert hash(cls(*args)) == hash(cls(**kwargs))
    assert len({cls(*args), cls(**kwargs)}) == 1


@pytest.mark.parametrize("cls,args,kwargs", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, args, kwargs):
    rec = cls(*args)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) == value
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("cls,args,kwargs", CASES, ids=IDS)
def test_repr_lists_fields_in_order(cls, args, kwargs):
    body = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(*args)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls,args,kwargs", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, args, kwargs):
    rec = cls(*args)
    assert copy.copy(rec) == rec
    if cls not in (CurveSpec, HypersurfaceSpec):  # a tower equals only itself
        assert copy.deepcopy(rec) == rec
        assert pickle.loads(pickle.dumps(rec)) == rec


def test_hypersurface_r():
    assert HypersurfaceSpec(T, ((1, 1), (2, 3), (1, 2)), LAM).r == 3


@pytest.mark.parametrize("build,message", [
    (lambda: CurveSpec(T, 0, LAM), "need 0 < i < n, got i=0, n=4"),
    (lambda: CurveSpec(T, 4, LAM), "need 0 < i < n, got i=4, n=4"),
    (lambda: CurveSpec(T, 1, LAM[:3]), "lambda has the wrong number of coefficients"),
    (lambda: HypersurfaceSpec(T, (), LAM), "need at least one term"),
    (lambda: HypersurfaceSpec(T, ((0, 1),), LAM), "coefficient a=0 is not in F_q*"),
    (lambda: HypersurfaceSpec(T, ((3, 1),), LAM), "coefficient a=3 is not in F_q*"),
    (lambda: HypersurfaceSpec(T, ((1, 1), (2, 4)), LAM),
     "need 0 < i_j < n, got i_j=4, n=4"),
    (lambda: HypersurfaceSpec(T, ((1, 1),), LAM + (0,)),
     "lambda has the wrong number of coefficients"),
    (lambda: CurveSpec(T, 1, (3, 0, 0, 0)), "lambda coefficient 3 is not in 0..q-1 = 0..2"),
    (lambda: CurveSpec(T, 1, (0, -1, 2, 0)), "lambda coefficient -1 is not in 0..q-1 = 0..2"),
    (lambda: HypersurfaceSpec(T, ((1, 1),), (0, 0, 0, 3)),
     "lambda coefficient 3 is not in 0..q-1 = 0..2"),
    (lambda: CurveSpec(build_tower(3, 2, 2), 1, (-1, 0)),
     "lambda coefficient -1 is not in 0..q-1 = 0..8"),
    (lambda: CurveSpec(build_tower(3, 2, 2), 1, (9, 0)),
     "lambda coefficient 9 is not in 0..q-1 = 0..8"),
    (lambda: HypersurfaceSpec(build_tower(3, 2, 2), ((1, 1), (8, 1)), (0, 9)),
     "lambda coefficient 9 is not in 0..q-1 = 0..8"),
])
def test_spec_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
