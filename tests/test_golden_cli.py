"""Golden CLI outputs: count-curve, count-hypersurface and classify must print
exactly these bytes (schemaVersion 1), so refactors of the counting core and
of tower construction cannot change what a user sees."""

import pytest

from artinschreier import cli

GOLDEN = [
    # coprime-odd
    ('count-curve --p 3 --n 2 --i 1 --lambda 2', '''\
{
  "schemaVersion": 1,
  "p": 3,
  "s": 1,
  "n": 2,
  "i": 1,
  "lambda": "2,0",
  "traceLambda": 1,
  "closedForm": 18,
  "boundLower": -9,
  "boundUpper": 27,
  "classification": "Neither",
  "branch": "coprime-odd",
  "halfIntegralBound": false
}
'''),
    # coprime-even
    ('count-curve --p 5 --n 3 --i 1 --lambda 0,1', '''\
{
  "schemaVersion": 1,
  "p": 5,
  "s": 1,
  "n": 3,
  "i": 1,
  "lambda": "0,1,0",
  "traceLambda": 4,
  "closedForm": 150,
  "boundLower": -98,
  "boundUpper": 348,
  "classification": "Neither",
  "branch": "coprime-even",
  "halfIntegralBound": true
}
'''),
    # multiple-odd
    ('count-curve --p 3 --n 3 --i 1 --lambda 1', '''\
{
  "schemaVersion": 1,
  "p": 3,
  "s": 1,
  "n": 3,
  "i": 1,
  "lambda": "1,0,0",
  "traceLambda": 0,
  "closedForm": 27,
  "boundLower": -4,
  "boundUpper": 58,
  "classification": "Neither",
  "branch": "multiple-odd",
  "halfIntegralBound": true
}
'''),
    # multiple-even, witness 891
    ('count-curve --p 3 --n 6 --i 1', '''\
{
  "schemaVersion": 1,
  "p": 3,
  "s": 1,
  "n": 6,
  "i": 1,
  "lambda": "0,0,0,0,0,0",
  "traceLambda": 0,
  "closedForm": 891,
  "boundLower": 567,
  "boundUpper": 891,
  "classification": "Maximal",
  "branch": "multiple-even",
  "halfIntegralBound": false
}
'''),
    # multiple-even, s = 2
    ('count-curve --p 3 --s 2 --n 6 --i 2 --lambda 5,0,7', '''\
{
  "schemaVersion": 1,
  "p": 3,
  "s": 2,
  "n": 6,
  "i": 2,
  "lambda": "5,0,7,0,0,0",
  "traceLambda": 0,
  "closedForm": 59049,
  "boundLower": 59049,
  "boundUpper": 1003833,
  "classification": "Minimal",
  "branch": "multiple-even",
  "halfIntegralBound": false
}
'''),
    # F_{3^30}, lambda against the least modulus
    ('count-curve --p 3 --n 30 --i 4 --lambda 0,1,0,2', '''\
{
  "schemaVersion": 1,
  "p": 3,
  "s": 1,
  "n": 30,
  "i": 4,
  "lambda": "0,1,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
  "traceLambda": 0,
  "closedForm": 205891390374975,
  "boundLower": 205888807571715,
  "boundUpper": 205893456617583,
  "classification": "Neither",
  "branch": "multiple-even",
  "halfIntegralBound": false
}
'''),
    # r = 2, odd
    ('count-hypersurface --p 7 --n 4 --i 1,2 --a 3,5 --lambda 1,2,3', '''\
{
  "schemaVersion": 1,
  "p": 7,
  "s": 1,
  "n": 4,
  "iList": "1,2",
  "aList": "3,5",
  "lambda": "1,2,3,0",
  "traceLambda": 5,
  "closedForm": 5882450,
  "boundLower": 823543,
  "boundUpper": 10706059,
  "classification": "Neither",
  "branch": "odd",
  "halfIntegralBound": false
}
'''),
    # r = 3, witness 25^90 - 24*25^56
    ('count-hypersurface --p 5 --s 2 --n 30 --i 2,3,6', '''\
{
  "schemaVersion": 1,
  "p": 5,
  "s": 2,
  "n": 30,
  "iList": "2,3,6",
  "aList": "1,1,1",
  "lambda": "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
  "traceLambda": 0,
  "closedForm": 652530446799852452671029410925654755570116425760674336110569985073628853837710367077375173128217511475668288767337799072265625,
  "boundLower": 652530446799852452671029410925654755570116425760674336110569985073628853837710367077375173128217511475668288767337799072265625,
  "boundUpper": 652530446799852452671029410925654755570116425853118973441157306020315795081786878367204052242556144847185350954532623291015625,
  "classification": "Minimal",
  "branch": "even",
  "halfIntegralBound": false
}
'''),
    # curve bundle, witness 891
    ('classify --p 3 --n 6 --i 1', '''\
{
  "schemaVersion": 1,
  "p": 3,
  "s": 1,
  "n": 6,
  "i": 1,
  "lambda": "0,0,0,0,0,0",
  "classification": "Maximal",
  "traceLambdaZero": true,
  "nEven": true,
  "iDividesN": true,
  "pDividesNOverI": true,
  "sign": 1
}
'''),
    # curve bundle
    ('classify --p 5 --n 3 --i 1 --lambda 0,1', '''\
{
  "schemaVersion": 1,
  "p": 5,
  "s": 1,
  "n": 3,
  "i": 1,
  "lambda": "0,1,0",
  "classification": "Neither",
  "traceLambdaZero": false,
  "nEven": false,
  "iDividesN": true,
  "pDividesNOverI": false,
  "sign": null
}
'''),
    # hypersurface bundle, r = 2
    ('classify --p 3 --s 2 --n 4 --i 1,3 --a 2,7 --lambda 0,4', '''\
{
  "schemaVersion": 1,
  "p": 3,
  "s": 2,
  "n": 4,
  "iList": "1,3",
  "aList": "2,7",
  "lambda": "0,4,0,0",
  "classification": "Neither",
  "traceLambdaZero": false,
  "D1Zero": false,
  "nrEven": true,
  "YExponentsEqualGcd": true,
  "D2": 0,
  "tauFactor": null,
  "chiSign": null,
  "sign": null
}
'''),
    # hypersurface bundle, witness 25^90 - 24*25^56
    ('classify --p 5 --s 2 --n 30 --i 2,3,6', '''\
{
  "schemaVersion": 1,
  "p": 5,
  "s": 2,
  "n": 30,
  "iList": "2,3,6",
  "aList": "1,1,1",
  "lambda": "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
  "classification": "Minimal",
  "traceLambdaZero": true,
  "D1Zero": true,
  "nrEven": true,
  "YExponentsEqualGcd": true,
  "D2": 11,
  "tauExponentMod4": 0,
  "tauFactor": 1,
  "chiSign": -1,
  "sign": -1
}
'''),
]


@pytest.mark.parametrize("command,expected", GOLDEN,
                         ids=[command for command, _ in GOLDEN])
def test_cli_stdout_golden(capsys, command, expected):
    assert cli.run(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
