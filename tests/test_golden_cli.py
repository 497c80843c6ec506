"""Golden CLI outputs: count-curve, count-hypersurface, classify, verify, sweep
and gauss-check must print exactly these bytes (schemaVersion 1), so refactors
of the counting core, of tower construction and of the oracles cannot change
what a user sees."""

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


# Commands that consult the oracles: (command, stdout, stderr), recorded
# before the trace-form histogram was rewritten as a coordinate count.
ORACLE_GOLDEN = [
    # verify, curve
    ('verify --p 7 --n 5 --i 2 --lambda 3,1', '''\
{
  "schemaVersion": 1,
  "p": 7,
  "s": 1,
  "n": 5,
  "i": 2,
  "lambda": "3,1,0,0,0",
  "traceLambda": 5,
  "closedForm": 17150,
  "boundLower": -21307,
  "boundUpper": 54921,
  "classification": "Neither",
  "branch": "coprime-even",
  "halfIntegralBound": true,
  "oracle": 17150,
  "match": true
}
''', ''),
    # verify, r = 2 hypersurface
    ('verify --p 3 --s 2 --n 4 --i 1,3 --a 2,7 --lambda 0,4', '''\
{
  "schemaVersion": 1,
  "p": 3,
  "s": 2,
  "n": 4,
  "iList": "1,3",
  "aList": "2,7",
  "lambda": "0,4,0,0",
  "traceLambda": 8,
  "closedForm": 43105770,
  "boundLower": -301327047,
  "boundUpper": 387420489,
  "classification": "Neither",
  "branch": "even",
  "halfIntegralBound": false,
  "oracle": 43105770,
  "match": true
}
''', ''),
    # sweep, every i, zero lambda, csv
    ('sweep --p 3 --n-max 5 --lambdas zero', '''\
p,s,n,i_list,a_list,trace_lambda,closed_form,oracle,bound_lower,bound_upper,classification
3,1,2,1,1,0,9,9,-9,27,Neither
3,1,3,1,1,0,27,27,-4,58,Neither
3,1,3,2,1,0,27,27,-66,120,Neither
3,1,4,1,1,0,81,81,27,135,Neither
3,1,4,2,1,0,27,27,-81,243,Neither
3,1,4,3,1,0,81,81,-405,567,Neither
3,1,5,1,1,0,189,189,150,336,Neither
3,1,5,2,1,0,189,189,-37,523,Neither
3,1,5,3,1,0,189,189,-598,1084,Neither
3,1,5,4,1,0,189,189,-2282,2768,Neither
''', ''),
    # the same sweep as jsonl
    ('sweep --p 3 --n-max 5 --lambdas zero --format jsonl', '''\
{"schemaVersion": 1, "p": 3, "s": 1, "n": 2, "i_list": "1", "a_list": "1", "trace_lambda": 0, "closed_form": 9, "oracle": 9, "bound_lower": -9, "bound_upper": 27, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 1, "n": 3, "i_list": "1", "a_list": "1", "trace_lambda": 0, "closed_form": 27, "oracle": 27, "bound_lower": -4, "bound_upper": 58, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 1, "n": 3, "i_list": "2", "a_list": "1", "trace_lambda": 0, "closed_form": 27, "oracle": 27, "bound_lower": -66, "bound_upper": 120, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 1, "n": 4, "i_list": "1", "a_list": "1", "trace_lambda": 0, "closed_form": 81, "oracle": 81, "bound_lower": 27, "bound_upper": 135, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 1, "n": 4, "i_list": "2", "a_list": "1", "trace_lambda": 0, "closed_form": 27, "oracle": 27, "bound_lower": -81, "bound_upper": 243, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 1, "n": 4, "i_list": "3", "a_list": "1", "trace_lambda": 0, "closed_form": 81, "oracle": 81, "bound_lower": -405, "bound_upper": 567, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 1, "n": 5, "i_list": "1", "a_list": "1", "trace_lambda": 0, "closed_form": 189, "oracle": 189, "bound_lower": 150, "bound_upper": 336, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 1, "n": 5, "i_list": "2", "a_list": "1", "trace_lambda": 0, "closed_form": 189, "oracle": 189, "bound_lower": -37, "bound_upper": 523, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 1, "n": 5, "i_list": "3", "a_list": "1", "trace_lambda": 0, "closed_form": 189, "oracle": 189, "bound_lower": -598, "bound_upper": 1084, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 1, "n": 5, "i_list": "4", "a_list": "1", "trace_lambda": 0, "closed_form": 189, "oracle": 189, "bound_lower": -2282, "bound_upper": 2768, "classification": "Neither"}
''', ''),
    # sweep, seeded random lambdas, csv
    ('sweep --p 5 --n-max 4 --lambdas random:2 --seed 7', '''\
p,s,n,i_list,a_list,trace_lambda,closed_form,oracle,bound_lower,bound_upper,classification
5,1,2,1,1,3,50,50,-75,125,Neither
5,1,2,1,1,3,50,50,-75,125,Neither
5,1,3,1,1,2,150,150,-98,348,Neither
5,1,3,1,1,1,150,150,-98,348,Neither
5,1,3,2,1,2,150,150,-993,1243,Neither
5,1,3,2,1,1,150,150,-993,1243,Neither
5,1,4,1,1,0,625,625,125,1125,Neither
5,1,4,1,1,2,500,500,125,1125,Neither
5,1,4,2,1,2,500,500,-1875,3125,Neither
5,1,4,2,1,0,1125,1125,-1875,3125,Neither
5,1,4,3,1,3,500,500,-11875,13125,Neither
5,1,4,3,1,1,750,750,-11875,13125,Neither
''', ''),
    # sweep, fixed r = 2 terms, seeded random lambdas, jsonl; n = 2 is skipped
    ('sweep --p 3 --s 2 --n-max 4 --terms 1:1,5:2 --lambdas random:2 --seed 11 --format jsonl', '''\
{"schemaVersion": 1, "p": 3, "s": 2, "n": 3, "i_list": "1;2", "a_list": "1;5", "trace_lambda": 2, "closed_form": 590490, "oracle": 590490, "bound_lower": -3720087, "bound_upper": 4782969, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 2, "n": 3, "i_list": "1;2", "a_list": "1;5", "trace_lambda": 7, "closed_form": 590490, "oracle": 590490, "bound_lower": -3720087, "bound_upper": 4782969, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 2, "n": 4, "i_list": "1;2", "a_list": "1;5", "trace_lambda": 3, "closed_form": 42515280, "oracle": 42515280, "bound_lower": 4782969, "bound_upper": 81310473, "classification": "Neither"}
{"schemaVersion": 1, "p": 3, "s": 2, "n": 4, "i_list": "1;2", "a_list": "1;5", "trace_lambda": 1, "closed_form": 42515280, "oracle": 42515280, "bound_lower": 4782969, "bound_upper": 81310473, "classification": "Neither"}
''', 'skipping n=2: --terms exponents out of range\n'),
    # numeric Gauss sums against the reference
    ('gauss-check --p-list 3,5 --s-list 1,2', '''\
p=3 s=1 reference=(-0.000000000,1.732050808) absError=6.661e-16 ok
p=3 s=2 reference=(3.000000000,0.000000000) absError=3.331e-16 ok
p=5 s=1 reference=(2.236067977,0.000000000) absError=3.331e-16 ok
p=5 s=2 reference=(-5.000000000,0.000000000) absError=1.110e-16 ok
''', ''),
]


@pytest.mark.parametrize("command,expected_out,expected_err", ORACLE_GOLDEN,
                         ids=[command for command, _, _ in ORACLE_GOLDEN])
def test_oracle_cli_stdout_golden(capsys, command, expected_out, expected_err):
    assert cli.run(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.out == expected_out
    assert captured.err == expected_err
