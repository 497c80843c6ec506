"""CLI behavior: JSON reports, sweep tables, exit codes."""

import csv
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from artinschreier import cli
from artinschreier.counting import CurveSpec, count_curve
from artinschreier.fields import build_tower


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ count-curve


def test_count_curve_json(capsys):
    code, out, err = _run(capsys, ["count-curve", "--p", "3", "--n", "2", "--i", "1"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schemaVersion"] == 1
    assert (doc["p"], doc["s"], doc["n"], doc["i"]) == (3, 1, 2, 1)
    assert doc["lambda"] == "0,0"
    assert doc["closedForm"] == 9
    assert doc["traceLambda"] == 0
    assert doc["branch"] == "coprime-odd"
    assert doc["boundLower"] <= doc["closedForm"] <= doc["boundUpper"]
    assert doc["halfIntegralBound"] is False


def test_count_curve_lambda_parsing(capsys):
    code, out, _ = _run(capsys, ["count-curve", "--p", "3", "--n", "2",
                                 "--i", "1", "--lambda", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == "2,0"  # padded to n coefficients
    assert doc["closedForm"] == 18 and doc["traceLambda"] == 1
    # library agreement for a non-shorthand lambda
    code, out, _ = _run(capsys, ["count-curve", "--p", "3", "--n", "2",
                                 "--i", "1", "--lambda", "1,2"])
    t = build_tower(3, 1, 2)
    assert json.loads(out)["closedForm"] == count_curve(CurveSpec(t, 1, (1, 2))).closed_form


# ----------------------------------------------------- count-hypersurface


def test_count_hypersurface_json(capsys):
    code, out, _ = _run(capsys, ["count-hypersurface", "--p", "3", "--n", "2",
                                 "--i", "1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["closedForm"] == 27
    assert doc["iList"] == "1,1" and doc["aList"] == "1,1"
    assert doc["branch"] == "even"


def test_count_hypersurface_beyond_int_str_digit_limit(capsys):
    # q^(rn + 1) = 169^2001 has about 4460 digits, past Python's default 4300
    from artinschreier.counting import HypersurfaceSpec, count_hypersurface

    digit_limit = sys.get_int_max_str_digits()
    code, out, err = _run(capsys, ["count-hypersurface", "--p", "13", "--s", "2", "--n", "2",
                                   "--i", ",".join(["1"] * 1000)])
    assert code == 0 and err == "", err
    assert sys.get_int_max_str_digits() == digit_limit
    t = build_tower(13, 2, 2)
    want = count_hypersurface(HypersurfaceSpec(t, ((1, 1),) * 1000, t.zero)).closed_form
    assert want > 10 ** 4300
    # parse with the limit lifted, as the CLI printed it
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out)["closedForm"] == want
    finally:
        sys.set_int_max_str_digits(digit_limit)
    # argument parsing keeps the limit
    code, _, err = _run(capsys, ["count-curve", "--p", "3", "--n", "2", "--i", "1",
                                 "--lambda", "9" * 5000])
    assert code == 1 and "integer list" in err


def test_count_hypersurface_a_mismatch(capsys):
    code, _, err = _run(capsys, ["count-hypersurface", "--p", "3", "--n", "4",
                                 "--i", "1,2", "--a", "2"])
    assert code == 1 and "error:" in err


# ---------------------------------------------------------------- classify


def test_classify_curve_json(capsys):
    code, out, _ = _run(capsys, ["classify", "--p", "3", "--n", "6", "--i", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "Maximal"
    assert doc["traceLambdaZero"] is True
    assert doc["nEven"] is True
    assert doc["iDividesN"] is True
    assert doc["pDividesNOverI"] is True
    assert doc["sign"] == 1


def test_classify_hypersurface_json(capsys):
    code, out, _ = _run(capsys, ["classify", "--p", "5", "--s", "2", "--n", "30",
                                 "--i", "2,3,6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "Minimal"
    assert doc["iList"] == "2,3,6" and doc["aList"] == "1,1,1"
    assert doc["D2"] == 11
    assert doc["tauExponentMod4"] == 0
    assert doc["tauFactor"] == 1 and doc["chiSign"] == -1 and doc["sign"] == -1


def test_classify_rejects_prime_power_p(capsys):
    code, _, err = _run(capsys, ["classify", "--p", "25", "--n", "4", "--i", "1"])
    assert code == 1 and "error:" in err


# ------------------------------------------------------------------ verify


def test_verify_ok(capsys):
    code, out, err = _run(capsys, ["verify", "--p", "3", "--n", "2", "--i", "1"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["match"] is True and doc["oracle"] == 9


def test_verify_hypersurface_ok(capsys):
    code, out, _ = _run(capsys, ["verify", "--p", "3", "--n", "2",
                                 "--i", "1", "--a", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True and doc["iList"] == "1" and doc["aList"] == "2"


def test_verify_mismatch_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "oracle_curve", lambda spec, limit=0: 12345)
    code, out, err = _run(capsys, ["verify", "--p", "3", "--n", "2", "--i", "1"])
    assert code == 2
    assert json.loads(out)["match"] is False
    assert "mismatch: closed_form=9 oracle=12345" in err


def test_verify_limit_exit_3(capsys):
    code, _, err = _run(capsys, ["verify", "--p", "3", "--n", "6", "--i", "1",
                                 "--limit", "10"])
    assert code == 3 and "refused:" in err


def test_huge_p_answered_or_refused_fast(capsys):
    # primality is decided by Miller-Rabin, exact below psi_13; from psi_13 on
    # the tower is refused rather than tested
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "artinschreier.cli", "count-curve", "--p", str(10 ** 18 + 3),
         "--n", "2", "--i", "1", "--lambda", "0"],
        capture_output=True, text=True, env=env, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["p"] == 10 ** 18 + 3
    code, out, err = _run(capsys, ["count-curve", "--p", "3317044064679887385961981",
                                   "--n", "2", "--i", "1", "--lambda", "0"])
    assert code == 3 and out == ""
    assert err.startswith("refused:")


# -------------------------------------------------------------- exit codes


@pytest.mark.parametrize("argv", [
    [],
    ["no-such-command"],
    ["count-curve", "--p", "3", "--n", "2"],          # missing --i
    ["count-curve", "--p", "3", "--n", "2", "--i", "0"],
    ["count-curve", "--p", "25", "--n", "2", "--i", "1"],
    ["count-curve", "--p", "3", "--n", "2", "--i", "1", "--lambda", "5"],
    ["count-curve", "--p", "3", "--n", "2", "--i", "1", "--lambda", "1,1,1"],
    ["sweep", "--p", "3", "--n-max", "1"],
    ["sweep", "--p", "3", "--n-max", "3", "--lambdas", "bogus"],
])
def test_usage_errors_exit_1(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert "error:" in err


# ------------------------------------------------------------------- sweep


def test_sweep_csv(capsys):
    argv = ["sweep", "--p", "3", "--n-max", "4"]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == ("p,s,n,i_list,a_list,trace_lambda,closed_form,"
                        "oracle,bound_lower,bound_upper,classification")
    rows = list(csv.DictReader(io.StringIO(out)))
    # n = 2: i = 1; n = 3: i = 1,2; n = 4: i = 1,2,3
    assert len(rows) == 6
    for row in rows:
        assert row["closed_form"] == row["oracle"]
        assert (int(row["bound_lower"]) <= int(row["closed_form"])
                <= int(row["bound_upper"]))
    # byte-identical on repeat
    code2, out2, _ = _run(capsys, argv)
    assert code2 == 0 and out2 == out


def test_sweep_random_lambdas_deterministic(capsys):
    argv = ["sweep", "--p", "3", "--n-max", "3", "--lambdas", "random:3",
            "--seed", "7"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    assert len(out1.splitlines()) == 1 + 3 * 3  # header + 3 lambdas per i


def test_sweep_jsonl(capsys):
    code, out, _ = _run(capsys, ["sweep", "--p", "3", "--n-max", "3",
                                 "--format", "jsonl"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines:
        doc = json.loads(line)
        assert doc["schemaVersion"] == 1
        assert doc["closed_form"] == doc["oracle"]


def test_sweep_beyond_int_str_digit_limit(capsys):
    # 3^(2 * 5000 + 1) has 4772 digits, past Python's default 4300
    digit_limit = sys.get_int_max_str_digits()
    terms = ",".join(["1:1"] * 5000)
    docs = {}
    for fmt in ("csv", "jsonl"):
        code, out, err = _run(capsys, ["sweep", "--p", "3", "--n-max", "2",
                                       "--terms", terms, "--format", fmt])
        assert code == 0 and err == "", err
        assert sys.get_int_max_str_digits() == digit_limit
        docs[fmt] = out
    sys.set_int_max_str_digits(0)
    try:
        row = next(csv.DictReader(io.StringIO(docs["csv"])))
        doc = json.loads(docs["jsonl"])
        assert int(row["closed_form"]) == int(row["oracle"]) == doc["closed_form"]
        assert doc["closed_form"] == doc["oracle"] > 10 ** 4300
    finally:
        sys.set_int_max_str_digits(digit_limit)


def test_sweep_terms_skips_small_n(capsys):
    code, out, err = _run(capsys, ["sweep", "--p", "3", "--n-min", "2",
                                   "--n-max", "4", "--terms", "1:3"])
    assert code == 0
    assert err.count("skipping n=") == 2  # n = 2 and n = 3
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["n"] == "4" and rows[0]["i_list"] == "3"
    assert rows[0]["a_list"] == "1"


def test_sweep_basis_lambdas(capsys):
    code, out, _ = _run(capsys, ["sweep", "--p", "3", "--n-max", "2",
                                 "--lambdas", "basis"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2  # two basis elements, single i


def test_sweep_upfront_limit_exit_3(capsys):
    code, out, err = _run(capsys, ["sweep", "--p", "3", "--n-max", "13",
                                   "--limit", "1000000"])
    assert code == 3
    assert "refused:" in err
    assert out == ""  # refusal happens before any row is emitted


# ------------------------------------------------------------- gauss-check


def test_gauss_check_default(capsys):
    code, out, err = _run(capsys, ["gauss-check"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 10  # 5 primes x 2 exponents
    for line in lines:
        assert line.endswith(" ok")
        assert "absError=" in line and "reference=(" in line


def test_gauss_check_impossible_tol(capsys):
    code, out, _ = _run(capsys, ["gauss-check", "--p-list", "3",
                                 "--s-list", "1", "--tol", "1e-30"])
    assert code == 2
    assert "FAIL" in out


def _capped_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_gauss_check_refuses_huge_field_fast():
    # q = 3^20: the refusal comes before any tower is built, and the modulus
    # search never lists F_q, so 1 GiB of address space is plenty
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "artinschreier.cli", "gauss-check",
         "--p-list", "3", "--s-list", "20"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_capped_address_space)
    elapsed = time.monotonic() - start
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("refused:") and proc.stdout == ""
    assert elapsed < 1.0
    proc = subprocess.run(
        [sys.executable, "-c", "from artinschreier.fields import build_tower; "
                               "print(build_tower(3, 20, 1).ext_modulus)"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_capped_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(0, 1)\n"
