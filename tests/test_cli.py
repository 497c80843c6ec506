"""CLI behavior: JSON reports, sweep tables, exit codes."""

import ast
import csv
import io
import json
import os
import pathlib
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


def test_count_curve_over_f_3_9_searches_its_modulus(capsys):
    # lambda = t needs the degree-4 modulus over F_{3^9}, a search of
    # millions of F_q sums on the Zech tables
    code, out, err = _run(capsys, ["count-curve", "--p", "3", "--s", "9", "--n", "4",
                                   "--i", "1", "--lambda", "0,1"])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "schemaVersion": 1, "p": 3, "s": 9, "n": 4, "i": 1, "lambda": "0,1,0,0",
        "traceLambda": 2, "closedForm": 150087009699514134, "boundLower": 7625597484987,
        "boundUpper": 300181644996513255, "classification": "Neither",
        "branch": "coprime-odd", "halfIntegralBound": False}


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
    from artinschreier import oracle
    monkeypatch.setattr(oracle, "oracle_curve", lambda spec, limit=0: 12345)
    code, out, err = _run(capsys, ["verify", "--p", "3", "--n", "2", "--i", "1"])
    assert code == 2
    assert json.loads(out)["match"] is False
    assert "mismatch: closed_form=9 oracle=12345" in err


def test_verify_limit_exit_3(capsys):
    code, _, err = _run(capsys, ["verify", "--p", "3", "--n", "6", "--i", "1",
                                 "--limit", "10"])
    assert code == 3 and "refused:" in err
    # 3^10000 has 4772 digits, past the int-to-str conversion limit; it is
    # refused without being formed
    code, _, err = _run(capsys, ["verify", "--p", "3", "--n", "10000", "--i", "1"])
    assert code == 3
    assert err == "refused: enumeration of 3^10000 elements exceeds the limit 10000000\n"


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
    ["sweep", "--p", "3", "--n-max", "3", "--terms", "0:1"],
    ["sweep", "--p", "3", "--n-max", "3", "--terms", "3:1"],
    ["sweep", "--p", "3", "--n-max", "3", "--terms", "1:0"],
    ["sweep", "--p", "3", "--n-max", "3", "--terms", "1:-2,1:1"],
    ["sweep", "--p", "3", "--n-max", "3", "--i", "0"],
    ["sweep", "--p", "3", "--n-max", "3", "--i", "2,-1"],
])
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert "error:" in err


def test_verify_limit_exit_3_on_a_cached_fiber(capsys):
    # the second call of each pair finds its fiber cached and still refuses
    for argv in (["verify", "--p", "3", "--n", "4", "--i", "2", "--lambda", "1"],
                 ["verify", "--p", "3", "--n", "4", "--i", "1,3,2", "--a", "1,2,2",
                  "--lambda", "1"]):
        assert _run(capsys, argv)[0] == 0
        code, out, err = _run(capsys, argv + ["--limit", "80"])
        assert code == 3 and out == "" and "refused:" in err


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


SWEEP_TERMS_OUT = """\
p,s,n,i_list,a_list,trace_lambda,closed_form,oracle,bound_lower,bound_upper,classification
3,1,3,2;1,1;2,2,486,486,-729,2187,Neither
3,1,3,2;1,1;2,1,486,486,-729,2187,Neither
3,1,3,2;1,1;2,2,486,486,-729,2187,Neither
3,1,3,2;1,1;2,0,1215,1215,-729,2187,Neither
3,1,3,2;1,1;2,2,486,486,-729,2187,Neither
3,1,4,2;1,1;2,2,5832,5832,2187,10935,Neither
3,1,4,2;1,1;2,1,7290,7290,2187,10935,Neither
3,1,4,2;1,1;2,1,7290,7290,2187,10935,Neither
3,1,4,2;1,1;2,0,6561,6561,2187,10935,Neither
3,1,4,2;1,1;2,0,6561,6561,2187,10935,Neither
"""


def test_sweep_computes_each_histogram_and_convolution_once_per_n(capsys, monkeypatch):
    from artinschreier import oracle

    computed, entries = [], []
    real_compute, real_entry = oracle._histogram_compute, oracle._fiber_entry

    def compute(t, i, a, chunk_size):
        computed.append((t.n, i, a))
        return real_compute(t, i, a, chunk_size)

    def entry(t, terms, limit):
        entries.append((t.n, terms))
        return real_entry(t, terms, limit)

    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    monkeypatch.setattr(oracle, "_histogram_compute", compute)
    monkeypatch.setattr(oracle, "_fiber_entry", entry)
    code, out, _ = _run(capsys, ["sweep", "--p", "3", "--n-max", "4",
                                 "--terms", "1:2,2:1", "--lambdas", "random:5"])
    assert code == 0 and out == SWEEP_TERMS_OUT
    assert computed == [(3, 2, 1), (3, 1, 2), (4, 2, 1), (4, 1, 2)]
    assert entries == [(3, ((1, 2), (2, 1))), (4, ((1, 2), (2, 1)))]


def test_sweep_memory_does_not_grow_with_rows():
    # each row is drawn, computed and written before the next is drawn, so
    # 100x more random lambdas leave the traced peak where it was
    import contextlib
    import tracemalloc

    def peak(k):
        argv = ["sweep", "--p", "3", "--n-max", "2", "--lambdas", f"random:{k}"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli.run(argv)  # warm the tower and oracle caches
            tracemalloc.start()
            try:
                assert cli.run(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    small, large = peak(200), peak(20000)
    assert large < small + 256 * 1024, (small, large)


def test_sweep_reader_closing_early_exits_1_without_traceback():
    # as in `sweep ... | head -2`: the reader takes the header and one row
    # and closes the pipe while rows are still being computed
    with subprocess.Popen(
            [sys.executable, "-m", "artinschreier.cli", "sweep", "--p", "3", "--i", "1",
             "--n-min", "2", "--n-max", "6", "--lambdas", "random:100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env()) as proc:
        head = [proc.stdout.readline(), proc.stdout.readline()]
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert head[0].startswith(b"p,s,n,i_list") and head[1].startswith(b"3,1,2,1,1,")
    assert b"Traceback" not in err, err
    assert proc.returncode == 1, (proc.returncode, err)


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


def test_sweep_i_skips_small_n(capsys):
    code, out, err = _run(capsys, ["sweep", "--p", "3", "--n-max", "4", "--i", "3,5"])
    assert code == 0
    assert err == ("skipping i=3,5 at n=2: --i exponents out of range\n"
                   "skipping i=3,5 at n=3: --i exponents out of range\n"
                   "skipping i=5 at n=4: --i exponents out of range\n")
    # the rows are those of the exponents below n alone
    assert out == _run(capsys, ["sweep", "--p", "3", "--n-min", "4", "--n-max", "4",
                                "--i", "3"])[1]
    assert out.count("\n") == 2


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
    # a size of a few dozen bits is still stated in full
    code, out, err = _run(capsys, ["sweep", "--p", "3", "--n-max", "25"])
    assert code == 3 and out == ""
    assert err == "refused: enumeration of 847288609443 elements exceeds the limit 10000000\n"
    # 3^(n-max) is never formed: these refuse as fast as the small one
    for n_max in ("10000000", "30000000", "100000000"):
        _assert_refused_fast(["sweep", "--p", "3", "--n-max", n_max])


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


@pytest.mark.parametrize("argv,code", [
    (["gauss-check", "--p-list", "3,9"], 1),
    (["gauss-check", "--s-list", "1,0"], 1),
    (["gauss-check", "--p-list", "3,1000003"], 3),
])
def test_gauss_check_refusal_leaves_stdout_empty(capsys, argv, code):
    # the rows before the refused p or s are computed but never printed
    got, out, err = _run(capsys, argv)
    assert (got, out) == (code, "")
    assert err.startswith("error:" if code == 1 else "refused:")


def _capped_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _cli_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _assert_refused_fast(argv):
    """A fresh CLI process with 1 GiB of address space refuses argv (exit 3)
    within 1 s and prints nothing on stdout."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "artinschreier.cli", *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=60,
        preexec_fn=_capped_address_space)
    elapsed = time.monotonic() - start
    assert proc.returncode == 3, (argv, proc.stderr)
    assert proc.stderr.startswith("refused:") and proc.stdout == "", argv
    assert elapsed < 1.0, (argv, elapsed)


def test_gauss_check_refuses_huge_field_fast():
    # q = 3^20: the refusal comes before any tower is built, and the modulus
    # search never lists F_q, so 1 GiB of address space is plenty; 3^s is
    # never formed for the larger s
    for s in ("20", "20000", "10000000"):
        _assert_refused_fast(["gauss-check", "--p-list", "3", "--s-list", s])
    env = _cli_env()
    proc = subprocess.run(
        [sys.executable, "-c", "from artinschreier.fields import build_tower; "
                               "print(build_tower(3, 20, 1).ext_modulus)"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_capped_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(0, 1)\n"


# ------------------------------------------------------------- python -O


@pytest.mark.parametrize("argv", [
    ["count-curve", "--p", "3", "--s", "2", "--n", "4", "--i", "1", "--lambda", "0,4"],
    ["classify", "--p", "3", "--n", "4", "--i", "1,3", "--a", "1,2"],
    ["verify", "--p", "7", "--n", "5", "--i", "2", "--lambda", "3,1"],
], ids=["count-curve", "classify", "verify"])
def test_optimized_interpreter_prints_the_same(argv):
    # -O strips assert statements, so no cross-check may be one
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "artinschreier.cli", *argv],
                       capture_output=True, text=True, env=_cli_env(), timeout=120)
        for flags in ([], ["-O"]))
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)


def test_package_has_no_assert_statements():
    pkg = pathlib.Path(cli.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(pkg.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
