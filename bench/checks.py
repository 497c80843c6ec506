"""Correctness checks on every answer the benchmark gets back.

A check returns None when the answer is right and a one-line reason when it
is not.  ``inject`` corrupts the answer before it is checked; the smoke test
uses it to prove that a wrong answer makes the run fail.
"""

from __future__ import annotations

import json

import workloads

LABELS = ("Maximal", "Minimal", "Neither")


def check_count(q: int, nr: int, closed: int, lower: int, upper: int, half: bool,
                label: str) -> str:
    """A closed-form count against its Weil bounds and its classification."""
    if closed % q:
        return f"closed form {closed} is not divisible by q = {q}"
    if not lower <= closed <= upper:
        return f"closed form {closed} outside [{lower}, {upper}]"
    if half:
        if label != "Neither":
            return f"half-integral bound classified {label}"
        return None
    if lower + upper != 2 * q ** nr:
        return f"bounds are not centred on q^(nr) = {q}^{nr}"
    by_bounds = "Maximal" if closed == upper else "Minimal" if closed == lower else "Neither"
    if label != by_bounds:
        return f"classified {label}, bounds say {by_bounds}"
    return None


def _check_bundle(call: dict, doc: dict, hyper: bool) -> str:
    """classify output: conditions recomputable from the inputs, and the sign."""
    p, n, i_list = call["p"], call["n"], call["i"]
    label = doc["classification"]
    if hyper:
        want = {"nrEven": n * len(i_list) % 2 == 0}
    else:
        i = i_list[0]
        want = {"nEven": n % 2 == 0, "iDividesN": n % i == 0,
                "pDividesNOverI": n % i == 0 and (n // i) % p == 0}
    for key, value in want.items():
        if doc.get(key) != value:
            return f"condition {key} = {doc.get(key)}, expected {value}"
    sign = {"Maximal": 1, "Minimal": -1, "Neither": None}[label]
    if doc.get("sign") != sign:
        return f"classified {label} with sign {doc.get('sign')}"
    if label != "Neither" and not all(want.values()):
        return f"classified {label} although a necessary condition fails"
    return None


def check_cli(call: dict, rc, stdout: str, inject: bool = False) -> str:
    """One CLI call: exit code, schemaVersion-1 JSON, count/bounds/label
    agreement, condition bundles, and the pinned witness values."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if inject:
        if "closedForm" in doc:
            doc["closedForm"] += 1
        else:
            doc["classification"] = "Maximal" if doc.get("classification") != "Maximal" else "Neither"
    if doc.get("schemaVersion") != 1:
        return f"schemaVersion {doc.get('schemaVersion')!r}"
    if (doc.get("p"), doc.get("s"), doc.get("n")) != (call["p"], call["s"], call["n"]):
        return "echoed p, s, n differ from the request"
    if doc.get("classification") not in LABELS:
        return f"classification {doc.get('classification')!r}"
    if call["cmd"] == "classify":
        return _check_bundle(call, doc, workloads.cli_is_hyper(call))
    try:
        err = check_count(call["p"] ** call["s"], call["n"] * len(call["i"]), doc["closedForm"],
                          doc["boundLower"], doc["boundUpper"], doc["halfIntegralBound"],
                          doc["classification"])
    except (KeyError, TypeError) as exc:
        return f"malformed count report: {exc!r}"
    if err:
        return err
    for key, value in (call["pin"] or {}).items():
        if doc.get(key) != value:
            return f"pinned {key}: got {doc.get(key)}, expected {value}"
    return None


def check_record(rec: list, inject: bool = False) -> str:
    """One worker operation, against its independent counterpart."""
    kind, _desc, values, _latency, error = rec[:5]
    if error:
        return error
    if kind in ("curve", "hyper", "dcurve", "dhyper"):
        closed, oracle, label, lower, upper, half, report_label, q, nr = values
        if inject:
            oracle += 1
        if closed != oracle:
            return f"closed form {closed} != oracle {oracle}"
        if label != report_label:
            return f"classify says {label}, count report says {report_label}"
        return check_count(q, nr, closed, lower, upper, half, label)
    if kind in ("charsum", "gauss"):
        re_num, im_num, re_ref, im_ref = values
        if inject:
            re_num += 1.0
        err = abs(complex(re_num, im_num) - complex(re_ref, im_ref))
        tol = 1e-9 if kind == "gauss" else 1e-6 * max(1.0, abs(complex(re_ref, im_ref)))
        if err > tol:
            return f"numeric sum off by {err:.3e} (tolerance {tol:.1e})"
        return None
    if kind == "gram":
        rank, char, want_rank, want_char = values
        if inject:
            want_rank += 1
        if (rank, char) != (want_rank, want_char):
            return f"gram rank/char ({rank}, {char}) != predicted ({want_rank}, {want_char})"
        return None
    return f"unknown operation kind {kind!r}"
