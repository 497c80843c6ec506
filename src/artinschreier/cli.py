"""Command-line front end.

Subcommands: count-curve, count-hypersurface, classify, verify, sweep,
gauss-check.  Counting commands print a flat JSON report (schemaVersion 1);
sweep emits CSV.  Exit codes: 0 success, 1 malformed arguments, 2
verification mismatch, 3 enumeration-limit refusal.

lambda is given as a comma-separated coefficient list in the canonical
polynomial basis of F_{q^n} over F_q, least significant first ("2,0,1"
means 2 + t^2); "0" is shorthand for zero.  Coefficients are base-field
elements encoded as integers 0..q-1 (base-p digits for s > 1).  Multi-term
flags (--i, --a, gauss-check lists) are comma-separated as well.

Identical invocations produce byte-identical output: moduli, element order,
JSON key order, and sweep row order are all deterministic, and randomized
lambda policies are seeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys

from .counting import (CountReport, CurveSpec, HypersurfaceSpec,
                       classify_curve_detail, classify_hypersurface_detail,
                       count_curve, count_hypersurface)
from .fields import (DEFAULT_LIMIT, EnumerationLimitError, FieldTower, PrimalityLimitError,
                     build_tower)

SCHEMA_VERSION = 1


def _from_oracle(name: str):
    """Stand-in for oracle.<name> that imports the oracle module, and with it
    numpy, on its first call: the counting commands never need either."""
    def call(*args, **kwargs):
        from . import oracle
        return getattr(oracle, name)(*args, **kwargs)
    return call


oracle_curve = _from_oracle("oracle_curve")
oracle_hypersurface = _from_oracle("oracle_hypersurface")
gauss_sum_numeric = _from_oracle("gauss_sum_numeric")
gauss_sum_reference = _from_oracle("gauss_sum_reference")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract here is exit 1
    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str, what: str) -> list:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"{what} must be a comma-separated integer list, got {text!r}")


def _parse_lambda(text: str, tower: FieldTower) -> tuple:
    if text.strip() == "0":
        return tower.zero
    coeffs = _int_list(text, "--lambda")
    if len(coeffs) > tower.n:
        raise _UsageError(f"--lambda has {len(coeffs)} coefficients, n = {tower.n}")
    for c in coeffs:
        if not 0 <= c < tower.q:
            raise _UsageError(f"--lambda coefficient {c} is not in 0..q-1 = 0..{tower.q - 1}")
    return tuple(coeffs) + (0,) * (tower.n - len(coeffs))


def _lambda_str(lam: tuple) -> str:
    return ",".join(str(c) for c in lam)


def _report_items(rep: CountReport) -> list:
    return [("traceLambda", rep.trace_lambda),
            ("closedForm", rep.closed_form),
            ("boundLower", rep.bound_lower),
            ("boundUpper", rep.bound_upper),
            ("classification", rep.classification),
            ("branch", rep.branch),
            ("halfIntegralBound", rep.half_integral_bound)]


@contextlib.contextmanager
def _no_digit_limit():
    # a valid count may exceed the int-to-str digit limit; parsing keeps it
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _print_json(pairs) -> None:
    with _no_digit_limit():
        print(json.dumps(dict(pairs), indent=2))


def _is_hyper(args) -> bool:
    if args.command == "count-curve":
        return False
    return args.command == "count-hypersurface" or "," in args.i or args.a is not None


def _spec(args) -> tuple:
    """The spec of count-curve, count-hypersurface, classify or verify, and
    the JSON keys that lead its output, up to and including "lambda"."""
    tower = build_tower(args.p, args.s, args.n)
    head = [("schemaVersion", SCHEMA_VERSION), ("p", args.p), ("s", args.s), ("n", args.n)]
    if _is_hyper(args):
        i_list = _int_list(args.i, "--i")
        a_list = _int_list(args.a, "--a") if args.a else [1] * len(i_list)
        if len(a_list) != len(i_list):
            raise _UsageError(f"--a has {len(a_list)} entries but --i has {len(i_list)}")
        spec = HypersurfaceSpec(tower, tuple(zip(a_list, i_list)), _parse_lambda(args.lam, tower))
        head += [("iList", ",".join(str(i) for _, i in spec.terms)),
                 ("aList", ",".join(str(a) for a, _ in spec.terms))]
    else:
        spec = CurveSpec(tower, int(args.i), _parse_lambda(args.lam, tower))
        head += [("i", spec.i)]
    return spec, head + [("lambda", _lambda_str(spec.lam))]


def _count_and_oracle(spec, limit: int) -> tuple:
    if isinstance(spec, CurveSpec):
        return count_curve(spec), oracle_curve(spec, limit=limit)
    return count_hypersurface(spec), oracle_hypersurface(spec, limit=limit)


def _cmd_count(args) -> int:
    spec, head = _spec(args)
    rep = (count_curve if isinstance(spec, CurveSpec) else count_hypersurface)(spec)
    _print_json(head + _report_items(rep))
    return 0


def _cmd_classify(args) -> int:
    spec, head = _spec(args)
    detail = classify_curve_detail if isinstance(spec, CurveSpec) else classify_hypersurface_detail
    label, bundle = detail(spec)
    _print_json(head + [("classification", label)] + list(bundle.items()))
    return 0


def _cmd_verify(args) -> int:
    spec, head = _spec(args)
    rep, oracle = _count_and_oracle(spec, args.limit)
    match = oracle == rep.closed_form
    _print_json(head + _report_items(rep) + [("oracle", oracle), ("match", match)])
    if not match:
        print(f"mismatch: closed_form={rep.closed_form} oracle={oracle}",
              file=sys.stderr)
        return 2
    return 0


def _parse_terms(text: str, n: int):
    """Fixed hypersurface terms "a:i,a:i"; None when some i is invalid for n."""
    terms = []
    for part in text.split(","):
        try:
            a_txt, i_txt = part.split(":")
            a, i = int(a_txt), int(i_txt)
        except ValueError:
            raise _UsageError(f"--terms entries must look like a:i, got {part!r}")
        if not 0 < i < n:
            return None
        terms.append((a, i))
    return tuple(terms)


def _sweep_lambdas(policy: str, tower: FieldTower, rng: random.Random) -> list:
    if policy == "zero":
        return [tower.zero]
    if policy == "basis":
        return [tuple(1 if j == u else 0 for j in range(tower.n))
                for u in range(tower.n)]
    if policy.startswith("random:"):
        try:
            k = int(policy.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad --lambdas policy {policy!r}")
        if k < 1:
            raise _UsageError("random lambda count must be positive")
        return [tower.random_element(rng) for _ in range(k)]
    raise _UsageError(f"--lambdas must be zero, basis, or random:K, got {policy!r}")


def _cmd_sweep(args) -> int:
    if args.n_min < 2 or args.n_max < args.n_min:
        raise _UsageError("need 2 <= n-min <= n-max")
    worst = args.p ** (args.s * args.n_max)
    if worst > args.limit:
        raise EnumerationLimitError(worst, args.limit)
    rng = random.Random(args.seed)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        tower = build_tower(args.p, args.s, n)
        if args.terms is not None:
            terms = _parse_terms(args.terms, n)
            if terms is None:
                print(f"skipping n={n}: --terms exponents out of range",
                      file=sys.stderr)
                continue
            specs = [("hyper", terms)]
        elif args.i is not None:
            specs = [("curve", i) for i in _int_list(args.i, "--i") if 0 < i < n]
        else:
            specs = [("curve", i) for i in range(1, n)]
        for kind, what in specs:
            for lam in _sweep_lambdas(args.lambdas, tower, rng):
                rows.append((tower, kind, what, lam))
    header = ["p", "s", "n", "i_list", "a_list", "trace_lambda", "closed_form",
              "oracle", "bound_lower", "bound_upper", "classification"]
    jsonl = args.format == "jsonl"
    import csv  # only sweep writes CSV; loaded here to keep it off the other commands
    out = csv.writer(sys.stdout, lineterminator="\n")
    if not jsonl:
        out.writerow(header)
    mismatch = False
    for tower, kind, what, lam in rows:
        spec = (CurveSpec if kind == "curve" else HypersurfaceSpec)(tower, what, lam)
        rep, oracle = _count_and_oracle(spec, args.limit)
        i_cell = ";".join(str(i) for _, i in spec.terms)
        a_cell = ";".join(str(a) for a, _ in spec.terms)
        if oracle != rep.closed_form:
            mismatch = True
        record = [tower.p, tower.s, tower.n, i_cell, a_cell, rep.trace_lambda,
                  rep.closed_form, oracle, rep.bound_lower, rep.bound_upper,
                  rep.classification]
        with _no_digit_limit():
            if jsonl:
                line = dict([("schemaVersion", SCHEMA_VERSION)] + list(zip(header, record)))
                print(json.dumps(line))
            else:
                out.writerow(record)
    return 2 if mismatch else 0


def _cmd_gauss_check(args) -> int:
    ok_all = True
    for p in _int_list(args.p_list, "--p-list"):
        for s in _int_list(args.s_list, "--s-list"):
            numeric = gauss_sum_numeric(p, s)
            reference = gauss_sum_reference(p, s)
            err = abs(numeric - reference)
            ok = err < args.tol
            ok_all = ok_all and ok
            print(f"p={p} s={s} reference=({reference.real:.9f},{reference.imag:.9f}) "
                  f"absError={err:.3e} {'ok' if ok else 'FAIL'}")
    return 0 if ok_all else 2


def _add_spec_args(sub, multi_i: bool) -> None:
    sub.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    sub.add_argument("--s", type=int, default=1, help="base field is F_q, q = p^s")
    sub.add_argument("--n", type=int, required=True, help="extension degree")
    if multi_i:
        sub.add_argument("--i", type=str, required=True,
                         help="Frobenius exponent, or comma list for hypersurfaces")
        sub.add_argument("--a", type=str, default=None,
                         help="comma list of F_q* coefficients (default all 1)")
    else:
        sub.add_argument("--i", type=int, required=True, help="Frobenius exponent")
    sub.add_argument("--lambda", dest="lam", type=str, default="0",
                     help="coefficient list, e.g. 2,0,1; 0 means zero")


def _build_parser() -> _Parser:
    parser = _Parser(prog="artinschreier", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("count-curve", help="closed-form curve count")
    _add_spec_args(sub, multi_i=False)
    sub.set_defaults(func=_cmd_count)

    sub = subs.add_parser("count-hypersurface", help="closed-form hypersurface count")
    _add_spec_args(sub, multi_i=True)
    sub.set_defaults(func=_cmd_count)

    sub = subs.add_parser("classify", help="Weil-bound attainment classification")
    _add_spec_args(sub, multi_i=True)
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser("verify", help="closed form against the enumeration oracle")
    _add_spec_args(sub, multi_i=True)
    sub.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                     help="enumeration size refusal threshold")
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("sweep", help="verify a family of specs, emit a table")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--s", type=int, default=1)
    sub.add_argument("--n-min", type=int, default=2)
    sub.add_argument("--n-max", type=int, required=True)
    sub.add_argument("--i", type=str, default=None,
                     help="comma list of curve exponents (default: all 0 < i < n)")
    sub.add_argument("--terms", type=str, default=None,
                     help="fixed hypersurface terms a:i,a:i (overrides --i)")
    sub.add_argument("--lambdas", type=str, default="zero",
                     help="lambda policy: zero, basis, or random:K")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    sub.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("gauss-check", help="numeric Gauss-sum verification")
    sub.add_argument("--p-list", type=str, default="3,5,7,11,13")
    sub.add_argument("--s-list", type=str, default="1,2")
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.set_defaults(func=_cmd_gauss_check)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EnumerationLimitError, PrimalityLimitError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
