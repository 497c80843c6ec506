"""Benchmark worker: one fresh interpreter that does the library work.

    python3 bench/worker.py --workload verify-sweep --seed N [--trace]
    python3 bench/worker.py --workload direct-crosscheck --seed N (--seconds S | --rounds R) [--trace]
    python3 bench/worker.py --workload W --seed N --setup-only

Prints one JSON object: per-operation records ``[kind, desc, values,
latency_s, error, host_scale]`` (see ``common.host_scale``), the number of operations in each round (one pass of
verify-sweep, or one cycle of direct-crosscheck), its own import
and internal times, its peak RSS and, with --trace, its spans.  run.py
checks the values.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import common  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _count_values(rep, oracle_value, label, q: int, nr: int) -> list:
    return [rep.closed_form, oracle_value, label, rep.bound_lower, rep.bound_upper,
            rep.half_integral_bound, rep.classification, q, nr]


def run_op(lib, spec: tuple) -> list:
    """One operation and its counterpart; returns the values to check."""
    fields, counting, quadforms, oracle = lib
    kind = spec[0]
    if kind == "gauss":
        _, p, s = spec
        num = oracle.gauss_sum_numeric(p, s)
        ref = oracle.gauss_sum_reference(p, s)
        return [num.real, num.imag, ref.real, ref.imag]
    p, s, n = spec[1:4]
    t = fields.build_tower(p, s, n)
    if kind in ("curve", "dcurve"):
        cspec = counting.CurveSpec(t, spec[4], tuple(spec[5]))
        rep = counting.count_curve(cspec)
        got = (oracle.oracle_curve(cspec) if kind == "curve"
               else oracle.oracle_direct(cspec, limit=10 ** 5))
        return _count_values(rep, got, counting.classify_curve(cspec), t.q, n)
    if kind in ("hyper", "dhyper"):
        hspec = counting.HypersurfaceSpec(t, tuple(tuple(term) for term in spec[4]), tuple(spec[5]))
        rep = counting.count_hypersurface(hspec)
        got = (oracle.oracle_hypersurface(hspec) if kind == "hyper"
               else oracle.oracle_hypersurface_direct(hspec, limit=10 ** 5))
        return _count_values(rep, got, counting.classify_hypersurface(hspec), t.q, n * hspec.r)
    if kind == "charsum":
        H = spec[4]
        num = oracle.char_sum_numeric(t, H)
        ref = quadforms.char_sum_closed_form(t, H).to_complex(t.q)
        return [num.real, num.imag, ref.real, ref.imag]
    if kind == "gram":
        i, basis = spec[4], [tuple(b) for b in spec[5]]
        rank, char = quadforms.rank_and_char(t, quadforms.build_gram(t, basis, i, 1))
        pred = quadforms.predict_rank_char(p, s, n, i)
        return [rank, char, pred.rank, pred.character]
    raise ValueError(f"unknown operation kind {kind!r}")


REF_EVERY_S = 0.25   # a block of short operations shares one pair of reference timings


def run_specs(lib, specs: list, records: list, tracer) -> None:
    ref_before, block, block_start = common.reference_s(), [], time.perf_counter()
    for n, spec in enumerate(specs):
        if tracer is not None:
            tracer.op = len(records)
            idx = tracer.begin("bench.op", {"kind": spec[0]})
        t0 = time.perf_counter()
        try:
            values, error = run_op(lib, spec), None
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            values, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(idx)
            tracer.op = None
        records.append([spec[0], repr(spec[1:4]) + repr(spec[4:])[:80], values, latency, error])
        block.append(records[-1])
        if n == len(specs) - 1 or time.perf_counter() - block_start >= REF_EVERY_S:
            ref_after = common.reference_s()
            scale = common.host_scale(ref_before, ref_after)
            for rec in block:
                rec.append(scale)
            ref_before, block, block_start = ref_after, [], time.perf_counter()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    common.use_checkout_library()

    if args.setup_only:
        import artinschreier  # noqa: F401  (the import is part of set-up)
        workloads.generate(args.workload, args.seed, args.quick)
        return 0

    t0 = time.perf_counter()
    import artinschreier.cli as cli
    import_s = time.perf_counter() - t0
    from artinschreier import counting, fields, oracle, quadforms
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({"fields": fields, "counting": counting, "quadforms": quadforms,
                        "oracle": oracle, "cli": cli})
    lib = (fields, counting, quadforms, oracle)

    records = []
    round_sizes = []
    if args.workload == "verify-sweep":
        run_specs(lib, workloads.verify_pass(args.seed, args.quick), records, tracer)
        round_sizes.append(len(records))
    elif args.workload == "direct-crosscheck":
        specs = workloads.direct_cycle(args.seed, args.quick)
        start = time.perf_counter()
        while (len(round_sizes) < args.rounds if args.rounds is not None
               else len(round_sizes) < 2 or time.perf_counter() - start < args.seconds):
            run_specs(lib, specs, records, tracer)
            round_sizes.append(len(specs))
    else:
        raise SystemExit(f"worker does not run {args.workload}")

    print(common.emit({"records": records, "round_sizes": round_sizes, "import_s": import_s,
                       "internal_s": time.perf_counter() - T_START,
                       "rss_mb": common.self_rss_mb(),
                       "spans": tracer.spans if tracer else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
