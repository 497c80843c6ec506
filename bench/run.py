"""Benchmark runner for the artinschreier library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--inject-fault]

Workloads (see bench/README.md for why each exists):
  closed-form-cli    a closed loop, one call in flight, of fresh
                     ``python -m artinschreier.cli`` processes
  verify-sweep       closed forms against the histogram oracles, one fresh
                     worker process per sweep pass
  direct-crosscheck  literal scans, numeric character/Gauss sums and Gram
                     ranks against their closed-form counterparts

A run repeats one seeded cycle of operations until --seconds have passed,
so every operation is timed several times at moments spread over the run.
End-to-end times are scaled to a nominal host speed with a reference loop
timed around each operation (``common.host_scale``); the unscaled figures are
printed in the report lines.  With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it runs the workload traced for half of --seconds, replays
the same operations untraced, and reports per-layer metrics plus the
difference of the two wall times as the tracing overhead.  Every answer is
checked in both modes; the last stdout line is the JSON result, and the exit
code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

import checks
import common
import workloads
from tracing import LAYER_METRICS, import_cumulative_s, layer_metrics, span_table

SETUP_REPEATS = 9
MIN_CYCLES = 3
CLI_TIMEOUT_S = 60.0
PY = sys.executable
WORKER = os.path.join(common.BENCH_DIR, "worker.py")
PROBE = os.path.join(common.BENCH_DIR, "cli_probe.py")


class RunState:
    """What one run has measured and checked so far."""

    def __init__(self, inject: bool):
        self.inject = inject
        self.attempted = 0
        self.failed = 0
        self.rounds = []      # per-operation latencies, one list per cycle, in cycle order
        self.raw_rounds = []  # the same, not scaled to the nominal host speed
        self.rss_mb = []
        self.failures = []

    def record(self, error: str, what: str) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {error}")

    def take_inject(self) -> bool:
        inject, self.inject = self.inject, False
        return inject


# ------------------------------------------------------------------ processes

def _worker_argv(args, *extra, trace=False) -> list:
    argv = [PY] + (["-X", "importtime"] if trace else []) + [WORKER, "--workload", args.workload,
                                                             "--seed", str(args.seed)]
    argv += [str(x) for x in extra]
    if trace:
        argv.append("--trace")
    if args.quick:
        argv.append("--quick")
    return argv


def _worker(args, *extra, trace=False) -> tuple:
    out = common.spawn(_worker_argv(args, *extra, trace=trace), timeout=args.seconds + 120)
    if out["rc"] != 0:
        return out, None
    try:
        return out, json.loads(out["stdout"].splitlines()[-1])
    except (ValueError, IndexError):
        return out, None


def measure_setup(args) -> tuple:
    """Median wall time, scaled and unscaled, of fresh interpreters that
    import the library and generate this workload's inputs."""
    walls, raw = [], []
    ref = common.reference_s()
    for _ in range(2 if args.quick else SETUP_REPEATS):
        out = common.spawn(_worker_argv(args, "--setup-only"), timeout=120)
        if out["rc"] != 0:
            raise RuntimeError(f"set-up failed: {out['stderr'].strip()[-400:]}")
        ref_after = common.reference_s()
        walls.append(out["wall_s"] * common.host_scale(ref, ref_after))
        raw.append(out["wall_s"])
        ref = ref_after
    return statistics.median(walls), statistics.median(raw)


def _add_traced_process(spans: list, processes: list, out: dict, child: dict) -> None:
    """Merge a traced child's spans (re-indexing parents) and its timings."""
    base = len(spans)
    spans += [[n, a, b, None if par is None else par + base, (len(processes), op), attrs]
              for n, a, b, par, op, attrs in child["spans"]]
    processes.append({"wall_s": out["wall_s"], "internal_s": child["internal_s"],
                      "import_s": child["import_s"],
                      "oracle_import_s": import_cumulative_s(out["stderr"], "artinschreier.oracle")})


# ------------------------------------------------------------------ closed-form-cli

def cli_calls(args, budget_s: float, min_cycles: int):
    """(position in the cycle, call) until the budget is spent and at least
    ``min_cycles`` whole cycles are done; the last cycle may stop part-way."""
    cycle = workloads.cli_cycle(args.seed, args.quick)
    start, done = time.perf_counter(), 0
    while done < min_cycles * len(cycle) or time.perf_counter() - start < budget_s:
        yield done % len(cycle), cycle[done % len(cycle)]
        done += 1


def run_cli_call(call: dict, state: RunState, traced: bool, processes: list, spans: list) -> float:
    argv = workloads.cli_argv(call)
    if traced:
        out = common.spawn([PY, "-X", "importtime", PROBE, json.dumps(call)], timeout=CLI_TIMEOUT_S)
        try:
            probe = json.loads(out["stdout"].splitlines()[-1])
        except (ValueError, IndexError):
            probe = None
        if probe is None:
            rc, stdout = out["rc"] or "crashed", ""
        else:
            rc, stdout = probe["rc"], probe["stdout"]
            _add_traced_process(spans, processes, out, probe)
    else:
        out = common.spawn([PY, "-m", "artinschreier.cli"] + argv, timeout=CLI_TIMEOUT_S)
        rc, stdout = out["rc"], out["stdout"]
    err = checks.check_cli(call, rc, stdout, state.take_inject())
    if err and out["stderr"].strip() and rc != 0:
        err += f" ({out['stderr'].strip().splitlines()[-1]})"
    state.record(err, " ".join(argv))
    state.rss_mb.append(out["rss_mb"])
    return out["wall_s"]


# ------------------------------------------------------------------ worker workloads

def _take_records(state: RunState, out: dict, res: dict, expected: int, what: str,
                  processes: list = None, spans: list = None) -> float:
    """Check and store a worker's records; returns the median host scale
    measured in the worker (1.0 if it failed)."""
    if res is None:
        tail = out["stderr"].strip().splitlines()[-1:] or [f"exit code {out['rc']}"]
        for _ in range(max(1, expected)):
            state.record(f"worker failed: {tail[0]}", what)
        return 1.0
    records = iter(res["records"])
    for size in res["round_sizes"]:
        state.rounds.append([])
        state.raw_rounds.append([])
        for rec in (next(records) for _ in range(size)):
            state.record(checks.check_record(rec, state.take_inject()), f"{rec[0]} {rec[1]}")
            state.rounds[-1].append(rec[3] * rec[5])
            state.raw_rounds[-1].append(rec[3])
    state.rss_mb.append(res["rss_mb"])
    if processes is not None:
        _add_traced_process(spans, processes, out, res)
    return statistics.median(rec[5] for rec in res["records"])


def run_verify_pass(args, state: RunState, traced: bool, processes=None, spans=None) -> tuple:
    """One pass in a fresh worker: (wall time, host scale)."""
    out, res = _worker(args, trace=traced)
    scale = _take_records(state, out, res, len(workloads.verify_pass(args.seed, args.quick)),
                          "verify pass", processes, spans)
    return out["wall_s"], scale


# ------------------------------------------------------------------ the two modes

def per_operation(rounds: list) -> list:
    """Each operation's median latency over the cycles that reached it.

    Every cycle runs the same operations in the same order, so the repeats
    of one operation differ only through the host.
    """
    return [statistics.median(r[j] for r in rounds if len(r) > j) for j in range(len(rounds[0]))]


def latency_metrics(rounds: list) -> dict:
    lat = per_operation([r for r in rounds if r])
    return {"latency_p50_s": (statistics.median(lat), "s"),
            "latency_p90_s": (common.percentile(lat, 90), "s"),
            "specs_per_s": (len(lat) / sum(lat), "1/s")}


def run_timed(args, state: RunState) -> dict:
    setup_s, raw_setup_s = measure_setup(args)
    min_cycles = 1 if args.quick else MIN_CYCLES
    if args.workload == "closed-form-cli":
        ref = common.reference_s()
        for pos, call in cli_calls(args, args.seconds, min_cycles):
            if pos == 0:
                state.rounds.append([])
                state.raw_rounds.append([])
            wall = run_cli_call(call, state, False, None, None)
            ref_after = common.reference_s()
            state.rounds[-1].append(wall * common.host_scale(ref, ref_after))
            state.raw_rounds[-1].append(wall)
            ref = ref_after
    elif args.workload == "verify-sweep":
        start, k = time.perf_counter(), 0
        while k < min_cycles or time.perf_counter() - start < args.seconds:
            run_verify_pass(args, state, False)
            k += 1
    else:
        out, res = _worker(args, "--seconds", args.seconds)
        _take_records(state, out, res, 1, "direct worker")
    rounds = [r for r in state.rounds if r]
    if not rounds:
        raise RuntimeError("no operation completed: " + "; ".join(state.failures[:1]))
    n_ops, n_samples = len(rounds[0]), sum(len(r) for r in rounds)
    print(f"# latency: median over repeats of each of {n_ops} operations, from {n_samples} "
          f"samples in {len(rounds)} cycles; {n_ops - math.ceil(0.9 * n_ops)} operations "
          f"above p90")
    raw = latency_metrics(state.raw_rounds)
    raw["setup_s"] = (raw_setup_s, "s")
    print("# unscaled " + " ".join(f"{name} = {value:.6g} {unit}"
                                   for name, (value, unit) in raw.items()))
    return {**latency_metrics(state.rounds),
            "peak_rss_mb": (max(state.rss_mb), "MB"),
            "setup_s": (setup_s, "s")}


def bracketed(run) -> tuple:
    """run()'s wall time and the host scale measured around it."""
    before = common.reference_s()
    wall = run()
    return wall, common.host_scale(before, common.reference_s())


def run_traced(args, state: RunState) -> dict:
    """Traced half-run, then the same operations untraced.  The overhead
    compares wall times scaled to the nominal host speed, so that a change
    of host state between the two halves does not show as overhead."""
    spans, processes = [], []
    half = args.seconds / 2.0
    traced, plain = [], []   # (wall, host scale) per process
    if args.workload == "closed-form-cli":
        calls = []
        for _, call in cli_calls(args, half, 1):
            traced.append(bracketed(lambda: run_cli_call(call, state, True, processes, spans)))
            calls.append(call)
        plain = [bracketed(lambda: run_cli_call(c, state, False, None, None)) for c in calls]
    elif args.workload == "verify-sweep":
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < half:
            traced.append(run_verify_pass(args, state, True, processes, spans))
        plain = [run_verify_pass(args, state, False) for _ in traced]
    else:
        out, res = _worker(args, "--seconds", half, trace=True)
        traced.append((out["wall_s"], _take_records(state, out, res, 1, "traced direct worker",
                                                    processes, spans)))
        rounds = len(res["round_sizes"]) if res else 1
        out2, res2 = _worker(args, "--rounds", rounds)
        plain.append((out2["wall_s"], _take_records(state, out2, res2, 1, "untraced direct worker")))
    if not processes:
        raise RuntimeError("no traced process completed")
    traced_wall = sum(w for w, _ in traced)
    traced_scaled = sum(w * k for w, k in traced)
    plain_scaled = sum(w * k for w, k in plain)
    overhead = traced_scaled - plain_scaled
    metrics, notes, report = layer_metrics(spans, processes, overhead)

    print(f"# traced wall {traced_wall:.4f} s over {len(processes)} processes "
          f"({traced_scaled:.4f} s scaled); untraced replay {plain_scaled:.4f} s scaled; "
          f"tracing overhead {overhead:.4f} s ({overhead / plain_scaled:+.1%} of untraced)")
    print(f"# {'span':<38} {'calls':>7} {'total_s':>10} {'self_s':>10} {'self/wall':>9}")
    for name, (n, total, self_s) in sorted(span_table(spans).items(), key=lambda kv: -kv[1][2]):
        print(f"# {name:<38} {n:>7} {total:>10.4f} {self_s:>10.4f} {self_s / traced_wall:>9.2%}")
    for name, (value, unit, note) in report.items():
        print(f"# layer {name} = {value:.6g} {unit} ({note})")
    for name, note in notes.items():
        print(f"# layer {name}: {note}")
    os.makedirs(common.OUT_DIR, exist_ok=True)
    path = os.path.join(common.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "process_and_op", "attrs"],
                   "spans": spans}, fh)
    print(f"# spans written to {os.path.relpath(path, common.ROOT)}")
    return {name: (metrics[name], unit) for name, unit in LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs and a single cycle, for smoke tests")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first answer before checking it (must make the run fail)")
    args = ap.parse_args(argv)
    try:
        common.require_library()
    except common.MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    stamp = common.env_stamp(args.seed)
    print("# env " + common.emit(stamp))
    state = RunState(args.inject_fault)
    try:
        metrics = (run_traced if args.trace else run_timed)(args, state)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{state.attempted} operations, {state.failed} failed, "
          f"error_rate {state.failed / state.attempted:.6g} (failed/attempted)")
    for line in state.failures:
        print(f"# FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value!r} {unit}")
    print(common.emit({"correct": state.failed == 0, "attempted": state.attempted,
                       "failed": state.failed,
                       "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0 if state.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
