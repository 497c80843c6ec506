"""Helpers shared by the benchmark runner, its worker and its CLI probe.

Everything here is stdlib-only.  The library is always imported from the
checkout's own ``src/`` directory, never from an installed copy.
"""

from __future__ import annotations

import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "_out")

# Host-speed adjustment.  The host is shared, and its speed switches between
# states about 1.5x apart that last from seconds to minutes; interpreter
# start-up, imports, numpy kernels and pure-Python arithmetic all slow down
# together (CPU time as much as wall time, so it is not CPU steal).  A fixed
# pure-Python loop that does not touch the library is timed before and after
# each operation (or each block of short operations), and the operation's
# time is scaled to a host on which that loop takes REF_NOMINAL_S.
REF_ITERATIONS = 16000
REF_REPEATS = 5
REF_NOMINAL_S = 0.001


class MissingLibrary(RuntimeError):
    pass


def require_library() -> None:
    """Refuse to run unless the checkout holds the library sources."""
    if not os.path.isfile(os.path.join(SRC, "artinschreier", "__init__.py")):
        raise MissingLibrary(f"no library sources under {os.path.relpath(SRC, ROOT)}/artinschreier")


def use_checkout_library() -> None:
    """Put the checkout's src/ first on sys.path (in-process imports)."""
    require_library()
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for child processes: the checkout's src/ and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list, timeout: float) -> dict:
    """Run one child process to completion and return its outcome.

    Returns rc, stdout, stderr, wall_s (spawn to reap) and rss_mb (the
    child's own peak resident set, from wait4).  A child that outlives
    ``timeout`` is killed and reported with rc = None.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), text=True,
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timed_out = threading.Event()

    def _kill() -> None:
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, _kill)
    timer.start()
    err_chunks = []
    drain = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.stderr.close()
    return {"rc": None if timed_out.is_set() else proc.returncode,
            "stdout": out, "stderr": "".join(err_chunks), "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0}


def reference_s() -> float:
    """Fastest of a few timings of the reference loop: the host's speed now."""
    best = math.inf
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += (i * i) % 7
        best = min(best, time.perf_counter() - t0)
    return best


def host_scale(ref_before: float, ref_after: float) -> float:
    """Factor that takes a time measured between two reference timings to
    the nominal host speed."""
    return REF_NOMINAL_S / ((ref_before + ref_after) / 2.0)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def env_stamp(seed: int) -> dict:
    """Where and on what a result was measured; never compare across stamps."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unavailable"
    return {"commit": _commit(), "seed": seed,
            "python": platform.python_version(),
            "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "cpu": _cpu_model(),
            "platform": platform.platform()}


def emit(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))
