"""In-memory spans around the benchmark's calls into the library.

A span is ``[name, start, end, parent, op, attrs]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (or None),
``op`` the id of the benchmark operation that caused it (spans of one
operation share it), and ``attrs`` the counts measured at that boundary.

Public functions of ``fields``, ``counting``, ``quadforms`` and ``oracle``
are wrapped at module level in every library module that holds them, so a
call made inside another public function (``qf_histogram`` inside
``oracle_curve``, ``build_tower`` inside ``gauss_sum_numeric``) gets its own
child span.  Nothing inside the library is changed.

Counts that the library does not expose are computed from the arguments and
labelled as computed: histogram elements and cache hits from the requested
(p, s, n, i, a) keys, towers built from the requested (p, s, n) keys, and
scanned tuples from q^(2n) and q^(rn).
"""

from __future__ import annotations

import statistics
import time

TRACED = {
    "fields": ("build_tower",),
    "counting": ("count_curve", "count_hypersurface", "classify_curve", "classify_hypersurface",
                 "classify_curve_detail", "classify_hypersurface_detail"),
    "quadforms": ("build_gram", "rank_and_char", "predict_rank_char", "char_sum_closed_form",
                  "fq_matrix_rank"),
    "oracle": ("qf_histogram", "oracle_curve", "oracle_hypersurface", "oracle_direct",
               "oracle_hypersurface_direct", "char_sum_numeric", "gauss_sum_numeric",
               "gauss_sum_reference"),
}

# Per-layer metrics every workload measures; they go into the result line.
LAYER_METRICS = (
    ("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("oracle.import_s", "s"),
    ("fields.build_tower_s", "s"), ("fields.build_tower_max_s", "s"),
    ("fields.build_tower_calls", "count"),
    ("counting.count_s", "s"), ("counting.classify_s", "s"), ("counting.calls", "count"),
    ("quadforms.calls", "count"), ("oracle.calls", "count"),
    ("oracle.histogram_elements", "count"), ("oracle.histogram_cache_hit_ratio", "ratio"),
    ("oracle.direct_tuples", "count"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)

# Per-layer times that only some workloads exercise.  They are printed in the
# report with a reason when a workload does not reach them, and left out of
# the result line, which must hold the same metrics on every workload.
REPORT_ONLY = (
    ("cli.run_s", "s", ("cli.run",)),
    ("quadforms.build_gram_s", "s", ("quadforms.build_gram",)),
    ("quadforms.rank_and_char_s", "s", ("quadforms.rank_and_char",)),
    ("oracle.histogram_s", "s", ("oracle.qf_histogram",)),
    ("oracle.histogram_elements_per_s", "1/s", None),
    ("oracle.hypersurface_s", "s", ("oracle.oracle_hypersurface",)),
    ("oracle.direct_s", "s", ("oracle.oracle_direct", "oracle.oracle_hypersurface_direct")),
    ("oracle.direct_tuples_per_s", "1/s", None),
    ("oracle.char_sum_s", "s", ("oracle.char_sum_numeric",)),
    ("oracle.gauss_sum_s", "s", ("oracle.gauss_sum_numeric",)),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._towers_seen = set()
        self._hist_seen = set()

    def begin(self, name: str, attrs: dict = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, attrs])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _attrs(self, name: str, args: tuple) -> dict:
        if name == "fields.build_tower":
            key = tuple(args[:3])
            built = key not in self._towers_seen
            self._towers_seen.add(key)
            return {"built": built}
        if name == "oracle.qf_histogram":
            t, i, a = args[:3]
            key = (t.p, t.s, t.n, i, a)
            hit = key in self._hist_seen
            self._hist_seen.add(key)
            return {"hit": hit, "elements": 0 if hit else t.q ** t.n}
        if name == "oracle.oracle_direct":
            t = args[0].tower
            return {"tuples": t.q ** (2 * t.n)}
        if name == "oracle.oracle_hypersurface_direct":
            spec = args[0]
            return {"tuples": spec.tower.q ** (spec.tower.n * spec.r)}
        return None

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.begin(name, self._attrs(name, args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every TRACED function wherever a library module holds it."""
        for layer, names in TRACED.items():
            home = modules[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(original, f"{layer}.{fname}")
                for mod in modules.values():
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapped)


def import_cumulative_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``python -X importtime`` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == module:
            return int(line.split("|")[1]) / 1e6
    return 0.0


def self_times(spans: list) -> list:
    child = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent is not None:
            child[parent] += end - start
    return [(end - start) - child[k] for k, (name, start, end, *_rest) in enumerate(spans)]


def span_table(spans: list) -> dict:
    """name -> [calls, total_s, self_s]"""
    table = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += self_s
    return table


def layer_metrics(spans: list, processes: list, overhead_s: float) -> tuple:
    """Per-layer metrics from the spans of a traced run.

    ``processes`` holds one dict per traced child process with wall_s,
    internal_s, import_s and oracle_import_s.  Returns (metrics, notes,
    report): metrics maps each LAYER_METRICS name to its value, notes says
    how some of them were computed, and report maps each REPORT_ONLY name
    to (value, unit, note).
    """
    table = span_table(spans)
    selfs = self_times(spans)

    def self_sum(*names):
        return sum(table[n][2] for n in names if n in table)

    def calls(prefix):
        return sum(row[0] for name, row in table.items() if name.startswith(prefix))

    builds = [s for span, s in zip(spans, selfs)
              if span[0] == "fields.build_tower" and span[5]["built"]]
    hist = [span[5] for span in spans if span[0] == "oracle.qf_histogram"]
    hits = sum(1 for a in hist if a["hit"])
    elements = sum(a["elements"] for a in hist)
    tuples = sum(span[5]["tuples"] for span in spans
                 if span[0] in ("oracle.oracle_direct", "oracle.oracle_hypersurface_direct"))
    metrics = {
        "cli.interpreter_s": statistics.median(p["wall_s"] - p["internal_s"] for p in processes),
        "cli.import_s": statistics.median(p["import_s"] for p in processes),
        "oracle.import_s": statistics.median(p["oracle_import_s"] for p in processes),
        "fields.build_tower_s": sum(builds),
        "fields.build_tower_max_s": max(builds, default=0.0),
        "fields.build_tower_calls": len(builds),
        "counting.count_s": self_sum("counting.count_curve", "counting.count_hypersurface"),
        "counting.classify_s": self_sum(*(n for n in table if n.startswith("counting.classify"))),
        "counting.calls": calls("counting."),
        "quadforms.calls": calls("quadforms."),
        "oracle.calls": calls("oracle."),
        "oracle.histogram_elements": elements,
        "oracle.histogram_cache_hit_ratio": hits / len(hist) if hist else 0.0,
        "oracle.direct_tuples": tuples,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
    }
    notes = {
        "oracle.histogram_elements": "computed from requested (p,s,n,i,a) keys: q^n per miss",
        "oracle.histogram_cache_hit_ratio": (f"computed: {hits} hits of {len(hist)} requested keys"
                                             if hist else "no histogram requests on this workload"),
        "oracle.direct_tuples": "computed: q^(2n) per oracle_direct, q^(rn) per oracle_hypersurface_direct",
        "fields.build_tower_calls": "computed: first request of each (p,s,n) in a process",
    }
    report = {}
    for name, unit, span_names in REPORT_ONLY:
        if span_names is not None:
            n_calls = sum(table[n][0] for n in span_names if n in table)
            value = self_sum(*span_names)
            note = f"self time over {n_calls} calls" if n_calls else "not exercised on this workload"
        elif name == "oracle.histogram_elements_per_s":
            busy = self_sum("oracle.qf_histogram")
            value = elements / busy if busy else 0.0
            note = (f"computed: {elements} elements / {busy:.4f} s histogram self time"
                    if busy else "not exercised on this workload")
        else:
            busy = self_sum("oracle.oracle_direct", "oracle.oracle_hypersurface_direct")
            value = tuples / busy if busy else 0.0
            note = (f"computed: {tuples} tuples / {busy:.4f} s scan self time"
                    if busy else "not exercised on this workload")
        report[name] = (value, unit, note)
    return metrics, notes, report
