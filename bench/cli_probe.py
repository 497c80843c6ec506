"""Traced stand-in for one ``python -m artinschreier.cli`` call.

    python3 -X importtime bench/cli_probe.py '<call as JSON>'

Times, in this order, the import of ``artinschreier.cli``, ``build_tower``,
the count or classify call, and ``cli.run(argv)`` on the now-cached tower,
with spans around each.  Prints one JSON object with the CLI's exit code and
stdout (checked exactly like an untraced call), the spans and the process's
internal time; run.py subtracts that from the wall time it measured to
get interpreter start-up and teardown.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    call = json.loads(sys.argv[1])
    common.use_checkout_library()
    tracer = Tracer()
    tracer.op = 0
    idx = tracer.begin("cli.import")
    import artinschreier.cli as cli
    tracer.end(idx)
    import_s = tracer.spans[idx][2] - tracer.spans[idx][1]
    from artinschreier import counting, fields, oracle, quadforms
    tracer.install({"fields": fields, "counting": counting, "quadforms": quadforms,
                    "oracle": oracle, "cli": cli})

    t = fields.build_tower(call["p"], call["s"], call["n"])
    lam = tuple(call["lam"])
    if workloads.cli_is_hyper(call):
        a_list = call["a"] or [1] * len(call["i"])
        spec = counting.HypersurfaceSpec(t, tuple(zip(a_list, call["i"])), lam)
        if call["cmd"] == "classify":
            counting.classify_hypersurface_detail(spec)
        else:
            counting.count_hypersurface(spec)
    else:
        spec = counting.CurveSpec(t, call["i"][0], lam)
        if call["cmd"] == "classify":
            counting.classify_curve_detail(spec)
        else:
            counting.count_curve(spec)

    out = io.StringIO()
    idx = tracer.begin("cli.run")
    with contextlib.redirect_stdout(out):
        rc = cli.run(workloads.cli_argv(call))
    tracer.end(idx)
    print(common.emit({"rc": rc, "stdout": out.getvalue(), "spans": tracer.spans,
                       "import_s": import_s, "internal_s": time.perf_counter() - T_START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
