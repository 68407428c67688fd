"""One fresh process of a benchmark pass: the caller and the library in one.

Reads {"trace": bool, "queries": [...]} as JSON on stdin, answers every
query once through the public API, and writes one JSON object to stdout.
The library forks its own pool workers; nothing here starts a process.

Run only by run.py, from the root of a checkout that holds src/kostant.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import kostant  # noqa: E402
import kostant.cli  # noqa: E402


def _vec(entries):
    return tuple(Fraction(x) for x in entries)


def _render(value) -> str:
    if isinstance(value, int):
        return str(value)
    coefficients = getattr(value, "coefficients", None)
    if coefficients is not None:
        return ",".join(str(c) for c in coefficients)
    return f"fit-failed[{getattr(value, 'reason', value)}]"


def _bind(query):
    """Turn one JSON query into a zero-argument call, outside the timed region.

    Names are looked up on the module at call time, so a traced pass sees
    the wrappers tracing.py installs.
    """
    op = query["op"]
    if op == "record":
        record = query["record"]
        return lambda: kostant.cli.run_record(record)["value"]
    if op == "kostant":
        a = _vec(query["a"])
        return lambda: _render(kostant.kostant_partition(a))
    weights = [_vec(query[k]) for k in ("lam", "mu", "nu") if k in query]
    fn_name = {
        "mult": "multiplicity",
        "tensor": "tensor_product",
        "mult_poly": "multiplicity_polynomial",
        "tensor_poly": "tensor_polynomial",
    }[op]
    return lambda: _render(getattr(kostant, fn_name)(*weights))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    request = json.load(sys.stdin)
    calls = [_bind(q) for q in request["queries"]]
    tracer = None
    if request.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()
    cpu0 = _cpu_s()
    results = []
    for call in calls:
        started = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # a failed query is counted, not fatal
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append({"value": value, "ms": (time.perf_counter() - started) * 1000.0})
    end = time.monotonic()
    cpu = _cpu_s() - cpu0
    out = {
        "ready": ready,
        "wall_s": end - ready,
        "cpu_s": cpu,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.report()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
