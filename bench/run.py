"""Benchmark of the kostant library: end-to-end and per-layer numbers.

    python3 bench/run.py --workload cold-heavy --seed 1 --seconds 40 --trace 0

Run from the root of a checkout that holds src/kostant.  A run makes the
workload's query list from --seed (workloads.py), then starts one fresh
interpreter after another (child.py), each answering the whole list once
with cold caches, until the next pass would overrun --seconds.  One pass
runs at a time; the library forks its own pool workers inside it.  Every
answer is checked after the passes, outside the timed region.

--trace 0 prints the end-to-end metrics, each the median over the passes:
  setup_s        interpreter launch until the first query can be sent
  wall_s         answering the whole list
  cpu_s          user + system time of the caller and its pool workers
                 while answering
  peak_rss_mb    peak resident memory of the caller
  query_p50_ms   median latency of one query within a pass

--trace 1 alternates traced and untraced passes and prints the per-layer
metrics of tracing.py, each the median over the traced passes, and
trace.overhead_ms, the traced minus the untraced wall time of a pass.

The last line of output is the result object.  The line before it holds
the run metadata, failed_share, the batch mix, query_p99_ms with its sample
count, the times of the named fixed queries and, for batch-mixed,
records_per_s (the query count over wall_s, so not gated beside wall_s);
none of these is gated.  A traced run adds cache_hit_share, the share of
the caller's partition lookups that hit its cache, and pool_wait_share,
parallel.pool_ms over the wall time of the pass.
Exits 2 without a result when src/kostant is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
PASS_TIMEOUT_S = 150

# Fixed queries whose own time is reported by name on the metadata line.
NAMED = {"theta6": "theta6_mult_s", "tensor5": "tensor5_s", "theta5_poly": "theta5_poly_s"}


def run_pass(queries, trace: bool) -> dict:
    """Answer the query list once in a fresh interpreter."""
    payload = json.dumps({"trace": trace, "queries": queries})
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, text=True,
    )
    try:
        out, err = proc.communicate(payload, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "pass timed out"}
    if proc.returncode != 0:
        return {"error": f"pass exited {proc.returncode}: {err.strip()[-500:]}"}
    result = json.loads(out)
    result["setup_s"] = result["ready"] - launched
    result["traced"] = trace
    return result


def run_passes(queries, seconds: float, trace: bool):
    """Passes until the next one would overrun `seconds`, at least MIN_PASSES.

    With trace, passes alternate traced and untraced, starting traced.
    """
    passes = []
    started = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(queries, trace and len(passes) % 2 == 0))
        if "error" in passes[-1]:
            break
        longest = max(longest, time.monotonic() - t0)
        if len(passes) >= MIN_PASSES and time.monotonic() - started + longest > seconds:
            break
    return passes


def check_answers(passes, expect):
    """(attempted, failed) over every query of every pass."""
    from workloads import expected_ok

    verdict = {}
    attempted = failed = 0
    for p in passes:
        if "error" in p:
            attempted += len(expect)
            failed += len(expect)
            continue
        for res, check in zip(p["results"], expect):
            attempted += 1
            if "error" in res:
                failed += 1
                continue
            key = (json.dumps(check), res["value"])
            if key not in verdict:
                try:
                    verdict[key] = expected_ok(check, res["value"])
                except Exception:  # an oracle that cannot confirm the answer fails it
                    verdict[key] = False
            failed += not verdict[key]
    return attempted, failed


def _percentile(values, q):
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def _latency_ms(passes, q):
    """Median over the passes of the q-th percentile of their query latencies."""
    return statistics.median(_percentile([r["ms"] for r in p["results"] if "ms" in r], q)
                             for p in passes)


def end_to_end(passes) -> dict:
    med = statistics.median
    return {
        "setup_s": (med(p["setup_s"] for p in passes), "s"),
        "wall_s": (med(p["wall_s"] for p in passes), "s"),
        "cpu_s": (med(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (med(p["rss_kb"] / 1024.0 for p in passes), "MB"),
        "query_p50_ms": (_latency_ms(passes, 50), "ms"),
    }


def per_layer(passes):
    """(metrics, absent names) from the traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    names = sorted({k for p in traced for k in p["layers"]["metrics"]})
    metrics = {
        name: (statistics.median_low(p["layers"]["metrics"][name] for p in traced), _unit(name))
        for name in names
    }
    if traced and plain:
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
        metrics["trace.overhead_ms"] = (overhead * 1000.0, "ms")
    return metrics, traced[0]["layers"]["absent"] if traced else []


def _unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_share"):
        return "share"
    return "count"


def reported(passes, queries) -> dict:
    """Figures reported on the metadata line but not gated."""
    out = {
        "query_p99_ms": _latency_ms(passes, 99),
        "latency_samples": sum(len(p["results"]) for p in passes),
    }
    for i, q in enumerate(queries):
        if q.get("id") in NAMED:
            out[NAMED[q["id"]]] = statistics.median(p["results"][i].get("ms", 0.0) for p in passes) / 1000.0
    if queries[0]["op"] == "record":
        out["records_per_s"] = statistics.median(len(queries) / p["wall_s"] for p in passes)
    traced = [p["layers"]["metrics"] for p in passes if p["traced"]]
    if traced and "residues.cache_hits" in traced[0]:
        out["cache_hit_share"] = statistics.median(
            m["residues.cache_hits"] / max(1, m["residues.cache_hits"] + m["residues.cache_misses"])
            for m in traced)
    if traced and "parallel.pool_ms" in traced[0]:
        out["pool_wait_share"] = statistics.median(
            p["layers"]["metrics"]["parallel.pool_ms"] / (p["wall_s"] * 1000.0)
            for p in passes if p["traced"])
    return out


def _git_commit():
    """HEAD of the checkout; None outside a repository or without git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cold-heavy", "ray-fit", "batch-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kostant" / "__init__.py").is_file():
        print(f"no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    meta = metadata()
    queries, expect = workloads.build(args.workload, args.seed)
    import kostant  # noqa: F401  (compiles the library once, before any pass)

    passes = run_passes(queries, args.seconds, bool(args.trace))
    attempted, failed = check_answers(passes, expect)
    ok = [p for p in passes if "error" not in p]
    if not ok:
        print(passes[0]["error"], file=sys.stderr)
        return 1
    meta.update(workload=args.workload, seed=args.seed, passes=len(passes),
                queries_per_pass=len(queries), failed_share=failed / attempted,
                errors=[p["error"] for p in passes if "error" in p])
    if args.workload == "batch-mixed":
        meta["mix"] = workloads.mix(queries)
    meta.update(reported(ok, queries))
    if args.trace:
        metrics, meta["absent"] = per_layer(ok)
    else:
        metrics = end_to_end(ok)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
