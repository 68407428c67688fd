"""Record a BENCH_<n>.json: the benchmark harness run on two checkouts.

    python3 tools/bench_record.py --parent ../parent --change . --seed 11 \
        --seconds 8 --runs 5 --out BENCH_<n>.json

Each checkout is a directory that holds bench/run.py and src/kostant, such
as a `git archive` of a commit.  Per workload, the harness runs --runs times
untraced on each checkout, the two sides alternating which goes first, and
once traced.  The file records, per side and workload, the median and the
interquartile range of each end-to-end metric and of each named figure of
the metadata line, every run's values, the traced per-layer counts and the
run metadata; it also keeps the (parent, change) pairs of every metric.
It judges nothing: a claim is read off the pairs.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cold-heavy", "ray-fit", "batch-mixed")
SIDES = ("parent", "change")
# Figures of the harness's metadata line that are recorded like the metrics.
NAMED = ("theta6_mult_s", "tensor5_s", "theta5_poly_s", "records_per_s")


def run_harness(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One bench/run.py call in `checkout`: its metadata line and result object."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    meta, result = json.loads(out[-2])["meta"], json.loads(out[-1])
    return {"meta": meta, "result": result}


def spread(values: list) -> dict:
    """Median, quartiles and interquartile range of a sample, with the sample."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def summary(plain: list, traced: dict) -> dict:
    """One side's figures for one workload from its untraced runs and its traced run."""
    metrics = {name: [run["result"]["metrics"][name]["value"] for run in plain]
               for name in plain[0]["result"]["metrics"]}
    named = {name: [run["meta"][name] for run in plain] for name in NAMED if name in plain[0]["meta"]}
    return {
        "end_to_end": {name: dict(spread(values), unit=plain[0]["result"]["metrics"][name]["unit"])
                       for name, values in metrics.items()},
        "named": {name: spread(values) for name, values in named.items()},
        "correct": all(run["result"]["correct"] for run in plain + [traced]),
        "failed": sum(run["result"]["failed"] for run in plain + [traced]),
        "traced": {name: m["value"] for name, m in traced["result"]["metrics"].items()},
        "absent": traced["meta"].get("absent"),
        "meta": [run["meta"] for run in plain],
    }


def record(checkouts: dict, seed: int, seconds: float, runs: int, harness=run_harness) -> dict:
    """Every workload on both sides: `runs` alternated untraced pairs, then one traced run each."""
    out = {"seed": seed, "seconds": seconds, "runs": runs, "workloads": list(WORKLOADS),
           "sides": {side: {"checkout": str(checkouts[side]), "workloads": {}} for side in SIDES},
           "pairs": {}}
    for workload in WORKLOADS:
        plain = {side: [] for side in SIDES}
        for i in range(runs):
            for side in SIDES[::-1] if i % 2 else SIDES:
                plain[side].append(harness(checkouts[side], workload, seed, seconds, False))
        for side in SIDES:
            traced = harness(checkouts[side], workload, seed, seconds, True)
            out["sides"][side]["workloads"][workload] = summary(plain[side], traced)
        sides = [out["sides"][side]["workloads"][workload]["end_to_end"] for side in SIDES]
        out["pairs"][workload] = {name: list(zip(sides[0][name]["runs"], sides[1][name]["runs"]))
                                  for name in sides[0]}
    for side in SIDES:
        first = out["sides"][side]["workloads"][WORKLOADS[0]]["meta"][0]
        out["sides"][side].update(commit=first.get("commit"), src_lines=first.get("src_lines"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    data = record({"parent": args.parent, "change": args.change}, args.seed, args.seconds, args.runs)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
