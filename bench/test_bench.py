"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They pin the deterministic work counts of the fixed theta cases, check that
workloads are a function of the seed, and that every kind of answer check
rejects a wrong answer.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
import kostant  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "r, value, terms, orders, distinct_orders",
    [(4, 64, 16, 20, 2), (5, 1024, 66, 108, 5), (6, 32768, 402, 804, 13)],
)
def test_theta_counts(r, value, terms, orders, distinct_orders):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = kostant.multiplicity(workloads.theta_canonical(r), (0,) * (r + 1))
    finally:
        tracer.uninstall()
    m = tracer.report()["metrics"]
    assert got == value
    assert m["permsearch.results"] == terms
    assert m["residues.args"] == terms
    assert m["residues.orders"] == orders
    assert m["residues.distinct_orders"] == distinct_orders
    assert m["formulas.calls"] == m["parallel.calls"] == 1


def test_ray_samples_and_restore():
    original = kostant.formulas.multiplicity
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fit = kostant.multiplicity_polynomial(workloads.theta_canonical(3), (0,) * 4)
    finally:
        tracer.uninstall()
    report = tracer.report()
    assert report["absent"] == []
    assert [int(c) for c in fit.coefficients] == [1, 3, 3, 1]
    assert report["metrics"]["formulas.ray_samples"] == 3 + 3  # d + 3 samples, d = 3
    assert kostant.formulas.multiplicity is original


def test_cli_layer_counts_records():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        kostant.cli.run_record({"command": "kostant", "rank": 2, "vector": "1,0,-1"})
    finally:
        tracer.uninstall()
    m = tracer.report()["metrics"]
    assert m["cli.records"] == 1
    assert m["residues.args"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_follow_the_seed(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)


def test_batch_mix_is_fixed_and_seeded():
    q1, _ = workloads.build("batch-mixed", 1)
    q2, _ = workloads.build("batch-mixed", 2)
    assert q1 != q2
    assert len(q1) == workloads.BATCH_RECORDS
    assert workloads.mix(q1)["commands"] == workloads.mix(q2)["commands"]
    assert all("threads" not in q["record"] for q in q1)


def test_unfrozen_rank3_ray_is_pinned_beyond_two_points():
    """A polynomial that is right at N = 1, 2 only is rejected."""
    lam, mu = [1, 1, 0], [1, 1, 0]
    fit = kostant.multiplicity_polynomial(workloads.canonical(lam), workloads.canonical(mu))
    right = [Fraction(c) for c in fit.coefficients] + [Fraction(0)] * 3
    # plus (N - 1)(N - 2) = N^2 - 3N + 2, which vanishes at N = 1, 2
    wrong = [right[0] + 2, right[1] - 3, right[2] + 1] + right[3:]
    check = ("mult_ray", lam, mu, None)
    assert workloads.expected_ok(check, ",".join(map(str, right)))
    assert not workloads.expected_ok(check, ",".join(map(str, wrong)))


def _wrong(answer: str) -> str:
    head, _, tail = answer.partition(",")
    return ",".join(filter(None, [str(Fraction(head) + 1), tail]))


def test_every_check_kind_accepts_the_answer_and_rejects_a_wrong_one():
    queries, expect = workloads.build("batch-mixed", 3)
    rq, rexpect = workloads.build("ray-fit", 3)
    cases = {}
    for q, check in zip(queries + rq, expect + rexpect):
        if check[0] not in cases and (check[0] != "tensor_ray" or q["op"] == "tensor_poly"):
            cases[check[0]] = (q, check)
    assert set(cases) == {"value", "dp", "freudenthal", "lr", "mult_ray", "tensor_ray"}
    for kind, (q, check) in cases.items():
        answer = child._bind(q)()
        assert workloads.expected_ok(check, answer), kind
        assert not workloads.expected_ok(check, _wrong(answer)), kind
