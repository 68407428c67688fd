"""Empirical selection of the sign conventions, recorded as an artifact."""

import json
import pathlib

from _arbitration import RESIDUE_DOMAINS, cone_box, write_arbitration_record


def test_artifact_written(sign_gates, tmp_path):
    # the session fixture already wrote the canonical artifact; write a
    # scratch copy too and check it round-trips as JSON
    path = tmp_path / "record.json"
    record = write_arbitration_record(path)
    on_disk = json.loads(path.read_text())
    assert on_disk["residue_term_sign"]["selected"] == record["residue_term_sign"]["selected"]
    assert on_disk["couple_sign"]["selected"] == record["couple_sign"]["selected"]


def test_residue_sign_selected(sign_gates):
    record = sign_gates["residue_term_sign"]
    assert record["selected"] == "descent-count"
    loser = record["candidates"]["inversion-count"]
    assert loser["passed"] is False
    assert loser["first_failure"] is not None


def test_couple_sign_selected(sign_gates):
    record = sign_gates["couple_sign"]
    assert record["selected"] == "signature-product"
    loser = record["candidates"]["length-product-parity"]
    assert loser["passed"] is False


def test_whole_record_is_pinned(sign_gates):
    # every count and first counterexample, not only the survivors
    residue = sign_gates["residue_term_sign"]["candidates"]
    assert residue == {
        "descent-count": {"passed": True, "checked": 311, "first_failure": None},
        "inversion-count": {"passed": False, "checked": 67,
                            "first_failure": {"a": [1, 0, -1, 0], "expected": 2, "got": 6}},
    }
    couple = sign_gates["couple_sign"]["candidates"]
    assert couple == {
        "signature-product": {"passed": True, "checked": 769, "first_failure": None},
        "length-product-parity": {"passed": False, "checked": 5, "first_failure": {
            "lambda": ["0", "0"], "mu": ["1", "-1"], "nu": ["0", "0"], "expected": 0, "got": 2}},
    }


def test_cone_box_contents():
    pts = list(cone_box(2, 2))
    assert (0, 0, 0) in pts
    assert (2, -1, -1) in pts
    assert all(sum(p) == 0 for p in pts)
    assert all(max(map(abs, p)) <= 2 for p in pts)


def test_domains_cover_multiple_ranks():
    ranks = {rank for rank, _ in RESIDUE_DOMAINS}
    assert {2, 3, 4} <= ranks
