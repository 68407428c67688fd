"""Shared fixtures.

The sign conventions baked into the library (term sign of the residue sum,
couple sign of the tensor sum) are re-derived empirically before any suite
that depends on them runs.  The record of that derivation is written to
``artifacts/sign_arbitration.json`` so a reviewer can inspect which
candidate rules were tried and where the losers failed.

HYPOTHESIS_PROFILE=ci selects fixed examples and no deadline, so a failure
seen in CI reproduces locally with the same variable.
"""

import os
import pathlib

import pytest
from hypothesis import settings

from _arbitration import write_arbitration_record

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "artifacts" / "sign_arbitration.json"


@pytest.fixture(scope="session")
def sign_gates():
    record = write_arbitration_record(ARTIFACT)
    residue = record["residue_term_sign"]
    couple = record["couple_sign"]
    assert residue["selected"] == "descent-count", residue
    assert couple["selected"] == "signature-product", couple
    return record


def pytest_terminal_summary(terminalreporter):
    import _acceptance_report

    if not _acceptance_report.VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in _acceptance_report.VERDICTS:
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {name}: {verdict}")
