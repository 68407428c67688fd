"""Command-line interface behavior, including batch mode and exit codes."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from kostant.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_RESOURCE,
    main,
    run_record,
)
from kostant.vectors import ValidationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleCommands:
    def test_kostant(self, capsys):
        code, out, _ = run_cli(capsys, "kostant", "--rank", "2", "1,0,-1")
        assert code == EXIT_OK
        assert out.strip() == "2"

    def test_mult_canonical(self, capsys):
        code, out, _ = run_cli(
            capsys, "mult", "--rank", "2", "--lambda", "1,0,-1", "--mu", "0,0,0"
        )
        assert code == EXIT_OK
        assert out.strip() == "2"

    def test_mult_largest_small_weight(self, capsys):
        code, out, _ = run_cli(
            capsys, "mult", "--rank", "2", "--basis", "canonical",
            "--lambda", "2,1,-3", "--mu", "0,0,0",
        )
        assert code == EXIT_OK
        assert out.strip() == "2"

    def test_double_dash_guards_leading_minus(self, capsys):
        # (-1,0,1) starts with '-'; the separator keeps argparse happy
        code, out, _ = run_cli(capsys, "kostant", "--rank", "2", "--", "-1,0,1")
        assert code == EXIT_OK
        assert out.strip() == "0"

    def test_mult_fundamental_basis(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mult", "--rank", "2", "--basis", "fundamental",
            "--lambda", "1,1", "--mu", "0,0",
        )
        assert code == EXIT_OK
        assert out.strip() == "2"

    def test_tensor(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tensor", "--rank", "2", "--basis", "fundamental",
            "--lambda", "1,1", "--mu", "1,1", "--nu", "1,1",
        )
        assert code == EXIT_OK
        assert out.strip() == "2"

    def test_convert_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "--rank", "2", "--to", "fundamental", "2,1,-3"
        )
        assert code == EXIT_OK
        assert out.strip() == "1,4"
        code, out, _ = run_cli(
            capsys, "convert", "--rank", "2", "--to", "canonical", "1,4"
        )
        assert code == EXIT_OK
        assert out.strip() == "2,1,-3"

    def test_convert_emits_exact_rationals(self, capsys):
        code, out, _ = run_cli(
            capsys, "convert", "--rank", "1", "--to", "canonical", "1"
        )
        assert code == EXIT_OK
        assert out.strip() == "1/2,-1/2"

    def test_poly_mult(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "poly-mult", "--rank", "3", "--basis", "fundamental",
            "--lambda", "1,1,7", "--mu", "0,0,0",
        )
        assert code == EXIT_OK
        assert out.strip() == "1,3,3,1"

    def test_oracle_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "kostant", "--rank", "2", "--oracle", "2,0,-2"
        )
        assert code == EXIT_OK
        assert "oracle: agree" in out

    def test_oracle_outside_box_is_skipped(self, capsys):
        code, out, _ = run_cli(
            capsys, "kostant", "--rank", "2", "--oracle", "100,0,-100"
        )
        assert code == EXIT_OK
        assert "oracle: skipped" in out

    def test_timing_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "kostant", "--rank", "2", "--timing", "1,0,-1"
        )
        assert code == EXIT_OK
        assert "time_ms:" in out


class TestValidation:
    def test_float_entry_rejected(self, capsys):
        code, _, err = run_cli(capsys, "kostant", "--rank", "2", "0.5,0,-0.5")
        assert code == EXIT_INVALID
        assert "malformed-rational" in err

    def test_wrong_length_rejected(self, capsys):
        code, _, err = run_cli(capsys, "kostant", "--rank", "2", "1,-1")
        assert code == EXIT_INVALID
        assert "bad-length" in err

    def test_non_dominant_lambda_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "mult", "--rank", "2", "--lambda", "0,1,-1", "--mu", "0,0,0"
        )
        assert code == EXIT_INVALID
        assert "not-dominant" in err

    def test_rational_syntax_enforced(self, capsys):
        code, _, err = run_cli(
            capsys, "convert", "--rank", "1", "--to", "canonical", "1/0"
        )
        assert code == EXIT_INVALID


class TestBatch:
    def test_stream_of_records(self, capsys, monkeypatch):
        import io

        lines = "\n".join([
            json.dumps({"command": "kostant", "rank": 2, "vector": "1,0,-1"}),
            json.dumps({"command": "mult", "rank": 2, "lambda": "1,0,-1",
                        "mu": "0,0,0", "oracle": True}),
            "",
            json.dumps({"command": "kostant", "rank": 2, "vector": "0.5,0,-0.5"}),
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0]["value"] == "2"
        assert rows[1]["value"] == "2"
        assert rows[1]["oracle"] == "agree"
        assert "time_ms" in rows[0]
        assert rows[2]["error"] == "malformed-rational"
        assert code == EXIT_INVALID

    def test_malformed_json_line(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("{nope\n"))
        code, out, _ = run_cli(capsys, "batch")
        row = json.loads(out.strip())
        assert row["error"] == "malformed-json"
        assert code == EXIT_INVALID

    def test_oracle_out_of_box_reports_null(self, capsys, monkeypatch):
        import io

        line = json.dumps({"command": "kostant", "rank": 2,
                           "vector": "100,0,-100", "oracle": True})
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        code, out, _ = run_cli(capsys, "batch")
        row = json.loads(out.strip())
        assert row["oracle"] is None
        assert code == EXIT_OK

    def test_stepped_ray_rendering(self, capsys, monkeypatch):
        import io

        lines = "\n".join(json.dumps(r) for r in [
            {"command": "poly-tensor", "rank": 3, "basis": "fundamental",
             "lambda": "1,1,1", "mu": "1,1,1", "nu": "1,1,1"},
            {"command": "poly-mult", "rank": 2, "lambda": "1,0,0", "mu": "1/3,1/3,1/3"},
            {"command": "poly-mult", "rank": 2, "lambda": "1,0,-1", "mu": "0,0,0"},
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["value"] for row in rows] == ["1,7/4,9/8,3/8;step=2", "1;step=3", "1,1"]
        assert code == EXIT_OK

    @pytest.mark.parametrize("bad, code", [
        (json.dumps([1]), "bad-record"),
        (json.dumps({"command": "mult", "rank": 2}), "missing-field"),
        (json.dumps({"command": "kostant", "rank": 2, "vector": "1,0,-1", "threads": 0}),
         "bad-threads"),
        (json.dumps({"command": "kostant", "rank": 2, "vector": "1,0,-1", "threads": "x"}),
         "bad-threads"),
        (json.dumps({"command": "kostant", "rank": True, "vector": "1,-1"}), "bad-rank"),
        (json.dumps({"command": ["mult"], "rank": 2}), "unknown-command"),
        ("[" * 100000 + "]" * 100000, "malformed-json"),
        (json.dumps({"command": "kostant", "rank": 2, "vector": "1,0,-1", "oracle": "false"}),
         "bad-oracle"),
    ], ids=["not-object", "missing-key", "zero-threads", "string-threads", "bool-rank",
            "list-command", "deep-nesting", "string-oracle"])
    def test_bad_record_does_not_end_stream(self, capsys, monkeypatch, bad, code):
        import io

        good = json.dumps({"command": "kostant", "rank": 2, "vector": "1,0,-1"})
        monkeypatch.setattr("sys.stdin", io.StringIO(bad + "\n" + good))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0]["error"] == code
        assert rows[1]["value"] == "2"
        assert exit_code == EXIT_INVALID

    def test_error_lines_carry_the_stdin_line_number(self, capsys, monkeypatch):
        import io

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("kostant.cli.tensor_product", broken)
        lines = "\n".join([
            json.dumps({"command": "kostant", "rank": 2, "vector": "1,0,-1"}),
            "",
            "{nope",
            json.dumps({"command": "kostant", "rank": 2, "vector": "1,0,-2"}),
            "   ",
            json.dumps({"command": "tensor", "rank": 1, "lambda": "1,0", "mu": "1,0",
                        "nu": "2,0"}),
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0] == {"value": "2", "time_ms": rows[0]["time_ms"]}
        assert [(row["error"], row["line"]) for row in rows[1:]] == [
            ("malformed-json", 3), ("not-zero-sum", 4), ("internal-error", 6)]
        assert exit_code == EXIT_INTERNAL

    @pytest.mark.parametrize("exc, error, exit_expected", [
        (AssertionError("alternating multiplicity sum came out negative"), "internal-error",
         EXIT_INTERNAL),
        (MemoryError("out of memory"), "resource-exhausted", EXIT_RESOURCE),
    ], ids=["internal-error", "resource-exhausted"])
    def test_failure_inside_a_record_does_not_end_stream(self, capsys, monkeypatch,
                                                         exc, error, exit_expected):
        import io

        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr("kostant.cli.multiplicity", broken)
        lines = "\n".join(json.dumps(r) for r in [
            {"command": "mult", "rank": 2, "lambda": "1,0,-1", "mu": "0,0,0"},
            {"command": "kostant", "rank": 2, "vector": "1,0,-1"},
            {"command": "kostant", "rank": 2, "vector": "x"},
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        exit_code, out, err = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[0]["error"] == error
        assert rows[0]["line"] == 1
        assert str(exc) in rows[0]["message"]
        assert rows[1]["value"] == "2"
        assert rows[2]["error"] == "malformed-rational"
        assert exit_code == exit_expected
        assert "Traceback" not in err


class TestRunRecord:
    def test_unknown_command(self):
        from kostant.vectors import ValidationError

        with pytest.raises(ValidationError) as err:
            run_record({"command": "frobnicate", "rank": 2})
        assert err.value.code == "unknown-command"

    def test_bad_rank(self):
        from kostant.vectors import ValidationError

        with pytest.raises(ValidationError) as err:
            run_record({"command": "kostant", "rank": 0, "vector": "0,0"})
        assert err.value.code == "bad-rank"

    def test_vector_may_be_json_list(self):
        result = run_record(
            {"command": "kostant", "rank": 2, "vector": [1, 0, -1]}
        )
        assert result["value"] == "2"

    def test_poly_tensor_record(self):
        result = run_record({
            "command": "poly-tensor", "rank": 2, "basis": "fundamental",
            "lambda": "1,1", "mu": "1,1", "nu": "1,1",
        })
        assert result["value"] == "1,1"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12,
)
COMMANDS = ["mult", "tensor", "kostant", "convert", "poly-mult", "poly-tensor"]


@st.composite
def near_valid_records(draw):
    """A real command at rank 1-4 with short vectors of small ints, then up to two
    keys changed: dropped, given a p/q entry or a wrong length, or an arbitrary value."""
    rank = draw(st.integers(1, 4))
    basis = draw(st.sampled_from(["canonical", "fundamental"]))
    size = rank if basis == "fundamental" else rank + 1

    def weight(dominant):
        xs = draw(st.lists(st.integers(0 if dominant else -2, 2), min_size=size, max_size=size))
        return sorted(xs, reverse=True) if dominant and basis == "canonical" else xs

    head = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    record = {"command": draw(st.sampled_from(COMMANDS)), "rank": rank, "basis": basis,
              "lambda": weight(True), "mu": weight(draw(st.booleans())), "nu": weight(True),
              "vector": head + [-sum(head)], "to": "fundamental",
              "oracle": draw(st.booleans()), "threads": draw(st.sampled_from([None, 1]))}
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(record)))
        change = draw(st.integers(0, 3))
        if change == 0:
            del record[key]
        elif change == 1 and isinstance(record[key], list):
            p_q = draw(st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 4)))
            record[key] = ",".join(map(str, (record[key] + [p_q])[draw(st.integers(0, 1)):]))
        else:
            record[key] = draw(json_values)
    return record


def _answers_or_refuses(record):
    try:
        result = run_record(record)
    except ValidationError:
        return
    assert isinstance(result, dict)
    assert isinstance(result["value"], str)


class TestRunRecordFuzz:
    # threads >= 2 is never drawn: a fuzz example must not start a pool.
    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_arbitrary_json(self, record):
        _answers_or_refuses(record)

    @settings(max_examples=250, deadline=None)
    @given(near_valid_records())
    def test_near_valid_records(self, record):
        _answers_or_refuses(record)
