"""Command-line interface behavior, including batch mode and exit codes."""

import argparse
import ast
import json
import os
import pathlib
import re
import shlex
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kostant.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_RESOURCE,
    build_parser,
    main,
    run_record,
)
from kostant.residues import kostant_partition
from kostant.vectors import ValidationError, as_vector


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


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(command line, printed lines) for every "$ kostant ..." line of README.md."""
    examples, current = [], None
    for line in README.read_text().splitlines():
        if line.startswith("$ kostant "):
            current = (line[2:], [])
            examples.append(current)
        elif line.startswith("$ ") or line.startswith("```"):
            current = None
        elif current is not None:
            current[1].append(line)
    return examples


def _readme_python():
    """The python code block of README.md (the library quick start)."""
    return README.read_text().split("```python\n", 1)[1].split("```", 1)[0]


# "expr  # 2" or "expr  # (1, 3, 3, 1), ...": the value a quick-start line shows
_SHOWN_VALUE = re.compile(r"#\s*(\([-\d, ]*\)|-?\d+)")


# Every subcommand's flags and positionals: --oracle only where there is an
# oracle, --basis only on the four weight commands, no --timing on convert.
SURFACE = {
    "mult": ({"--rank", "--timing", "--oracle", "--basis", "--lambda", "--mu"}, []),
    "tensor": ({"--rank", "--timing", "--oracle", "--basis", "--lambda", "--mu", "--nu"}, []),
    "kostant": ({"--rank", "--timing", "--oracle"}, ["vector"]),
    "convert": ({"--rank", "--to"}, ["vector"]),
    "poly-mult": ({"--rank", "--timing", "--basis", "--lambda", "--mu"}, []),
    "poly-tensor": ({"--rank", "--timing", "--basis", "--lambda", "--mu", "--nu"}, []),
    "batch": (set(), []),
}


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestSurface:
    @pytest.mark.parametrize("line, printed", _readme_examples(), ids=lambda x: str(x)[:40])
    def test_readme_example(self, capsys, line, printed):
        argv = shlex.split(line)[1:]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == printed

    def test_readme_has_examples(self):
        assert len(_readme_examples()) >= 7

    def test_readme_library_quick_start(self):
        # run the block statement by statement; each expression whose comment
        # shows a value must evaluate to it
        source, namespace, shown = _readme_python(), {}, []
        lines = source.splitlines()
        for stmt in ast.parse(source).body:
            code = ast.get_source_segment(source, stmt)
            if not isinstance(stmt, ast.Expr):
                exec(code, namespace)
                continue
            value = eval(code, namespace)
            comment = _SHOWN_VALUE.search(lines[stmt.lineno - 1])
            if comment:
                shown.append((code, ast.literal_eval(comment.group(1)), value))
        assert [expected for _, expected, _ in shown] == [2, 2, 2, (1, 3, 3, 1)]
        assert [value for _, _, value in shown] == [expected for _, expected, _ in shown], shown
        assert namespace["fit"].evaluate(10**9) == (10**9 + 1) ** 3

    def test_subcommands(self):
        assert set(_subparsers()) == set(SURFACE)

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_flags(self, command):
        parser = _subparsers()[command]
        flags = {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
        positionals = [a.dest for a in parser._actions if not a.option_strings]
        assert (flags, positionals) == SURFACE[command]


# One number grammar: a string is an integer or p/q, in the library as in a record.
_GRAMMAR = [("3", 3), (" -3 ", -3), ("+3", 3), ("5/3", Fraction(5, 3)), ("4/2", 2)] + [
    (token, "malformed-rational") for token in ("1.5", "1e3", "1_000", "abc", "", "2/0", "3/-2", "9" * 5000)]


class TestValidation:
    def test_float_entry_rejected(self, capsys):
        code, _, err = run_cli(capsys, "kostant", "--rank", "2", "0.5,0,-0.5")
        assert code == EXIT_INVALID
        assert "malformed-rational" in err

    def test_wrong_length_rejected(self, capsys):
        code, _, err = run_cli(capsys, "kostant", "--rank", "2", "1,-1")
        assert code == EXIT_INVALID
        assert "bad-length" in err

    def test_fundamental_weight_of_the_wrong_length_rejected(self, capsys):
        # refused as read, before the engine meets two weights of unequal rank
        code, out, err = run_cli(capsys, "mult", "--rank", "2", "--basis", "fundamental",
                                 "--lambda", "1,1,1", "--mu", "0,0")
        assert (code, out) == (EXIT_INVALID, "")
        assert json.loads(err) == {"error": "bad-length",
                                   "message": "lambda: rank 2 takes 2 fundamental coordinates"}

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

    @pytest.mark.parametrize("token, expected", _GRAMMAR,
                             ids=[t if len(t) < 9 else "5000 digits" for t, _ in _GRAMMAR])
    def test_library_and_batch_read_numbers_alike(self, capsys, monkeypatch, token, expected):
        import io

        def outcome(call):
            try:
                return call()
            except ValidationError as exc:
                return exc.code

        read = outcome(lambda: as_vector([token, 0])[0])
        assert (read, type(read)) == (expected, type(expected))
        # The record pairs the token with minus the library's reading, so it
        # sums to zero only where the batch reads the same number.
        vector = [token, "0" if isinstance(read, str) else str(-read)]
        library = outcome(lambda: kostant_partition(vector))
        record = {"command": "kostant", "rank": 1, "vector": vector}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(record)))
        _, out, err = run_cli(capsys, "batch")
        row = json.loads(out)
        assert row.get("error", row.get("value")) == (library if isinstance(library, str) else str(library))
        assert "Traceback" not in err

    def test_library_fault_is_an_internal_error(self, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("kostant.cli.multiplicity", broken)
        code, out, err = run_cli(capsys, "mult", "--rank", "2", "--lambda", "1,0,-1",
                                 "--mu", "0,0,0")
        assert (code, out) == (EXIT_INTERNAL, "")
        assert json.loads(err) == {"error": "internal-error", "message": "RuntimeError: boom"}


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

    def test_ray_that_fits_no_polynomial_prints_its_values(self, capsys, monkeypatch):
        # The query looks multiplicity_polynomial up in the cli module on each call.
        import io

        from kostant.formulas import RayFitFailure

        failure = RayFitFailure("ray crosses chamber structure inconsistently", (1, 2, 3, 4), (1, 4, -10, 7))
        monkeypatch.setattr("kostant.cli.multiplicity_polynomial", lambda *w: failure)
        printed = "fit-failed[ray crosses chamber structure inconsistently]:1,4,-10,7"
        code, out, _ = run_cli(capsys, "poly-mult", "--rank", "2", "--lambda", "1,0,-1", "--mu", "0,0,0")
        assert (code, out.strip()) == (EXIT_OK, printed)
        lines = "\n".join(json.dumps(r) for r in [
            {"command": "poly-mult", "rank": 2, "lambda": "1,0,-1", "mu": "0,0,0"},
            {"command": "kostant", "rank": 2, "vector": "1,0,-1"},
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["value"] for row in rows] == [printed, "2"]
        assert code == EXIT_OK

    @pytest.mark.parametrize("bad, code", [
        (json.dumps([1]), "bad-record"),
        (json.dumps({"command": "mult", "rank": 2}), "missing-field"),
        (json.dumps({"command": "kostant", "rank": True, "vector": "1,-1"}), "bad-rank"),
        (json.dumps({"command": ["mult"], "rank": 2}), "unknown-command"),
        ("[" * 100000 + "]" * 100000, "malformed-json"),
        (json.dumps({"command": "kostant", "rank": 2, "vector": "1,0,-1", "oracle": "false"}),
         "bad-oracle"),
        (json.dumps({"command": "convert", "rank": 2, "vector": "1,0,-1", "oracle": True}),
         "bad-oracle"),
        (json.dumps({"command": "poly-mult", "rank": 2, "lambda": "1,0,-1", "mu": "0,0,0",
                     "oracle": True}), "bad-oracle"),
        (json.dumps({"command": "poly-tensor", "rank": 1, "lambda": "1,0", "mu": "1,0",
                     "nu": "2,0", "oracle": True}), "bad-oracle"),
        (json.dumps({"command": "convert", "rank": 2, "vector": "1,0,-1", "to": "weyl"}), "bad-basis"),
        (json.dumps({"command": "mult", "rank": 2, "basis": "fundamental", "lambda": "1,1,1",
                     "mu": "0,0"}), "bad-length"),
        (json.dumps({"command": "convert", "rank": 2, "vector": "1,0,-1", "to": "canonical"}),
         "bad-length"),
    ], ids=["not-object", "missing-key", "bool-rank", "list-command", "deep-nesting",
            "string-oracle", "convert-oracle", "poly-mult-oracle", "poly-tensor-oracle",
            "convert-unknown-target", "fundamental-too-long", "convert-to-canonical-too-long"])
    def test_bad_record_does_not_end_stream(self, capsys, monkeypatch, bad, code):
        import io

        good = json.dumps({"command": "kostant", "rank": 2, "vector": "1,0,-1"})
        monkeypatch.setattr("sys.stdin", io.StringIO(bad + "\n" + good))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert (rows[0]["error"], rows[0]["line"]) == (code, 1)
        assert rows[1]["value"] == "2"
        assert exit_code == EXIT_INVALID

    @pytest.mark.parametrize("empty", [
        {"command": "kostant", "rank": 1, "vector": []},
        {"command": "convert", "rank": 1, "vector": [], "to": "fundamental"},
        {"command": "convert", "rank": 1, "vector": [], "to": "canonical"},
        {"command": "mult", "rank": 1, "lambda": [], "mu": "0,0"},
    ], ids=["kostant", "convert-to-fundamental", "convert-to-canonical", "mult-lambda"])
    def test_empty_vector_is_a_bad_length_and_the_stream_goes_on(self, capsys, monkeypatch, empty):
        # No rank takes an empty vector, so the length checks refuse it.
        import io

        good = json.dumps({"command": "kostant", "rank": 2, "vector": "1,0,-1"})
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(empty) + "\n" + good))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert (rows[0]["error"], rows[0]["line"]) == ("bad-length", 1)
        assert rows[1]["value"] == "2"
        assert exit_code == EXIT_INVALID

    @pytest.mark.parametrize("extra", [
        {"threads": 2}, {"threads": 0}, {"threads": "x"}, {"colour": [1, {"a": None}]},
        {"oracle": False},
    ], ids=["two-threads", "zero-threads", "string-threads", "unknown-key", "oracle-false"])
    def test_inert_keys_do_not_change_the_answer(self, capsys, monkeypatch, extra):
        import io

        records = [
            {"command": "kostant", "rank": 2, "vector": "1,0,-1"},
            {"command": "mult", "rank": 3, "lambda": "1,0,0,-1", "mu": "0,0,0,0"},
            {"command": "convert", "rank": 2, "vector": "1,0,-1", "to": "fundamental"},
            {"command": "poly-mult", "rank": 2, "lambda": "1,0,-1", "mu": "0,0,0"},
            {"command": "poly-tensor", "rank": 1, "lambda": "1,0", "mu": "1,0", "nu": "2,0"},
        ]
        lines = [json.dumps(r) for r in records] + [json.dumps({**r, **extra}) for r in records]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
        code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["value"] for row in rows[5:]] == [row["value"] for row in rows[:5]]
        assert all("error" not in row and "oracle" not in row for row in rows)
        assert code == EXIT_OK

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

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python converts integers of any length")
    def test_integer_past_the_digit_limit_is_malformed(self, capsys, monkeypatch):
        import io

        huge = '{"command": "kostant", "rank": %s, "vector": "1,-1"}' % ("9" * 5000)
        good = json.dumps({"command": "kostant", "rank": 1, "vector": "1,-1"})
        monkeypatch.setattr("sys.stdin", io.StringIO(huge + "\n" + good))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert (rows[0]["error"], rows[0]["line"], rows[1]["value"]) == ("malformed-json", 1, "1")
        assert exit_code == EXIT_INVALID

    def test_rank_at_the_digit_limit_is_a_bad_length(self, capsys, monkeypatch):
        # 4300 digits parse, but rank + 1 has 4301 and could not be printed.
        import io

        huge = '{"command": "kostant", "rank": %s, "vector": "1,-1"}' % ("9" * 4300)
        good = json.dumps({"command": "kostant", "rank": 1, "vector": "1,-1"})
        monkeypatch.setattr("sys.stdin", io.StringIO(huge + "\n" + good))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert (rows[0]["error"], rows[0]["line"], rows[1]["value"]) == ("bad-length", 1, "1")
        assert exit_code == EXIT_INVALID

    def test_records_call_the_functions_named_in_the_cli_module(self, capsys, monkeypatch):
        # Patches of these names (as the benchmark tracer makes) must be what runs.
        import io

        records = {
            "multiplicity": {"command": "mult", "rank": 1, "lambda": "1,0", "mu": "1,0"},
            "tensor_product": {"command": "tensor", "rank": 1, "lambda": "1,0", "mu": "1,0",
                               "nu": "2,0"},
            "multiplicity_polynomial": {"command": "poly-mult", "rank": 1, "lambda": "1,0",
                                        "mu": "1,0"},
            "tensor_polynomial": {"command": "poly-tensor", "rank": 1, "lambda": "1,0",
                                  "mu": "1,0", "nu": "2,0"},
            "kostant_partition": {"command": "kostant", "rank": 1, "vector": "1,-1"},
        }
        for name in records:
            def broken(*args, name=name):
                raise RuntimeError(f"patched {name}")

            monkeypatch.setattr(f"kostant.cli.{name}", broken)
        lines = "\n".join(json.dumps(r) for r in records.values())
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [(row["error"], row["message"], row["line"]) for row in rows] == [
            ("internal-error", f"RuntimeError: patched {name}", number)
            for number, name in enumerate(records, 1)]
        assert exit_code == EXIT_INTERNAL

    def test_undecodable_line_is_malformed_and_the_stream_goes_on(self, capsys, monkeypatch):
        import io

        good = json.dumps({"command": "kostant", "rank": 2, "vector": "2,0,-2"}).encode()
        raw = b"\xff\xfe\n" + good + b"\n"
        strict = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", strict)
        exit_code, out, err = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert (rows[0]["error"], rows[0]["line"]) == ("malformed-json", 1)
        assert rows[1]["value"] == "3"
        assert exit_code == EXIT_INVALID
        assert "Traceback" not in err

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


class TestRankLimit:
    def test_lowered_limit_refuses_a_command(self, capsys, monkeypatch):
        from kostant import residues, vectors

        monkeypatch.setattr(vectors, "_SUBSET_RANK_LIMIT", 3)
        monkeypatch.setattr(residues, "_partition_of", residues._Memo(16))
        code, out, err = run_cli(capsys, "kostant", "--rank", "4", "1,0,0,0,-1")
        assert (code, out, json.loads(err)["error"]) == (EXIT_INVALID, "", "rank-too-large")
        code, out, _ = run_cli(capsys, "kostant", "--rank", "3", "1,0,0,-1")
        assert (code, out.strip()) == (EXIT_OK, "4")

    def test_record_above_the_limit_is_a_typed_error_with_its_line(self, capsys, monkeypatch):
        # Refused before the order search, which runs past 30 s at this rank.
        import io

        from kostant import residues
        from kostant.vectors import _SUBSET_RANK_LIMIT

        def no_search(chamber):
            raise AssertionError(f"order search reached at rank {len(chamber).bit_length() - 1}")

        monkeypatch.setattr(residues, "_special_orders", no_search)
        rank = _SUBSET_RANK_LIMIT + 1
        big = {"command": "kostant", "rank": rank, "vector": [1] + [0] * (rank - 1) + [-1]}
        outside = {"command": "kostant", "rank": 2, "vector": "-2,0,2"}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(big) + "\n" + json.dumps(outside)))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert (rows[0]["error"], rows[0]["line"]) == ("rank-too-large", 1)
        assert rows[1]["value"] == "0"
        assert exit_code == EXIT_INVALID


class TestSearchBudget:
    def test_rank_twelve_theta_fails_fast(self, capsys):
        import time

        started = time.perf_counter()
        code, out, err = run_cli(capsys, "mult", "--rank", "12", "--basis", "fundamental",
                                 "--lambda", "1,1,1,1,1,1,1,1,1,1,1,79", "--mu", ",".join(["0"] * 12))
        assert time.perf_counter() - started < 1.0
        assert (code, out, json.loads(err)["error"]) == (EXIT_RESOURCE, "", "budget-exceeded")

    def test_batch_record_past_the_budget_carries_its_line(self, capsys, monkeypatch):
        import io

        big = {"command": "mult", "rank": 12, "basis": "fundamental",
               "lambda": "1,1,1,1,1,1,1,1,1,1,1,79", "mu": [0] * 12}
        small = {"command": "mult", "rank": 2, "lambda": "1,0,-1", "mu": "0,0,0"}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(big) + "\n" + json.dumps(small)))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert (rows[0]["error"], rows[0]["line"]) == ("budget-exceeded", 1)
        assert rows[1]["value"] == "2"
        assert exit_code == EXIT_RESOURCE

    # Each is refused on both sides of its diagram flip: the first two walk
    # 107.0M and 53.3M multiply-adds on their own side, past residues.WORK_LIMIT,
    # and the last 211.7M on its flip side, while its own side's order search
    # passes permsearch.FRONTIER_LIMIT.
    @pytest.mark.parametrize("vector", ["118,108,115,44,-6,-6,54,-68,-83,-276",
                                        "46,-6,224,41,70,27,108,-46,-252,-212",
                                        "179,255,4,114,32,-52,-193,-95,-164,-80"])
    def test_rank_nine_partition_count_past_a_limit_fails_fast(self, capsys, vector):
        import time

        started = time.perf_counter()
        code, out, err = run_cli(capsys, "kostant", "--rank", "9", vector)
        assert time.perf_counter() - started < 1.0
        assert (code, out, json.loads(err)["error"]) == (EXIT_RESOURCE, "", "budget-exceeded")

    def test_batch_walk_past_the_work_limit_carries_its_line(self, capsys, monkeypatch):
        import io

        from kostant import residues

        # Both sides of 3,-3,2,-1,-1 walk more than 30 multiply-adds (64 and 40).
        monkeypatch.setattr(residues, "WORK_LIMIT", 30)
        monkeypatch.setattr(residues, "_partition_of", residues._Memo(1 << 15))
        residues._program.cache_clear()  # a cached program was priced under the old limit
        records = [{"command": "kostant", "rank": 4, "vector": "3,-3,2,-1,-1"},
                   {"command": "kostant", "rank": 2, "vector": "1,0,-1"}]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(map(json.dumps, records)) + "\n"))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert (rows[0]["error"], rows[0]["line"], rows[1]["value"]) == ("budget-exceeded", 1, "2")
        assert exit_code == EXIT_RESOURCE

    # Its Brauer-Klimyk sum has 22068 terms, past formulas.TERM_LIMIT.
    WIDE_TENSOR = ["--rank", "7", "--basis", "fundamental", "--lambda", "3,3,3,3,3,3,3",
                   "--mu", "3,3,3,3,3,3,3", "--nu", "2,2,2,2,2,2,2"]

    def test_wide_rank_seven_tensor_fails_fast(self, capsys):
        import time

        started = time.perf_counter()
        code, out, err = run_cli(capsys, "tensor", *self.WIDE_TENSOR)
        assert time.perf_counter() - started < 1.0
        assert (code, out, json.loads(err)["error"]) == (EXIT_RESOURCE, "", "budget-exceeded")

    def test_batch_sum_past_the_term_limit_carries_its_line(self, capsys, monkeypatch):
        import io

        wide = {"command": "tensor", "rank": 7, "basis": "fundamental", "lambda": "3,3,3,3,3,3,3",
                "mu": "3,3,3,3,3,3,3", "nu": "2,2,2,2,2,2,2"}
        small = {"command": "kostant", "rank": 2, "vector": "1,0,-1"}
        lines = [json.dumps(small), json.dumps(wide), json.dumps(small)]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        exit_code, out, _ = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert (rows[1]["error"], rows[1]["line"]) == ("budget-exceeded", 2)
        assert rows[0]["value"] == rows[2]["value"] == "2"
        assert exit_code == EXIT_RESOURCE

    def test_non_dominant_mu_prints_its_sorted_answer(self, capsys):
        lam = ["--rank", "3", "--lambda", "2,1,0,-3"]
        answers = {run_cli(capsys, "mult", *lam, f"--mu={mu}")[1] for mu in ("0,1,-1,0", "1,0,0,-1", "-1,0,0,1")}
        assert answers == {"6\n"}


def _fresh_python(*args, stdin=""):
    """Run a new interpreter that imports this kostant package; (returncode, stdout)."""
    import subprocess

    import kostant

    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(kostant.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                          env=env, timeout=60)
    return done.returncode, done.stdout


class TestLazyImports:
    def test_importing_the_cli_loads_no_oracle_argparse_or_dataclasses(self):
        # The set before the import is the bare interpreter's, whatever site loaded.
        code, out = _fresh_python("-c", "import sys; bare = set(sys.modules); import kostant, "
                                  "kostant.cli; print(*sorted(set(sys.modules) - bare))")
        added = set(out.split())
        assert code == 0 and {"kostant", "kostant.cli"} <= added
        assert not added & {"dataclasses", "inspect", "argparse", "kostant.reference"}, added

    def test_oracle_flag_in_a_fresh_process(self):
        code, out = _fresh_python("-m", "kostant.cli", "kostant", "--rank", "2", "2,0,-2", "--oracle")
        assert (code, out.splitlines()) == (EXIT_OK, ["3", "oracle: agree"])

    def test_batch_oracles_in_a_fresh_process(self):
        records = [
            {"command": "kostant", "rank": 2, "vector": "100,0,-100", "oracle": True},
            {"command": "mult", "rank": 2, "lambda": "1,0,-1", "mu": "0,0,0", "oracle": True},
            {"command": "tensor", "rank": 2, "basis": "fundamental", "lambda": "1,1",
             "mu": "1,1", "nu": "1,1", "oracle": True},
        ]
        code, out = _fresh_python("-m", "kostant.cli", "batch",
                                  stdin="\n".join(map(json.dumps, records)))
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == EXIT_OK
        assert [(row["value"], row["oracle"]) for row in rows] == [
            ("101", None), ("2", "agree"), ("2", "agree")]


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_needs_digit_limit = pytest.mark.skipif(not _DIGIT_LIMIT,
                                        reason="this Python converts integers of any length")


class TestDigitLimit:
    @_needs_digit_limit
    @pytest.mark.parametrize("entry", ["9" * 5000, "1/" + "7" * 5000])
    def test_oversized_entry_is_a_typed_error(self, capsys, monkeypatch, entry):
        import io

        code, out, err = run_cli(capsys, "kostant", "--rank", "1", f"{entry},0")
        error = json.loads(err)
        assert (code, out, error["error"]) == (EXIT_INVALID, "", "malformed-rational")
        assert str(_DIGIT_LIMIT) in error["message"]
        lines = [json.dumps({"command": "kostant", "rank": 1, "vector": f"{entry},0"}),
                 json.dumps({"command": "kostant", "rank": 1, "vector": "1,-1"})]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
        code, out, err = run_cli(capsys, "batch")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert (rows[0]["error"], rows[0]["line"], rows[1]["value"]) == ("malformed-rational", 1, "1")
        assert str(_DIGIT_LIMIT) in rows[0]["message"]
        assert code == EXIT_INVALID
        assert "Traceback" not in err

    def test_long_answers_print_in_full(self, capsys, monkeypatch):
        import io
        from decimal import Decimal

        from kostant import kostant_partition

        n = str(10 ** 1500)
        vector = f"{n},{n},-{n},-{n}"
        expected = Decimal(kostant_partition((10 ** 1500,) * 2 + (-10 ** 1500,) * 2))
        code, out, _ = run_cli(capsys, "kostant", "--rank", "3", "--", vector)
        assert code == EXIT_OK
        assert len(out.strip()) > 4300 and Decimal(out.strip()) == expected
        monkeypatch.setattr("sys.stdin", io.StringIO(
            json.dumps({"command": "kostant", "rank": 3, "vector": vector})))
        code, out, _ = run_cli(capsys, "batch")
        assert code == EXIT_OK and Decimal(json.loads(out)["value"]) == expected

    def test_long_fractions_print_in_full(self):
        from decimal import Decimal

        from kostant.cli import _render
        from kostant.formulas import RayPolynomial

        p, q = 10 ** 5000 + 1, 3 ** 10000
        text = _render(RayPolynomial((Fraction(p, q), 2), (1, 2), (3, 4)))
        head, tail = text.split(",")
        assert tail == "2" and [Decimal(x) for x in head.split("/")] == [Decimal(p), Decimal(q)]


class TestRunRecord:
    def test_kostant_record_reaches_partition_counts_as_ints(self, monkeypatch):
        import kostant.residues

        seen = []
        counts = kostant.residues.partition_counts

        def recording(vectors):
            seen.extend(vectors)
            return counts(vectors)

        monkeypatch.setattr(kostant.residues, "partition_counts", recording)
        assert run_record({"command": "kostant", "rank": 3, "vector": "2,1,-1,-2"})["value"] == "13"
        assert run_record({"command": "kostant", "rank": 2, "vector": [1, 0, -1]})["value"] == "2"
        assert len(seen) == 2
        assert all(type(x) is int for v in seen for x in v)

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
    command = draw(st.sampled_from(COMMANDS))
    # only mult, tensor and kostant have an oracle; the others refuse "oracle": true
    with_oracle = command in ("mult", "tensor", "kostant") and draw(st.booleans())
    record = {"command": command, "rank": rank, "basis": basis,
              "lambda": weight(True), "mu": weight(draw(st.booleans())), "nu": weight(True),
              "vector": head + [-sum(head)], "to": "fundamental", "oracle": with_oracle}
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
    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_arbitrary_json(self, record):
        _answers_or_refuses(record)

    @settings(max_examples=250, deadline=None)
    @given(near_valid_records())
    def test_near_valid_records(self, record):
        _answers_or_refuses(record)
